"""The Fourier-Motzkin engine :mod:`repro.arith.fm` had before it ran on
integer rows, kept verbatim as a test oracle: it works on interned
:class:`~repro.arith.formula.Atom` lists and rebuilds every intermediate
constraint through the smart constructors.

``tests/arith/test_fm_rows.py`` checks that the row engine gives the same
answers, work units, projected atoms and models.  Nothing in ``src``
imports this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.arith.fm import Unsat, _pick_value
from repro.arith.formula import Atom, BoolConst, Rel, _atom_or_const
from repro.arith.terms import LinExpr

#: Count of raw Fourier-Motzkin elimination *work* performed since the last
#: :func:`clear_fm_caches`: one unit per eliminated variable plus one per
#: lower/upper bound combination it generated, so the counter tracks the
#: quadratic pairing that actually costs time, not just the number of
#: variables touched.  :class:`repro.arith.context.SolverContext` snapshots
#: this around each query to attribute FM work to its statistics; the
#: perf-guard benchmarks assert warm-context runs do strictly less of it.
_ELIMINATIONS = 0


def elimination_count() -> int:
    """Total raw FM elimination work units performed so far."""
    return _ELIMINATIONS


def _check_const(atom: Atom) -> Optional[Atom]:
    """Fold a constant atom to None (true) or raise :class:`Unsat`."""
    if atom.expr.is_constant():
        value = atom.expr.constant
        if atom.rel is Rel.LE:
            ok = value <= 0
        elif atom.rel is Rel.LT:
            ok = value < 0
        else:
            ok = value == 0
        if not ok:
            raise Unsat()
        return None
    return atom


def _renorm(expr: LinExpr, rel: Rel) -> Optional[Atom]:
    """Rebuild an atom through the integer-tightening smart constructor."""
    f = _atom_or_const(expr, rel)
    if isinstance(f, BoolConst):
        if not f.value:
            raise Unsat()
        return None
    assert isinstance(f, Atom)
    return f


def substitute_equalities(
    atoms: Sequence[Atom],
    record: Optional[List[Tuple[str, LinExpr]]] = None,
) -> List[Atom]:
    """Use equality atoms to substitute variables away (Gaussian style).

    Returns an equisatisfiable cube in which remaining equalities mention
    only variables that could not be isolated (none, for linear systems).
    When *record* is given, each performed substitution ``name := expr``
    is appended to it (in application order) so callers can reconstruct
    the eliminated variables from a model of the residue.
    Raises :class:`Unsat` on contradiction.
    """
    eqs = [a for a in atoms if a.rel is Rel.EQ]
    les = [a for a in atoms if a.rel is not Rel.EQ]  # LE and (strict) LT
    solved: List[Atom] = []
    while eqs:
        eq = eqs.pop()
        folded = _check_const(eq)
        if folded is None:
            continue
        expr = folded.expr
        # pick the variable with coefficient of smallest absolute value to
        # keep numbers small; any choice is correct
        name, coeff = min(expr.coeffs.items(), key=lambda kv: abs(kv[1]))
        # name = -(expr - coeff*name)/coeff
        rest = expr - LinExpr({name: coeff})
        replacement = rest.scale(Fraction(-1, 1) / coeff)
        if record is not None:
            record.append((name, replacement))
        mapping = {name: replacement}
        new_eqs: List[Atom] = []
        for a in eqs:
            r = _renorm(a.expr.substitute(mapping), Rel.EQ)
            if r is not None:
                new_eqs.append(r)
        eqs = new_eqs
        new_les: List[Atom] = []
        for a in les:
            r = _renorm(a.expr.substitute(mapping), a.rel)
            if r is not None:
                new_les.append(r)
        les = new_les
        solved = [
            s
            for s in (
                _renorm(a.expr.substitute(mapping), a.rel) for a in solved
            )
            if s is not None
        ]
        solved.append(folded)
    return solved + les


def _partition_by_var(
    atoms: Sequence[Atom], name: str
) -> Tuple[List[Atom], List[Atom], List[Atom]]:
    """Split LE atoms into (lower bounds, upper bounds, unrelated)."""
    lowers: List[Atom] = []
    uppers: List[Atom] = []
    rest: List[Atom] = []
    for a in atoms:
        c = a.expr.coeff(name)
        if c == 0:
            rest.append(a)
        elif c > 0:
            uppers.append(a)  # c*v + r <= 0  => v <= -r/c
        else:
            lowers.append(a)  # -c*v + r <= 0 => v >= r/(-c)
    return lowers, uppers, rest


def eliminate_var(atoms: Sequence[Atom], name: str) -> List[Atom]:
    """Eliminate *name* from a cube of LE atoms by Fourier-Motzkin.

    Equalities must have been substituted away first.  Raises
    :class:`Unsat` when a contradiction becomes constant.
    """
    global _ELIMINATIONS
    lowers, uppers, rest = _partition_by_var(atoms, name)
    _ELIMINATIONS += 1 + len(lowers) * len(uppers)
    out = list(rest)
    for lo in lowers:
        cl = -lo.expr.coeff(name)  # positive
        for up in uppers:
            cu = up.expr.coeff(name)  # positive
            # cl * up + cu * lo eliminates name; the combination is strict
            # exactly when either parent bound is strict
            combined = up.expr.scale(cl) + lo.expr.scale(cu)
            rel = (
                Rel.LT
                if (lo.rel is Rel.LT or up.rel is Rel.LT)
                else Rel.LE
            )
            r = _renorm(combined, rel)
            if r is not None:
                out.append(r)
    return _dedup(out)


def _dedup(atoms: Iterable[Atom]) -> List[Atom]:
    seen: Set[Atom] = set()
    out: List[Atom] = []
    for a in atoms:
        if a not in seen:
            seen.add(a)
            out.append(a)
    return out


def _cheapest_var(atoms: Sequence[Atom], remaining: Set[str]) -> str:
    """The variable of *remaining* whose elimination from *atoms* produces
    the fewest combined constraints (ties broken lexicographically, so the
    choice is independent of set-iteration order)."""
    best = None
    best_cost = None
    for n in sorted(remaining):
        lowers, uppers, _ = _partition_by_var(atoms, n)
        cost = len(lowers) * len(uppers)
        if best_cost is None or cost < best_cost:
            best, best_cost = n, cost
    assert best is not None
    return best


def eliminate_all(
    atoms: Sequence[Atom],
    targets: Set[str],
    stack: Optional[List[Tuple[str, List[Atom]]]] = None,
) -> List[Atom]:
    """Eliminate every variable of *targets* from a cube of LE atoms.

    The cheapest-first heuristic is *interleaved* with elimination: after
    each round the next variable is scored against the current (partially
    eliminated) cube, not the original one -- scoring everything up front
    ranks variables by bound counts that the earlier eliminations have
    already invalidated, which can steer the quadratic pairing into far
    more combinations than necessary.

    When *stack* is given, ``(name, atoms-before-eliminating-name)`` is
    appended per round (the back-substitution input of :func:`cube_model`).
    Raises :class:`Unsat` when a contradiction becomes constant.
    """
    remaining = set(targets)
    current = list(atoms)
    while remaining:
        name = _cheapest_var(current, remaining)
        remaining.discard(name)
        if stack is not None:
            stack.append((name, current))
        current = eliminate_var(current, name)
    return current


def project_cube(atoms: Sequence[Atom], keep: Optional[Set[str]] = None,
                 eliminate: Optional[Set[str]] = None) -> List[Atom]:
    """Project a cube onto *keep* (or eliminate *eliminate*).

    Exactly one of *keep*/*eliminate* must be given.  Raises
    :class:`Unsat` when the cube is contradictory.
    """
    if (keep is None) == (eliminate is None):
        raise ValueError("specify exactly one of keep= or eliminate=")
    cube = substitute_equalities(list(atoms))
    free: Set[str] = set()
    for a in cube:
        free |= a.expr.variables()
    targets = (free - keep) if keep is not None else (free & set(eliminate or ()))
    # Equalities that survived substitution and still mention targets cannot
    # exist for a linear system; but guard anyway by downgrading them.
    les: List[Atom] = []
    for a in cube:
        if a.rel is Rel.EQ:
            if a.expr.variables() & targets:
                les.append(Atom(a.expr, Rel.LE))
                les.append(Atom(-a.expr, Rel.LE))
            else:
                les.append(a)
        else:
            les.append(a)
    eq_kept = [a for a in les if a.rel is Rel.EQ]
    ineqs = [a for a in les if a.rel is not Rel.EQ]
    ineqs = eliminate_all(ineqs, targets)
    return _dedup(eq_kept + ineqs)


def _cube_is_sat(atoms: Sequence[Atom]) -> bool:
    try:
        cube = substitute_equalities(list(atoms))
        free: Set[str] = set()
        for a in cube:
            free |= a.expr.variables()
        ineqs = []
        for a in cube:
            if a.rel is Rel.EQ:
                # only var-free equalities can remain; _check_const folded them
                ineqs.append(Atom(a.expr, Rel.LE))
                ineqs.append(Atom(-a.expr, Rel.LE))
            else:
                ineqs.append(a)
        eliminate_all(ineqs, free)
        # all remaining atoms are constant-free-variable (none) -> checked in
        # _renorm; reaching here means no contradiction was found
        return True
    except Unsat:
        return False


def cube_model(atoms: Sequence[Atom]) -> Optional[Dict[str, Fraction]]:
    """Produce a (rational) model of a satisfiable cube by back-substitution.

    Returns ``None`` when the cube is unsatisfiable.  Values are chosen
    integral whenever the interval permits.  The returned environment is
    validated against **every input atom** before being handed out -- a
    witness-construction defect (e.g. a residual equality whose variables
    never flowed through back-substitution) degrades to ``None`` instead of
    an invalid model.
    """
    record: List[Tuple[str, LinExpr]] = []
    try:
        cube = substitute_equalities(list(atoms), record=record)
    except Unsat:
        return None
    eq_atoms = [a for a in cube if a.rel is Rel.EQ]
    ineqs = [a for a in cube if a.rel is not Rel.EQ]
    free: Set[str] = set()
    for a in cube:
        free |= a.expr.variables()
    stack: List[Tuple[str, List[Atom]]] = []
    try:
        eliminate_all(ineqs, free, stack=stack)
    except Unsat:
        return None
    env: Dict[str, Fraction] = {}
    for name, constraints in reversed(stack):
        lowers, uppers, _ = _partition_by_var(constraints, name)
        lo_val: Optional[Fraction] = None
        up_val: Optional[Fraction] = None
        lo_strict = False
        up_strict = False
        for a in lowers:
            c = a.expr.coeff(name)
            rest = (a.expr - LinExpr({name: c})).evaluate(env)
            bound = rest / (-c)  # v >= bound (v > bound when strict)
            if lo_val is None or bound > lo_val:
                lo_val, lo_strict = bound, a.rel is Rel.LT
            elif bound == lo_val and a.rel is Rel.LT:
                lo_strict = True
        for a in uppers:
            c = a.expr.coeff(name)
            rest = (a.expr - LinExpr({name: c})).evaluate(env)
            bound = -rest / c  # v <= bound (v < bound when strict)
            if up_val is None or bound < up_val:
                up_val, up_strict = bound, a.rel is Rel.LT
            elif bound == up_val and a.rel is Rel.LT:
                up_strict = True
        env[name] = _pick_value(lo_val, up_val, lo_strict, up_strict)
    # Recover the variables eliminated through equalities, in reverse
    # substitution order (later substitutions may mention earlier names).
    for name, expr in reversed(record):
        for v in expr.variables():
            env.setdefault(v, Fraction(0))
        env[name] = expr.evaluate(env)
    for a in eq_atoms:
        # Residual equalities still mentioning unassigned variables are
        # *solved* for one of them (the others default to 0), never blindly
        # zeroed: ``x == y + 5`` with y unconstrained must yield x = 5, not
        # the invalid x = y = 0.
        missing = sorted(a.expr.variables() - set(env))
        if not missing:
            continue
        pivot = missing[0]
        for m in missing[1:]:
            env[m] = Fraction(0)
        c = a.expr.coeff(pivot)
        rest = (a.expr - LinExpr({pivot: c})).evaluate(env)
        env[pivot] = rest / (-c)
    for a in atoms:
        for m in a.expr.variables() - set(env):
            env[m] = Fraction(0)
    # The witness must satisfy every *input* atom (not just the residue the
    # elimination worked on); if construction left a hole, answer "no model
    # found" rather than an assignment that violates the cube.
    if not all(a.evaluate(env) for a in atoms):
        return None
    return env
