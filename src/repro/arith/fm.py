"""Fourier-Motzkin elimination over conjunctions of linear atoms.

This is the engine behind satisfiability, entailment and projection in
:mod:`repro.arith.context`.  All arithmetic is exact and on integers: a cube
is converted once into dense integer rows (variables indexed in sorted-name
order, the constant last, see :data:`Row`), and substitution, bound
pairing, tightening, deduplication and the cheapest-first ordering all run
on those tuples.  Only :func:`project_cube`'s result is turned back into
atoms.  Every derived row goes through :func:`repro.arith.terms.tighten`,
the rule the smart constructors of :mod:`repro.arith.formula` apply, which
gives a cheap approximation of the Omega test's dark shadow:
single-variable divisibility gaps are closed, so the procedure is exact on
the unit-coefficient (difference-bound-like) fragment that dominates the
paper's verification conditions.  In general it remains a *sound* UNSAT
test for integer constraints (rational UNSAT implies integer UNSAT).  Each
derived row is a positive multiple of the constraint an elimination over
rational atoms derives, so it tightens to exactly that atom's expression:
answers, work units and projected atoms are those of the atom-based engine
this one replaced (``docs/solver.md``).

:func:`cube_is_sat` first runs a linear bounds pre-pass: each atom bounds
one linear term from above, below or both
(:attr:`repro.arith.formula.Atom.bound`), and two opposite bounds on one
term that cannot both hold refute the cube before the memo is probed and
FM runs.  The pre-pass only ever answers
UNSAT, and only for rationally UNSAT cubes, which FM refutes too, so it
never changes an answer.  See ``docs/solver.md``.

This layer also owns the analysis wall-clock limit: :func:`deadline`
scopes one to the calling thread's context, and :func:`check_deadline`,
called at the top of every :func:`cube_is_sat` and once per round of
variable elimination, raises :class:`AnalysisTimeout` once it has passed,
so an analysis stops itself where it spends its time.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import time
from fractions import Fraction
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.arith.formula import Atom, Rel
from repro.arith.lru import LRUCache
from repro.arith.terms import LinExpr, tighten

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


class Unsat(Exception):
    """Raised internally when a cube is discovered to be contradictory."""


class AnalysisTimeout(Exception):
    """Raised by :func:`check_deadline` once the scoped deadline passed."""


#: The ``time.monotonic()`` instant the current context's analysis must
#: stop at (``None``: no limit).  A context variable, so each thread -- a
#: daemon worker, a bench run -- carries its own limit.
_DEADLINE: contextvars.ContextVar[Optional[float]] = contextvars.ContextVar(
    "analysis_deadline", default=None
)


@contextlib.contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Stop every FM call made inside the block once *seconds* have passed.

    A nested scope never extends an enclosing deadline: the sooner of the
    two applies."""
    until = time.monotonic() + seconds
    outer = _DEADLINE.get()
    token = _DEADLINE.set(until if outer is None else min(outer, until))
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def check_deadline() -> None:
    """Raise :class:`AnalysisTimeout` when the scoped deadline has passed."""
    until = _DEADLINE.get()
    if until is not None and time.monotonic() > until:
        raise AnalysisTimeout()


#: The relations, bound once (attribute access on an enum class is slow).
_LE, _LT, _EQ = Rel.LE, Rel.LT, Rel.EQ

#: One constraint ``c_1*x_1 + ... + c_n*x_n + k`` over a cube's variables,
#: indexed in sorted-name order, as the integer tuple ``(c_1, ..., c_n, k)``.
Row = Tuple[int, ...]
#: An inequality row and whether it is strict (``< 0``) or not (``<= 0``).
Ineq = Tuple[Row, bool]


class _Births:
    """When the rows one :func:`project_cube` call derives were born.

    The atom-based engine created an atom for every derived constraint,
    and formula nodes sort by creation.  A derived row is born unless an
    equal row is still held, and a row that nothing holds any more (no
    list, nor the atom engine's loop variable) is born again when it is
    derived again (its atom had died); result atoms are built in the
    order of these births."""

    def __init__(self) -> None:
        self.order: Dict[Tuple[Row, Rel], int] = {}
        self._stamps = itertools.count()

    def derived(self, row: Row, rel: Rel) -> None:
        if (row, rel) not in self.order:
            self.order[row, rel] = next(self._stamps)

    def held(self, keys: Iterable[Tuple[Row, Rel]]) -> None:
        """Only the rows of *keys* are still held."""
        keys = set(keys)
        self.order = {k: v for k, v in self.order.items() if k in keys}


def _rows(atoms: Sequence[Atom]) -> Tuple[List[str], List[Tuple[Row, Rel]]]:
    """The cube's variable names in sorted order, and each atom as its row
    (denominators cleared by a positive factor; atoms the smart
    constructors build are integral already) with its relation."""
    names = sorted({n for a in atoms for n, _ in a.expr._coeffs})
    index = {n: i for i, n in enumerate(names)}
    zeros = [0] * len(names)
    cons = []
    for a in atoms:
        pairs, const, _ = a.expr.cleared()
        row = zeros + [const]
        for n, c in pairs:
            row[index[n]] = c
        cons.append((tuple(row), a.rel))
    return names, cons


def _renorm(row: Row, rel: Rel) -> Optional[Row]:
    """*row* tightened for *rel*, or ``None`` when it is variable-free and
    holds.  Raises :class:`Unsat` when it is variable-free and fails."""
    if any(row[:-1]):
        return tighten(row, rel is _LE)
    k = row[-1]
    if rel is _LE:
        ok = k <= 0
    elif rel is _LT:
        ok = k < 0
    else:
        ok = k == 0
    if not ok:
        raise Unsat()
    return None


def _substitute(
    cons: Sequence[Tuple[Row, Rel]],
    record: Optional[List[Tuple[int, Row]]] = None,
    births: Optional[_Births] = None,
) -> Tuple[List[Row], List[Ineq]]:
    """Use the equalities to substitute variables away (Gaussian style).

    Returns ``(equalities, inequalities)`` of an equisatisfiable cube.
    Each equality used keeps its pivot (the variable it was solved for,
    the first of least absolute coefficient); no other row mentions that
    pivot.  Substituting by an equality ``eq`` with pivot coefficient
    ``c`` turns a row ``r`` into ``|c|*r - sign(c)*r[pivot]*eq``, a
    positive multiple of the rational substitution, so tightening gives
    the same row.  Every row is re-tightened in every round, in the order
    remaining equalities, inequalities, used equalities.  When *record*
    is given, ``(pivot, eq)`` is appended per substitution so
    :func:`cube_model` can recover the pivots.  Raises :class:`Unsat` on
    contradiction.
    """
    eqs = [row for row, rel in cons if rel is _EQ]
    les = [(row, rel) for row, rel in cons if rel is not _EQ]
    solved: List[Row] = []

    def sub(r: Row, rel: Rel) -> Optional[Row]:
        a = r[p]
        new = r if a == 0 else tuple(
            [abs(c) * x - (a if c > 0 else -a) * e for x, e in zip(r, eq)]
        )
        new = _renorm(new, rel)
        if births is not None and new is not None and new is not r:
            births.derived(new, rel)
        return new

    # The atom engine's loop variable kept the last atom of its latest
    # non-empty loop over ``eqs`` or ``les`` alive until its next such
    # loop began, even after the rewritten list had dropped it.
    loop_var: List[Tuple[Row, Rel]] = []

    def held() -> None:
        if births is not None:
            births.held(
                [(r, _EQ) for r in eqs + solved + [eq]] + les + loop_var
            )

    def rebind(last: Tuple[Row, Rel]) -> None:
        """A loop over a list ending in *last* begins."""
        if births is not None:
            if loop_var:
                loop_var.clear()
                held()
            loop_var.append(last)

    while eqs:
        eq = eqs.pop()
        coeffs = eq[:-1]
        if not any(coeffs):
            if eq[-1] != 0:
                raise Unsat()
            continue
        p = min((i for i, k in enumerate(coeffs) if k),
                key=lambda i: abs(coeffs[i]))
        c = eq[p]
        if record is not None:
            record.append((p, eq))
        if eqs:
            rebind((eqs[-1], _EQ))
        eqs = [r for r in (sub(r, _EQ) for r in eqs) if r is not None]
        held()
        if les:
            rebind(les[-1])
        les = [(r, rel) for r, rel in ((sub(r, rel), rel) for r, rel in les)
               if r is not None]
        held()
        solved = [r for r in (sub(r, _EQ) for r in solved)
                  if r is not None]
        solved.append(eq)
        held()
    if loop_var:  # the loop variable dies with the atom engine's call
        loop_var.clear()
        held()
    return solved, [(row, rel is _LT) for row, rel in les]


def _partition(
    rows: Sequence[Ineq], i: int
) -> Tuple[List[Ineq], List[Ineq], List[Ineq]]:
    """Split inequality rows into (lower bounds, upper bounds, unrelated)
    on variable *i*."""
    lowers: List[Ineq] = []
    uppers: List[Ineq] = []
    rest: List[Ineq] = []
    for ineq in rows:
        c = ineq[0][i]
        if c == 0:
            rest.append(ineq)
        elif c > 0:
            uppers.append(ineq)  # c*v + r <= 0  => v <= -r/c
        else:
            lowers.append(ineq)  # -c*v + r <= 0 => v >= r/(-c)
    return lowers, uppers, rest


def _eliminate_var(
    rows: Sequence[Ineq], i: int, births: Optional[_Births] = None
) -> List[Ineq]:
    """Eliminate variable *i* from inequality rows by Fourier-Motzkin.

    Equalities must have been substituted away or split first.  The
    result is the unrelated rows, then each tightened lower/upper
    combination in order, without duplicates.  Raises :class:`Unsat`
    when a contradiction becomes constant.
    """
    global _ELIMINATIONS
    lowers, uppers, out = _partition(rows, i)
    _ELIMINATIONS += 1 + len(lowers) * len(uppers)
    for lo, lo_strict in lowers:
        cl = -lo[i]  # positive
        for up, up_strict in uppers:
            cu = up[i]  # positive
            # cl * up + cu * lo eliminates i; the combination is strict
            # exactly when either parent bound is strict
            strict = lo_strict or up_strict
            rel = _LT if strict else _LE
            row = _renorm(
                tuple([cl * u + cu * v for u, v in zip(up, lo)]), rel
            )
            if row is not None:
                out.append((row, strict))
                if births is not None:
                    births.derived(row, rel)
    return list(dict.fromkeys(out))


def _cheapest_var(rows: Sequence[Ineq], remaining: Set[int]) -> int:
    """The variable of *remaining* whose elimination from *rows* produces
    the fewest combined constraints (ties broken by name order)."""
    best = -1
    best_cost = -1
    for i in sorted(remaining):
        lowers = uppers = 0
        for row, _ in rows:
            c = row[i]
            if c > 0:
                uppers += 1
            elif c < 0:
                lowers += 1
        cost = lowers * uppers
        if best_cost < 0 or cost < best_cost:
            best, best_cost = i, cost
            if cost == 0:
                break
    return best


def _eliminate_all(
    rows: Sequence[Ineq],
    targets: Set[int],
    stack: Optional[List[Tuple[int, List[Ineq]]]] = None,
    births: Optional[_Births] = None,
) -> List[Ineq]:
    """Eliminate every variable of *targets* from inequality rows.

    The cheapest-first heuristic is *interleaved* with elimination: after
    each round the next variable is scored against the current (partially
    eliminated) rows, not the original ones -- scoring everything up front
    ranks variables by bound counts that the earlier eliminations have
    already invalidated, which can steer the quadratic pairing into far
    more combinations than necessary.

    When *stack* is given, ``(variable, rows-before-eliminating-it)`` is
    appended per round (the back-substitution input of :func:`cube_model`).
    Raises :class:`Unsat` when a contradiction becomes constant.
    """
    remaining = set(targets)
    current = list(rows)
    while remaining:
        check_deadline()
        i = _cheapest_var(current, remaining)
        remaining.discard(i)
        if stack is not None:
            stack.append((i, current))
        current = _eliminate_var(current, i, births)
    return current


def _free(rows: Iterable[Row]) -> Set[int]:
    """The variables some row mentions."""
    return {i for i, col in enumerate(list(zip(*rows))[:-1]) if any(col)}


def _split(eq: Row) -> List[Ineq]:
    """``e == 0`` as ``e <= 0`` and ``-e <= 0`` (not tightened)."""
    return [(eq, False), (tuple([-c for c in eq]), False)]


def project_cube(atoms: Sequence[Atom], keep: Optional[Set[str]] = None,
                 eliminate: Optional[Set[str]] = None) -> List[Atom]:
    """Project a cube onto *keep* (or eliminate *eliminate*).

    Exactly one of *keep*/*eliminate* must be given.  Equalities that
    mention a variable to eliminate are split into two inequalities; the
    others are kept.  Raises :class:`Unsat` when the cube is
    contradictory.

    Only the result is turned back into atoms.  An input atom that no
    step rewrote is returned as itself.  The others are built in the
    order their rows were born (:class:`_Births`), so a new atom sorts
    among the other new ones (formula nodes are ordered by creation) as
    if every intermediate step had built its atom.
    """
    if (keep is None) == (eliminate is None):
        raise ValueError("specify exactly one of keep= or eliminate=")
    names, cons = _rows(atoms)
    births = _Births()
    eqs, les = _substitute(cons, births=births)
    free = _free(eqs + [row for row, _ in les])
    if keep is not None:
        targets = {i for i in free if names[i] not in keep}
    else:
        targets = {i for i in free if names[i] in eliminate}
    eq_kept: List[Row] = []
    split: List[Ineq] = []
    for eq in eqs:
        if any(eq[i] for i in targets):
            split += _split(eq)
        else:
            eq_kept.append(eq)
    ineqs = _eliminate_all(split + les, targets, births=births)
    keys = list(dict.fromkeys([(row, _EQ) for row in eq_kept]))
    keys += dict.fromkeys(
        [(row, _LT if strict else _LE) for row, strict in ineqs]
    )
    built: Dict[Tuple[Row, Rel], Atom] = {}
    born = births.order
    for key in sorted((k for k in keys if k in born), key=born.get):
        row, rel = key
        built[key] = Atom(
            LinExpr([(n, c) for n, c in zip(names, row) if c], row[-1]), rel
        )
    for key, atom in zip(cons, atoms):
        built.setdefault(key, atom)
    return [built[key] for key in keys]


#: ``direction -> (lower, lower strict, upper, upper strict)``: the
#: tightest bounds a partial cube puts on each linear term (``None`` for
#: an absent side).
BoundsTable = Dict[LinExpr, Tuple[object, bool, object, bool]]

_NO_BOUNDS = (None, False, None, False)


def add_bound(
    table: BoundsTable, atom: Atom, trail: Optional[list] = None
) -> bool:
    """Tighten *table* by *atom*'s bound; ``True`` when the table has become
    contradictory: some term's lower bound exceeds its upper bound, or
    equals it while either side is strict.

    The previous entry is pushed on *trail* (when given) so a depth-first
    caller can undo the update with :func:`undo_bounds`."""
    bound = atom.bound
    if bound is None:
        return False
    direction, value, strict, upper, lower = bound
    old = table.get(direction, _NO_BOUNDS)
    lo, lo_strict, up, up_strict = old
    if lower and (lo is None or value > lo or (value == lo and strict)):
        lo, lo_strict = value, strict
    if upper and (up is None or value < up or (value == up and strict)):
        up, up_strict = value, strict
    if trail is not None:
        trail.append((direction, old))
    table[direction] = (lo, lo_strict, up, up_strict)
    return (
        lo is not None
        and up is not None
        and (lo > up or (lo == up and (lo_strict or up_strict)))
    )


def undo_bounds(table: BoundsTable, trail: list, mark: int) -> None:
    """Roll *table* back to its state when *trail* had length *mark*."""
    while len(trail) > mark:
        direction, old = trail.pop()
        table[direction] = old


def bounds_refute(atoms: Iterable[Atom]) -> bool:
    """``True`` when two opposite bounds on one linear term contradict.

    A refuted cube is rationally UNSAT, so :func:`_cube_is_sat` (which
    decides every rationally UNSAT cube UNSAT) would answer ``False`` too;
    ``False`` here answers nothing."""
    table: BoundsTable = {}
    return any(add_bound(table, a) for a in atoms)


_CUBE_SAT_CACHE = LRUCache(500_000)

#: Cubes :func:`cube_is_sat` refuted by :func:`bounds_refute` since the
#: last :func:`clear_fm_caches` (never cached, never counted as misses).
_BOUNDS_UNSAT = 0


def cube_is_sat(atoms: Sequence[Atom], *, bounds_checked: bool = False) -> bool:
    """Satisfiability of a conjunction of atoms (integer-tightened FM).

    Opposite bounds on one linear term are checked first
    (:func:`bounds_refute`, linear in the cube); a cube refuted there never
    reaches the cache or FM.  A caller that has already put every atom
    through :func:`add_bound` into one table without a contradiction
    passes ``bounds_checked=True`` to skip that repeat.  Other results are
    memoised on the atom set in an LRU-bounded cache -- the inference
    re-checks the same contexts many times across specialisation
    iterations, and under memory pressure the least-recently-used entries
    are evicted instead of the cache silently refusing new entries.

    Raises :class:`AnalysisTimeout` once the scoped :func:`deadline` has
    passed.
    """
    global _BOUNDS_UNSAT
    check_deadline()
    if not bounds_checked and bounds_refute(atoms):
        _BOUNDS_UNSAT += 1
        return False
    key = frozenset(atoms)
    cached = _CUBE_SAT_CACHE.get(key)
    if cached is not None:
        return cached
    result = _cube_is_sat(atoms)
    _CUBE_SAT_CACHE.put(key, result)
    return result


def clear_fm_caches() -> None:
    """Drop the cube-satisfiability cache and reset all FM statistics."""
    global _ELIMINATIONS, _BOUNDS_UNSAT
    _CUBE_SAT_CACHE.clear(reset_evictions=True)
    _ELIMINATIONS = 0
    _BOUNDS_UNSAT = 0


def fm_cache_stats() -> Dict[str, int]:
    """Size/eviction/elimination/pre-pass counters of the FM layer."""
    return {
        "size": len(_CUBE_SAT_CACHE),
        "evictions": _CUBE_SAT_CACHE.evictions,
        "eliminations": _ELIMINATIONS,
        "bounds_unsat": _BOUNDS_UNSAT,
    }


def _cube_is_sat(atoms: Sequence[Atom]) -> bool:
    """Fourier-Motzkin on the cube's integer rows; every call is one real
    FM run (a :func:`cube_is_sat` cache miss)."""
    try:
        _, cons = _rows(atoms)
        eqs, les = _substitute(cons)
        # each used equality still mentions its pivot: split it in two
        rows = [ineq for eq in eqs for ineq in _split(eq)] + les
        _eliminate_all(rows, _free(eqs + [row for row, _ in les]))
        return True
    except Unsat:
        return False


def cube_model(atoms: Sequence[Atom]) -> Optional[Dict[str, Fraction]]:
    """Produce a (rational) model of a satisfiable cube by back-substitution.

    Returns ``None`` when the cube is unsatisfiable.  Values are chosen
    integral whenever the interval permits.  The inequalities are
    eliminated variable by variable and each variable is then given a value
    inside the bounds its rows leave once the later ones are fixed; the
    pivots of the equalities are recovered last, in reverse substitution
    order.  The returned environment is validated against **every input
    atom** before being handed out -- a witness-construction defect
    degrades to ``None`` instead of an invalid model.
    """
    names, cons = _rows(atoms)
    record: List[Tuple[int, Row]] = []
    stack: List[Tuple[int, List[Ineq]]] = []
    try:
        eqs, les = _substitute(cons, record=record)
        _eliminate_all(
            les, _free(eqs + [row for row, _ in les]), stack=stack
        )
    except Unsat:
        return None
    env: Dict[str, Fraction] = {}

    def rest(row: Row, i: int) -> Fraction:
        """``row`` without its variable-*i* term, evaluated in *env*.  A
        ``Fraction`` even when every entry is an ``int``, so the divisions
        by a coefficient below stay exact."""
        total = Fraction(row[-1])
        for j, c in enumerate(row[:-1]):
            if c and j != i:
                total += c * env[names[j]]
        return total

    for i, rows in reversed(stack):
        lowers, uppers, _ = _partition(rows, i)
        lo_val: Optional[Fraction] = None
        up_val: Optional[Fraction] = None
        lo_strict = False
        up_strict = False
        for row, strict in lowers:
            bound = rest(row, i) / -row[i]  # v >= bound (v > when strict)
            if lo_val is None or bound > lo_val:
                lo_val, lo_strict = bound, strict
            elif bound == lo_val and strict:
                lo_strict = True
        for row, strict in uppers:
            bound = -rest(row, i) / row[i]  # v <= bound (v < when strict)
            if up_val is None or bound < up_val:
                up_val, up_strict = bound, strict
            elif bound == up_val and strict:
                up_strict = True
        env[names[i]] = _pick_value(lo_val, up_val, lo_strict, up_strict)
    # Recover the variables eliminated through equalities, in reverse
    # substitution order (later substitutions may mention earlier names).
    for p, eq in reversed(record):
        for j, c in enumerate(eq[:-1]):
            if c and j != p:
                env.setdefault(names[j], Fraction(0))
        env[names[p]] = rest(eq, p) / -eq[p]
    for n in names:
        env.setdefault(n, Fraction(0))
    # The witness must satisfy every *input* atom (not just the residue the
    # elimination worked on); if construction left a hole, answer "no model
    # found" rather than an assignment that violates the cube.
    if not all(a.evaluate(env) for a in atoms):
        return None
    return env


def _pick_value(
    lo: Optional[Fraction],
    up: Optional[Fraction],
    lo_strict: bool = False,
    up_strict: bool = False,
) -> Fraction:
    """A value inside the (possibly half-open) interval.

    A strict bound with an integral value must never be returned as the
    witness itself: ``ceil(lo)`` equals ``lo`` when ``lo`` is integral,
    which violates ``lo < v`` (symmetrically ``floor(up)`` for ``v < up``).
    FM has already established the interval is non-empty, so for two-sided
    bounds the midpoint is always a sound fallback (interior even when both
    endpoints are open).
    """
    import math

    if lo is None and up is None:
        return Fraction(0)
    if lo is None:
        assert up is not None
        c = math.floor(up)
        if up_strict and Fraction(c) == up:
            c -= 1
        return Fraction(c)
    if up is None:
        c = math.ceil(lo)
        if lo_strict and Fraction(c) == lo:
            c += 1
        return Fraction(c)
    # prefer an integer point inside the interval when one exists
    c = math.ceil(lo)
    if lo_strict and Fraction(c) == lo:
        c += 1
    if Fraction(c) < up or (not up_strict and Fraction(c) == up):
        return Fraction(c)
    return (lo + up) / 2
