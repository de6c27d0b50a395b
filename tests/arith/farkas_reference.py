"""The LP builders and solver front end the direct HiGHS path replaced,
verbatim: the oracle for ``test_farkas.py``.

``LPProblem`` grows each row as an interned :class:`LinExpr` and solves
through ``scipy.optimize.linprog(method="highs")``; ``add_implication`` is
the Farkas encoding over it, and ``template_abduction`` is the abduction
LP that non-termination proving built by hand next to it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.arith.context import SolverContext
from repro.arith.farkas import polyhedron_rows
from repro.arith.formula import Atom, Formula, Rel, atom_ge, conj
from repro.arith.solver import dnf_disjuncts
from repro.arith.terms import LinExpr


class LPProblem:
    """A tiny LP builder over named unknowns with exact-input rows.

    Constraints are :class:`LinExpr` objects over the LP unknowns:
    ``add_le(e)`` asserts ``e <= 0`` and ``add_eq(e)`` asserts ``e == 0``.
    """

    def __init__(self) -> None:
        self._le_rows: List[LinExpr] = []
        self._eq_rows: List[LinExpr] = []
        self._nonneg: set = set()
        self._vars: List[str] = []
        self._var_set: set = set()

    def _register(self, expr: LinExpr) -> None:
        for v in sorted(expr.variables()):
            if v not in self._var_set:
                self._var_set.add(v)
                self._vars.append(v)

    def add_le(self, expr: LinExpr) -> None:
        self._register(expr)
        self._le_rows.append(expr)

    def add_eq(self, expr: LinExpr) -> None:
        self._register(expr)
        self._eq_rows.append(expr)

    def set_nonneg(self, name: str) -> None:
        if name not in self._var_set:
            self._var_set.add(name)
            self._vars.append(name)
        self._nonneg.add(name)

    def abs_objective(self, names: Sequence[str]) -> LinExpr:
        """Build an objective minimising ``sum |names|`` by introducing
        ``t_i >= name_i`` and ``t_i >= -name_i`` slack variables."""
        terms = {}
        for name in names:
            t = f"{name}.abs"
            self.set_nonneg(t)
            self.add_le(LinExpr({name: 1, t: -1}))
            self.add_le(LinExpr({name: -1, t: -1}))
            terms[t] = Fraction(1)
        return LinExpr(terms)

    @property
    def variables(self) -> List[str]:
        return list(self._vars)

    def solve(
        self,
        objective: Optional[LinExpr] = None,
        bound: int = 1000,
        denominators: Sequence[int] = (1, 2, 3, 4, 6, 8, 12, 24, 60, 120),
    ) -> Optional[Dict[str, Fraction]]:
        """Feasibility / optimisation; returns rationalised values.

        The caller must verify the returned assignment exactly; this method
        only guarantees that the floats scipy produced were rationalised
        with small denominators.
        """
        names = self._vars
        if not names:
            return {}
        idx = {n: i for i, n in enumerate(names)}
        n = len(names)

        def row(expr: LinExpr) -> Tuple[np.ndarray, float]:
            r = np.zeros(n)
            for v, c in expr.coeffs.items():
                r[idx[v]] = float(c)
            return r, -float(expr.constant)

        a_ub, b_ub = [], []
        for e in self._le_rows:
            r, b = row(e)
            a_ub.append(r)
            b_ub.append(b)
        a_eq, b_eq = [], []
        for e in self._eq_rows:
            r, b = row(e)
            a_eq.append(r)
            b_eq.append(b)
        c = np.zeros(n)
        if objective is not None:
            for v, k in objective.coeffs.items():
                if v in idx:
                    c[idx[v]] = float(k)
        bounds = [
            (0.0, float(bound)) if name in self._nonneg
            else (-float(bound), float(bound))
            for name in names
        ]
        res = linprog(
            c,
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=bounds,
            method="highs",
        )
        if not res.success:
            return None
        values = res.x
        for den in denominators:
            out = {
                name: Fraction(float(values[i])).limit_denominator(den)
                for i, name in enumerate(names)
            }
            if self._check_exact(out):
                return out
        # final fallback: generous rationalisation (caller re-verifies)
        return {
            name: Fraction(float(values[i])).limit_denominator(10**6)
            for i, name in enumerate(names)
        }

    def _check_exact(self, values: Mapping[str, Fraction]) -> bool:
        for e in self._eq_rows:
            if e.evaluate(values) != 0:
                return False
        for e in self._le_rows:
            if e.evaluate(values) > 0:
                return False
        for name in self._nonneg:
            if values.get(name, Fraction(0)) < 0:
                return False
        return True


def add_implication(
    lp: LPProblem,
    cube: Sequence[Atom],
    xs: Sequence[str],
    target_coeffs: Mapping[str, LinExpr],
    target_const: LinExpr,
    prefix: str,
) -> None:
    """Encode ``cube  =>  (sum target_coeffs[x]*x) <= target_const``.

    ``target_coeffs``/``target_const`` are linear expressions over LP
    unknowns (template coefficients).  Fresh multipliers named
    ``{prefix}.k`` are introduced; callers must keep prefixes unique per
    implication.  The caller is responsible for checking that *cube* is
    satisfiable (Farkas' affine form needs a nonempty polyhedron).
    """
    rows = polyhedron_rows(cube)
    lams = [f"{prefix}.{k}" for k in range(len(rows))]
    for name in lams:
        lp.set_nonneg(name)
    # for every program dimension x: sum_k lam_k * A[k][x] - g[x] = 0
    dims = set(xs)
    for coeffs, _b in rows:
        dims |= set(coeffs)
    for x in sorted(dims):
        expr = LinExpr({}, 0)
        for (coeffs, _b), lam in zip(rows, lams):
            c = coeffs.get(x, Fraction(0))
            if c != 0:
                expr = expr + LinExpr({lam: c})
        g = target_coeffs.get(x)
        if g is not None:
            expr = expr - g
        lp.add_eq(expr)
    # lambda^T b - d <= 0
    expr = LinExpr({}, 0)
    for (_coeffs, b), lam in zip(rows, lams):
        if b != 0:
            expr = expr + LinExpr({lam: b})
    expr = expr - target_const
    lp.add_le(expr)


def template_abduction(
    context: Formula,
    beta: Formula,
    subset: Tuple[str, ...],
    ctx: SolverContext,
) -> Optional[Formula]:
    """Farkas abduction with template ``a0 + sum a_i v_i >= 0`` over
    *subset*, the template's own multiplier normalised to 1."""
    ctx_cubes = [c for c in dnf_disjuncts(context) if ctx.is_sat(conj(*c))]
    beta_cubes = dnf_disjuncts(beta)
    if not ctx_cubes or len(beta_cubes) != 1:
        return None
    beta_atoms = list(beta_cubes[0])
    lp = LPProblem()
    coeff = {v: f"abd.c.{v}" for v in subset}
    const = "abd.c0"
    impl = 0
    for cube in ctx_cubes:
        rows = polyhedron_rows(cube)
        for atom in beta_atoms:
            # atom: w.x + k <= 0  i.e.  w.x <= -k  ->  g = w, d = -k
            targets = [(atom.expr.coeffs, -atom.expr.constant)]
            if atom.rel is Rel.EQ:
                targets.append(
                    ({v: -c for v, c in atom.expr.coeffs.items()},
                     atom.expr.constant)
                )
            for g_coeffs, d_val in targets:
                lams = [f"l{impl}.{k}" for k in range(len(rows))]
                for name in lams:
                    lp.set_nonneg(name)
                dims: Set[str] = set(subset) | set(g_coeffs)
                for r_coeffs, _b in rows:
                    dims |= set(r_coeffs)
                for x in sorted(dims):
                    # sum_k lam_k A[k][x]  - a_x [x in subset]  - g[x] = 0
                    expr = LinExpr()
                    for (r_coeffs, _b), lam in zip(rows, lams):
                        c = r_coeffs.get(x, Fraction(0))
                        if c != 0:
                            expr = expr + LinExpr({lam: c})
                    if x in coeff:
                        # alpha row "-a.x <= a0" with multiplier fixed to 1
                        expr = expr + LinExpr({coeff[x]: -1})
                    gx = g_coeffs.get(x, Fraction(0))
                    if gx != 0:
                        expr = expr - LinExpr({}, gx)
                    lp.add_eq(expr)
                # constant side: lambda^T b + a0 <= d
                expr = LinExpr({const: 1})
                for (_r, b), lam in zip(rows, lams):
                    if b != 0:
                        expr = expr + LinExpr({lam: b})
                lp.add_le(expr - LinExpr({}, d_val))
                impl += 1
    objective = lp.abs_objective(list(coeff.values()) + [const])
    solution = lp.solve(objective=objective, bound=100)
    if solution is None:
        return None
    alpha_expr = LinExpr(
        {v: solution.get(coeff[v], Fraction(0)) for v in subset},
        solution.get(const, Fraction(0)),
    )
    if all(c == 0 for c in alpha_expr.coeffs.values()):
        return None
    if abs(alpha_expr.constant) > 50 or any(
        abs(c) > 50 for c in alpha_expr.coeffs.values()
    ):
        return None  # implausible magnitudes: an LP-bound artefact
    return atom_ge(alpha_expr, 0)
