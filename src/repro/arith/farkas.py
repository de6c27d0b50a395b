"""Farkas'-lemma encodings and a small exact-result LP front end.

Farkas' lemma (affine form): for a satisfiable polyhedron ``A x <= b``,

    (A x <= b)  implies  (g . x <= d)
        iff
    exists lambda >= 0 .  lambda^T A = g  and  lambda^T b <= d

Ranking-function synthesis and abductive condition inference both reduce to
LP feasibility through this lemma (the encodings are *linear* in the Farkas
multipliers and the template coefficients jointly).  LPs are solved with
``scipy.optimize.linprog``; solutions are rationalised with bounded
denominators and **must be re-verified exactly** by the callers through
:func:`repro.arith.solver.entails` -- floating point never enters the
trusted path.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.arith.formula import Atom, Rel
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


def polyhedron_rows(atoms: Iterable[Atom]) -> List[Tuple[Dict[str, Fraction], Fraction]]:
    """Convert a cube into ``A x <= b`` rows ``(coeffs, b)``.

    Equalities contribute two opposing rows.
    """
    rows: List[Tuple[Dict[str, Fraction], Fraction]] = []
    for a in atoms:
        coeffs = a.expr.coeffs
        b = -a.expr.constant
        rows.append((coeffs, b))
        if a.rel is Rel.EQ:
            rows.append(({v: -c for v, c in coeffs.items()}, -b))
    return rows


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


def template(prefix: str, xs: Sequence[str]) -> Tuple[Dict[str, str], str]:
    """Fresh coefficient names for an affine template over *xs*.

    Returns ``(coeff_names, const_name)`` where ``coeff_names[x]`` is the
    LP unknown for the coefficient of ``x``.
    """
    return {x: f"{prefix}.c.{x}" for x in xs}, f"{prefix}.c0"


def instantiate(
    coeff_names: Mapping[str, str],
    const_name: str,
    values: Mapping[str, Fraction],
) -> LinExpr:
    """Build the concrete affine expression from solved template values."""
    coeffs = {
        x: values.get(name, Fraction(0)) for x, name in coeff_names.items()
    }
    return LinExpr(coeffs, values.get(const_name, Fraction(0)))
