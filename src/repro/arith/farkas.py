"""Farkas'-lemma encodings and a small exact-result LP front end.

Farkas' lemma (affine form): for a satisfiable polyhedron ``A x <= b``,

    (A x <= b)  implies  (g . x <= d)
        iff
    exists lambda >= 0 .  lambda^T A = g  and  lambda^T b <= d

Ranking-function synthesis and abductive condition inference both reduce to
LP feasibility through this lemma (the encodings are *linear* in the Farkas
multipliers and the template coefficients jointly).  :func:`add_implication`
is the one place that writes the encoding.

LPs go straight to the HiGHS solver bundled with scipy
(``scipy.optimize._highspy._core``): the rows become one compressed sparse
column matrix, solved with exactly the options of
``scipy.optimize.linprog(method="highs")`` and accepted by exactly its
success rule, so every answer is the one ``linprog`` would give -- without
its input cleaning, dense stacking and per-option checks, which cost more
than the solve itself.  Solutions are rationalised with bounded
denominators and **must be re-verified exactly** by the callers through
:meth:`repro.arith.context.SolverContext.entails` -- floating point
never enters the trusted path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

try:
    # The public package first: when the dotted private path was the
    # first scipy import, scipy's Cython modules imported about 2x slower
    # (0.1 s more start-up; scipy 1.17.1, CPython 3.11).
    import scipy.optimize  # noqa: F401
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:  # pragma: no cover - depends on the installed scipy
    raise ImportError(
        "repro.arith.farkas needs scipy>=1.15,<1.18: it calls the HiGHS "
        "bindings scipy bundles as scipy.optimize._highspy._core"
    ) from exc

from repro.arith.formula import Atom, Rel
from repro.arith.terms import Coeff, LinExpr

#: A row over LP unknowns: ``({unknown: coefficient}, constant)``, meaning
#: ``sum coefficient*unknown + constant``; zero coefficients are never stored.
Row = Tuple[Dict[str, Coeff], Coeff]

#: An affine form over LP unknowns, ``({unknown: coefficient}, constant)``.
Affine = Tuple[Mapping[str, Coeff], Coeff]


def _linprog_options() -> "_highs.HighsOptions":
    """The options ``linprog(method="highs")`` passes to HiGHS."""
    options = _highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = (
        _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    )
    options.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    return options


#: Shared by every solve and never written after import: ``passOptions``
#: copies it into the solver instance, so concurrent solves stay independent.
_OPTIONS = _linprog_options()

#: ``linprog``'s feasibility tolerance for an optimal answer (its
#: ``_check_result``: ``sqrt(tol) * 10`` with the default ``tol = 1e-9``),
#: applied to the bounds, the ``<=`` slacks and the equality residuals.
_FEASIBILITY_TOL = math.sqrt(1e-9) * 10

_OPTIMAL = _highs.HighsModelStatus.kOptimal
_ERROR = _highs.HighsStatus.kError


class LPProblem:
    """A tiny LP builder over named unknowns with exact-input rows.

    ``add_le(coeffs, c)`` asserts ``sum coeffs[v]*v + c <= 0`` and
    ``add_eq(coeffs, c)`` asserts ``sum coeffs[v]*v + c == 0``.  Columns
    are numbered in registration order: each row registers its new
    unknowns in sorted order.
    """

    def __init__(self) -> None:
        self._le_rows: List[Row] = []
        self._eq_rows: List[Row] = []
        self._nonneg: set = set()
        self._vars: List[str] = []
        self._var_set: set = set()

    def _add(self, rows: List[Row], coeffs: Mapping[str, Coeff], constant: Coeff) -> None:
        row = {v: c for v, c in coeffs.items() if c}
        for v in sorted(row):
            if v not in self._var_set:
                self._var_set.add(v)
                self._vars.append(v)
        rows.append((row, constant))

    def add_le(self, coeffs: Mapping[str, Coeff], constant: Coeff = 0) -> None:
        self._add(self._le_rows, coeffs, constant)

    def add_eq(self, coeffs: Mapping[str, Coeff], constant: Coeff = 0) -> None:
        self._add(self._eq_rows, coeffs, constant)

    def set_nonneg(self, name: str) -> None:
        if name not in self._var_set:
            self._var_set.add(name)
            self._vars.append(name)
        self._nonneg.add(name)

    def abs_objective(self, names: Sequence[str]) -> Dict[str, Coeff]:
        """Build an objective minimising ``sum |names|`` by introducing
        ``t_i >= name_i`` and ``t_i >= -name_i`` slack variables."""
        terms = {}
        for name in names:
            t = f"{name}.abs"
            self.set_nonneg(t)
            self.add_le({name: 1, t: -1})
            self.add_le({name: -1, t: -1})
            terms[t] = 1
        return terms

    @property
    def variables(self) -> List[str]:
        return list(self._vars)

    def solve(
        self,
        objective: Optional[Mapping[str, Coeff]] = None,
        bound: int = 1000,
        denominators: Sequence[int] = (1, 2, 3, 4, 6, 8, 12, 24, 60, 120),
    ) -> Optional[Dict[str, Fraction]]:
        """Feasibility / optimisation; returns rationalised values.

        HiGHS solves the LP with every unknown boxed to ``[-bound, bound]``
        (``[0, bound]`` if non-negative), as ``linprog(method="highs")``
        would: same options, same success rule (:meth:`optimum`).  The
        caller must verify the returned assignment exactly; this method
        only guarantees that the floats HiGHS produced were rationalised
        with small denominators.
        """
        names = self._vars
        if not names:
            return {}
        x = self.optimum(objective, bound)
        if x is None:
            return None
        exact = [Fraction(v) for v in x]
        for den in denominators:
            out = {
                name: f.limit_denominator(den) for name, f in zip(names, exact)
            }
            if self._check_exact(out):
                return out
        # final fallback: generous rationalisation (caller re-verifies)
        return {name: f.limit_denominator(10**6) for name, f in zip(names, exact)}

    def optimum(
        self, objective: Optional[Mapping[str, Coeff]] = None, bound: int = 1000
    ) -> Optional[List[float]]:
        """HiGHS's solution vector in column order, or ``None`` where
        ``linprog(method="highs")`` reports failure: the model status is
        not optimal, or the solution misses a bound, a ``<=`` row or an
        equality row by more than ``linprog``'s tolerance."""
        names = self._vars
        n = len(names)
        column = {name: j for j, name in enumerate(names)}
        rows = self._le_rows + self._eq_rows
        entries: List[List[Tuple[int, float]]] = [[] for _ in names]
        for i, (coeffs, _c) in enumerate(rows):
            for v, c in coeffs.items():
                entries[column[v]].append((i, float(c)))
        start = [0]
        index: List[int] = []
        value: List[float] = []
        for col in entries:
            for i, c in col:
                index.append(i)
                value.append(c)
            start.append(len(index))
        rhs = [-float(c) for _coeffs, c in rows]
        n_le = len(self._le_rows)
        cost = [0.0] * n
        if objective is not None:
            for v, k in objective.items():
                j = column.get(v)
                if j is not None:
                    cost[j] = float(k)
        hi = float(bound)
        lower = [0.0 if name in self._nonneg else -hi for name in names]
        upper = [hi] * n

        lp = _highs.HighsLp()
        lp.num_col_ = n
        lp.num_row_ = len(rows)
        lp.a_matrix_.num_col_ = n
        lp.a_matrix_.num_row_ = len(rows)
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = start
        lp.a_matrix_.index_ = index
        lp.a_matrix_.value_ = value
        lp.col_cost_ = cost
        lp.col_lower_ = lower
        lp.col_upper_ = upper
        lp.row_lower_ = [-_highs.kHighsInf] * n_le + rhs[n_le:]
        lp.row_upper_ = rhs
        highs = _highs._Highs()
        if (
            highs.passOptions(_OPTIONS) == _ERROR
            or highs.passModel(lp) == _ERROR
            or highs.run() == _ERROR
            or highs.getModelStatus() != _OPTIMAL
        ):
            return None
        if math.isnan(highs.getInfo().objective_function_value):
            return None
        solution = highs.getSolution()
        x = solution.col_value
        tol = _FEASIBILITY_TOL
        # Each test is written so that NaN fails it, as NaN fails linprog's.
        for v, lo, up in zip(x, lower, upper):
            if not (lo - tol <= v <= up + tol):
                return None
        for i, (b, r) in enumerate(zip(rhs, solution.row_value)):
            residual = b - r
            if not (residual >= -tol if i < n_le else abs(residual) <= tol):
                return None
        return x

    def _check_exact(self, values: Mapping[str, Fraction]) -> bool:
        for coeffs, const in self._eq_rows:
            if const + sum(c * values[v] for v, c in coeffs.items()) != 0:
                return False
        for coeffs, const in self._le_rows:
            if const + sum(c * values[v] for v, c in coeffs.items()) > 0:
                return False
        for name in self._nonneg:
            if values[name] < 0:
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
    target_coeffs: Mapping[str, Affine],
    target_const: Affine,
    prefix: str,
) -> None:
    """Encode ``cube  =>  (sum target_coeffs[x]*x) <= target_const``.

    ``target_coeffs``/``target_const`` are affine forms over LP unknowns
    (template coefficients); a target coefficient of a variable that is
    neither in *xs* nor in *cube* is ignored.  Fresh multipliers named
    ``{prefix}.k`` are introduced; callers must keep prefixes unique per
    implication.  The caller is responsible for checking that *cube* is
    satisfiable (Farkas' affine form needs a nonempty polyhedron).
    """
    rows = polyhedron_rows(cube)
    lams = [f"{prefix}.{k}" for k in range(len(rows))]
    for name in lams:
        lp.set_nonneg(name)
    # One pass over the rows: column x of A becomes the multiplier part of
    # the LP row for dimension x, and b the multiplier part of the bound row.
    dims: Dict[str, Dict[str, Coeff]] = {x: {} for x in xs}
    bound: Dict[str, Coeff] = {}
    for (coeffs, b), lam in zip(rows, lams):
        for x, c in coeffs.items():
            dims.setdefault(x, {})[lam] = c
        if b:
            bound[lam] = b
    # for every program dimension x: sum_k lam_k * A[k][x] - g[x] = 0
    for x in sorted(dims):
        row = dims[x]
        const: Coeff = 0
        g = target_coeffs.get(x)
        if g is not None:
            _subtract(row, g[0])
            const = -g[1]
        lp.add_eq(row, const)
    # lambda^T b - d <= 0
    _subtract(bound, target_const[0])
    lp.add_le(bound, -target_const[1])


def _subtract(row: Dict[str, Coeff], coeffs: Mapping[str, Coeff]) -> None:
    for name, c in coeffs.items():
        row[name] = row.get(name, 0) - c


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
