"""The integer-row Fourier-Motzkin engine against the engine it replaced.

:mod:`fm_reference` is the former engine over interned atoms, verbatim.
The row engine must repeat it step for step: the same satisfiability
answers and FM work units, the same projected atoms (the same objects, in
the same order, and new ones created in the same relative order), the same
``Unsat`` cases and the same models.
"""

import itertools
from fractions import Fraction

import fm_reference as ref
import pytest
from hypothesis import given, settings, strategies as st

from repro.arith import fm
from repro.arith.formula import Atom, BoolConst, Rel, _atom_or_const, _norm_le
from repro.arith.terms import LinExpr, tighten

NAMES = ("a", "b", "c", "d", "e")

#: Distinct suffixes, so a renamed cube's derived atoms are all new.
_FRESH = itertools.count()


# ---------------------------------------------------------------------------
# The tightening rule
# ---------------------------------------------------------------------------


class TestTighten:
    def test_le_divides_variables_and_rounds_constant_up(self):
        assert tighten((2, 4, 3), le=True) == (1, 2, 2)     # ceil(3/2)
        assert tighten((2, 4, -3), le=True) == (1, 2, -1)   # ceil(-3/2)
        assert tighten((-3, 6, -7), le=True) == (-1, 2, -2)  # sign kept

    def test_eq_and_lt_divide_every_entry(self):
        assert tighten((-2, 4, 6), le=False) == (-1, 2, 3)
        assert tighten((2, 4, 3), le=False) == (2, 4, 3)

    def test_unchanged_row_is_returned_itself(self):
        row = (1, -3, 5)
        assert tighten(row, le=True) is row
        assert tighten(row, le=False) is row

    def test_positive_rescale_tightens_alike(self):
        for row, le in (((3, -6, 4), True), ((2, 4, 6), False)):
            assert tighten(tuple(5 * c for c in row), le) == tighten(row, le)

    def test_linexpr_forms_clear_denominators_first(self):
        e = LinExpr({"x": Fraction(2, 3), "y": Fraction(4, 3)}, 1)
        # 2x + 4y + 3 <= 0  ->  x + 2y + 2 <= 0
        assert _norm_le(e) is LinExpr({"x": 1, "y": 2}, 2)
        # == / < keep the sign and the rational meaning
        assert (-e).normalized() is LinExpr({"x": -2, "y": -4}, -3)


# ---------------------------------------------------------------------------
# Differential oracle
# ---------------------------------------------------------------------------


@st.composite
def cubes(draw):
    """1-5 variables, up to 12 atoms built by the smart constructor: LE, LT
    and EQ, negative and non-unit coefficients, parallel and opposite
    copies of earlier atoms, equalities whose pivot has ``|k| > 1``, and
    chains of unit equalities between two variables (the renamings the
    verifier emits, whose pivots come back when a kept equality is
    split)."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=5,
                          unique=True))
    coeff = st.integers(-4, 4)
    rel = st.sampled_from((Rel.LE, Rel.LE, Rel.LT, Rel.EQ))
    exprs = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(
            ("fresh", "fresh", "copy", "wide-eq", "chain-eq")))
        if kind == "copy" and exprs:
            # parallel (k > 0) or opposite (k < 0), shifted
            base, _ = draw(st.sampled_from(exprs))
            k = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
            e = base.scale(k) + draw(st.integers(-6, 6))
            exprs.append((e, draw(rel)))
        elif kind == "chain-eq" and len(names) > 1:
            u, v = draw(st.lists(st.sampled_from(names), min_size=2,
                                 max_size=2, unique=True))
            e = LinExpr({u: draw(st.sampled_from((-1, 1))), v: 1},
                        draw(st.integers(-3, 3)))
            exprs.append((e, Rel.EQ))
        elif kind == "wide-eq":
            big = st.sampled_from((-4, -3, -2, 2, 3, 4))
            e = LinExpr({n: draw(big) for n in names},
                        draw(st.integers(-9, 9)))
            exprs.append((e, Rel.EQ))
        else:
            e = LinExpr({n: draw(coeff) for n in names},
                        draw(st.integers(-9, 9)))
            exprs.append((e, draw(rel)))
    cube = [_atom_or_const(e, r) for e, r in exprs]
    return [a for a in cube if not isinstance(a, BoolConst)]


def _work(engine, fn, *args, **kwargs):
    """``(result or 'unsat', FM work units)`` of one call into *engine*."""
    before = engine.elimination_count()
    try:
        out = fn(*args, **kwargs)
    except fm.Unsat:
        out = "unsat"
    return out, engine.elimination_count() - before


@settings(max_examples=400, deadline=None)
@given(cubes())
def test_cube_is_sat_matches_reference(cube):
    got = _work(fm, fm._cube_is_sat, cube)
    want = _work(ref, ref._cube_is_sat, cube)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(cubes(), st.data())
def test_project_cube_matches_reference(cube, data):
    chosen = data.draw(st.sets(st.sampled_from(NAMES)))
    for kwargs in ({"keep": chosen}, {"eliminate": chosen}):
        got, got_work = _work(fm, fm.project_cube, cube, **kwargs)
        want, want_work = _work(ref, ref.project_cube, cube, **kwargs)
        assert got_work == want_work
        if want == "unsat":
            assert got == "unsat"
        else:
            assert len(got) == len(want)
            assert all(g is w for g, w in zip(got, want))


def _renamed(cube):
    suffix = f"_{next(_FRESH)}"
    mapping = {n: n + suffix for n in NAMES}
    return [a.rename(mapping) for a in cube], mapping


def _creation_order(atoms):
    return sorted(range(len(atoms)), key=lambda i: atoms[i]._uid)


@settings(max_examples=200, deadline=None)
@given(cubes(), st.data())
def test_project_cube_creates_new_atoms_in_reference_order(cube, data):
    """Formula nodes sort by creation, so new result atoms must be created
    in the order the reference created them, although the row engine
    builds no intermediate atom."""
    keep = data.draw(st.sets(st.sampled_from(NAMES)))
    outs = []
    for engine in (fm, ref):
        renamed, mapping = _renamed(cube)
        try:
            outs.append(engine.project_cube(
                renamed, keep={mapping[n] for n in keep}))
        except fm.Unsat:
            outs.append(None)
    got, want = outs
    if want is None:
        assert got is None
    else:
        assert _creation_order(got) == _creation_order(want)


@settings(max_examples=300, deadline=None)
@given(cubes())
def test_cube_model_matches_reference(cube):
    assert fm.cube_model(cube) == ref.cube_model(cube)


# ---------------------------------------------------------------------------
# Fixed cases
# ---------------------------------------------------------------------------


def _eq(coeffs, const):
    return _atom_or_const(LinExpr(coeffs, const), Rel.EQ)


def _le(coeffs, const):
    return _atom_or_const(LinExpr(coeffs, const), Rel.LE)


class TestFixedCases:
    def test_pivot_equality_is_split_not_dropped(self):
        # 2x + 3y - 7 == 0 keeps its pivot x after substitution; the split
        # pair is what bounds x here: x <= 0 and y <= 0 contradict it
        cube = [_eq({"x": 2, "y": 3}, -7), _le({"x": 1}, 0), _le({"y": 1}, 0)]
        assert _work(fm, fm._cube_is_sat, cube) == _work(
            ref, ref._cube_is_sat, cube)
        assert fm._cube_is_sat(cube) is False

    def test_projection_keeps_pivot_equality_without_targets(self):
        cube = [_eq({"x": 2, "y": -2, "z": 3}, -1), _le({"z": 1}, -4)]
        got = fm.project_cube(cube, keep={"x", "y", "z"})
        assert got == ref.project_cube(cube, keep={"x", "y", "z"})
        assert got[0].rel is Rel.EQ

    def test_untouched_input_atoms_are_returned_themselves(self):
        # hand-built, not tightened: passes through as the same object
        raw = Atom(LinExpr({"x": 2, "y": 2}, 1), Rel.LE)
        fractional = Atom(LinExpr({"x": Fraction(1, 2)}, 1), Rel.LE)
        cube = [raw, fractional, _le({"z": 1, "y": -1}, 0)]
        got = fm.project_cube(cube, eliminate={"z"})
        assert got[0] is raw and got[1] is fractional
        assert got == ref.project_cube(cube, eliminate={"z"})

    def test_fractional_hand_built_atoms_are_accepted(self):
        half = Atom(LinExpr({"x": Fraction(1, 2), "y": Fraction(-1, 3)}, 1),
                    Rel.LE)
        cube = [half, _le({"x": -1}, 0), _eq({"y": 3, "x": -3}, 0)]
        assert _work(fm, fm._cube_is_sat, cube) == _work(
            ref, ref._cube_is_sat, cube)
        assert fm.cube_model(cube) == ref.cube_model(cube)

    @pytest.mark.parametrize("low,sat", [(1, True), (3, False)])
    def test_equality_with_non_unit_pivot(self, low, sat):
        # 3x + 2y == 7 (pivot y, coefficient 2) with x >= low and y >= 0
        cube = [_eq({"x": 3, "y": 2}, -7), _le({"x": -1}, low),
                _le({"y": -1}, 0)]
        assert _work(fm, fm._cube_is_sat, cube) == _work(
            ref, ref._cube_is_sat, cube)
        assert fm._cube_is_sat(cube) is sat
        assert fm.cube_model(cube) == ref.cube_model(cube)

    def test_reborn_rows_are_created_where_the_reference_created_them(self):
        """``a - c + 1 <= 0`` is derived when ``b`` is substituted,
        dropped when ``c`` is, and derived again when eliminating ``d``
        combines the split equalities.  The reference's atom died in
        between, so the result atom is created at the second derivation,
        after ``b - c <= 0`` and ``-b + c <= 0``."""
        cube = [_le({"a": 1, "b": -1}, 1), _eq({"b": -1, "d": 1}, 0),
                _eq({"b": -1, "c": 1}, 0)]
        orders = []
        for engine in (fm, ref):
            renamed, mapping = _renamed(cube)
            keep = {mapping[n] for n in "abc"}
            out = engine.project_cube(renamed, keep=keep)
            suffix = mapping["a"][1:]
            orders.append(([str(x).replace(suffix, "") for x in out],
                           _creation_order(out)))
        assert orders[0] == orders[1]
        assert orders[0][1] == [2, 0, 1, 3]
