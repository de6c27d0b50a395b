"""The refutation in front of Fourier-Motzkin: the per-atom bounds pre-pass
in :func:`repro.arith.fm.cube_is_sat` and the pruned cube enumeration of
:func:`repro.arith.context.any_cube_sat`.

Both may only ever save work: every answer, and every cap hit, must be the
one the eager path (full DNF expansion, FM on every cube) gives.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.arith import fm, formula
from repro.arith.context import SolverContext, any_cube_sat
from repro.arith.formula import (
    Atom,
    Rel,
    atom_eq,
    atom_ge,
    atom_le,
    atom_lt,
    clear_dnf_cache,
    conj,
    disj,
    exists,
    neg,
    to_dnf,
    to_nnf,
)
from repro.arith.solver import clear_caches
from repro.arith.terms import LinExpr, var

x, y = var("x"), var("y")

VARS = ("x", "y", "z")
#: Few primitive directions, so random atoms are often parallel or opposite.
DIRECTIONS = ({"x": 1}, {"y": 1}, {"x": 1, "y": -2}, {"x": 2, "z": 3})


# ---------------------------------------------------------------------------
# Atom.bound
# ---------------------------------------------------------------------------


class TestAtomBound:
    def test_upper_bound_on_primitive_direction(self):
        # 2x - 4y + 3 <= 0  <=>  x - 2y <= -3/2
        b = Atom(LinExpr({"x": 2, "y": -4}, 3), Rel.LE).bound
        assert b == (LinExpr({"x": 1, "y": -2}), Fraction(-3, 2), False,
                     True, False)

    def test_negative_leading_coefficient_gives_lower_bound(self):
        # -2x + 4y + 3 <= 0  <=>  x - 2y >= 3/2
        b = Atom(LinExpr({"x": -2, "y": 4}, 3), Rel.LE).bound
        direction, value, strict, upper, lower = b
        assert direction is LinExpr({"x": 1, "y": -2})
        assert (value, strict, upper, lower) == (Fraction(3, 2), False,
                                                 False, True)

    def test_rational_coefficients_and_integral_value(self):
        # x/2 - 3 < 0  <=>  x < 6, kept as an int
        b = Atom(LinExpr({"x": Fraction(1, 2)}, -3), Rel.LT).bound
        assert b == (LinExpr({"x": 1}), 6, True, True, False)
        assert type(b[1]) is int

    def test_equality_bounds_both_sides(self):
        b = Atom(LinExpr({"y": 3}, -6), Rel.EQ).bound
        assert b == (LinExpr({"y": 1}), 2, False, True, True)

    def test_constant_atom_has_no_bound(self):
        assert Atom(LinExpr({}, 1), Rel.LE).bound is None

    def test_computed_once(self):
        a = Atom(LinExpr({"x": 5, "y": 5}, 1), Rel.LE)
        assert a.bound is a.bound


# ---------------------------------------------------------------------------
# Bounds pre-pass
# ---------------------------------------------------------------------------


def _atom(coeffs, const, rel):
    return Atom(LinExpr(coeffs, const), rel)


class TestBoundsRefute:
    def test_opposite_bounds_refute(self):
        assert fm.bounds_refute([atom_ge(x, 1), atom_le(x, 0)])

    def test_parallel_scaled_atoms_refute(self):
        # 2x - 4y <= -2 and x - 2y >= 0
        assert fm.bounds_refute([
            _atom({"x": 2, "y": -4}, 2, Rel.LE),
            _atom({"x": -1, "y": 2}, 0, Rel.LE),
        ])

    def test_touching_bounds_refute_only_when_strict(self):
        le = _atom({"x": 1}, -3, Rel.LE)   # x <= 3
        ge = _atom({"x": -1}, 3, Rel.LE)   # x >= 3
        lt = _atom({"x": 1}, -3, Rel.LT)   # x < 3
        assert not fm.bounds_refute([le, ge])
        assert fm.bounds_refute([lt, ge])

    def test_equality_against_bound(self):
        assert fm.bounds_refute([atom_eq(x + y, 4), atom_le(x + y, 3)])
        assert not fm.bounds_refute([atom_eq(x + y, 4), atom_le(x + y, 4)])

    def test_never_refutes_unrelated_directions(self):
        # UNSAT, but only by combining x, y and x + y: left to FM
        cube = [atom_ge(x, 1), atom_ge(y, 1), atom_le(x + y, 1)]
        assert not fm.bounds_refute(cube)
        assert not fm.cube_is_sat(cube)

    def test_refuted_cube_skips_cache_and_fm(self, monkeypatch):
        fm.clear_fm_caches()
        assert fm.fm_cache_stats()["bounds_unsat"] == 0
        calls = []
        real = fm._cube_is_sat
        monkeypatch.setattr(fm, "_cube_is_sat",
                            lambda atoms: calls.append(atoms) or real(atoms))
        assert not fm.cube_is_sat([atom_ge(x, 1), atom_le(x, 0)])
        assert calls == []
        stats = fm.fm_cache_stats()
        assert stats["bounds_unsat"] == 1 and stats["size"] == 0
        assert fm.cube_is_sat([atom_ge(x, 1)])
        assert len(calls) == 1
        fm.clear_fm_caches()
        assert fm.fm_cache_stats()["bounds_unsat"] == 0


@st.composite
def mixed_atoms(draw):
    """An atom on one of :data:`DIRECTIONS`, scaled by a random nonzero
    rational (so parallel and opposite atoms are common), with a rational
    constant and any relation."""
    base = draw(st.sampled_from(DIRECTIONS))
    scale = draw(st.fractions(min_value=-3, max_value=3,
                              max_denominator=4).filter(bool))
    const = draw(st.fractions(min_value=-6, max_value=6, max_denominator=3))
    rel = draw(st.sampled_from([Rel.LE, Rel.LE, Rel.LT, Rel.EQ]))
    return Atom(LinExpr({n: c * scale for n, c in base.items()}, const), rel)


@settings(max_examples=400, deadline=None)
@given(st.lists(mixed_atoms(), min_size=1, max_size=8))
def test_prepass_agrees_with_fm(cube):
    assert fm.cube_is_sat(cube) == fm._cube_is_sat(cube)
    if fm.bounds_refute(cube):
        assert not fm._cube_is_sat(cube)


# ---------------------------------------------------------------------------
# Pruned enumeration
# ---------------------------------------------------------------------------


@st.composite
def small_atoms(draw):
    coeffs = {v: draw(st.integers(min_value=-2, max_value=2)) for v in VARS}
    constant = draw(st.integers(min_value=-3, max_value=3))
    builder = draw(st.sampled_from([atom_le, atom_lt, atom_eq, atom_ge]))
    return builder(LinExpr(coeffs, constant), 0)


@st.composite
def trees(draw, depth=3):
    """Quantifier-free And/Or/Not trees over :func:`small_atoms`."""
    if depth == 0:
        return draw(small_atoms())
    choice = draw(st.integers(min_value=0, max_value=4))
    if choice == 0:
        return draw(small_atoms())
    if choice == 4:
        return neg(draw(trees(depth=depth - 1)))
    parts = draw(st.lists(trees(depth=depth - 1), min_size=2, max_size=3))
    return conj(*parts) if choice in (1, 2) else disj(*parts)


def _eager(p, prefixes=((),)):
    """The expansion :func:`any_cube_sat` replaces, with its leaf trace."""
    leaves = []

    def sat(cube):
        leaves.append(list(cube))
        return fm.cube_is_sat(cube)

    cubes = to_dnf(p)
    for pre in prefixes:
        if pre and not sat(pre):
            continue
        if any(sat(list(pre) + c) for c in cubes):
            return True, leaves
    return False, leaves


def _lazy(monkeypatch, p, prefixes=((),)):
    leaves = []
    real = fm.cube_is_sat

    def sat(cube):
        leaves.append(list(cube))
        return real(cube)

    monkeypatch.setattr(fm, "cube_is_sat", sat)
    try:
        return any_cube_sat(p, prefixes), leaves
    finally:
        monkeypatch.setattr(fm, "cube_is_sat", real)


def _assert_same_leaves(eager, lazy):
    """The lazy leaves are the eager ones, in order, minus leaves whose
    opposite bounds contradict (pruned with their subtree)."""
    pending = iter(lazy)
    nxt = next(pending, None)
    for leaf in eager:
        if leaf == nxt:
            nxt = next(pending, None)
        else:
            assert fm.bounds_refute(leaf), f"unpruned leaf skipped: {leaf}"
    assert nxt is None, "lazy path visited a leaf the eager path never did"


def _pin_nnf(p):
    """Clear both DNF memos and return ``to_nnf(p)``.  While the caller
    holds it, every conversion of *p* rebuilds this very NNF: conjunct
    order follows interning order, so an NNF node that died and was
    rebuilt between the two paths could reorder the cubes."""
    clear_dnf_cache()
    return to_nnf(p)


@settings(max_examples=300, deadline=None)
@given(trees())
def test_lazy_enumeration_equals_eager(p):
    nnf = _pin_nnf(p)  # noqa: F841  (held for the test's duration)
    with pytest.MonkeyPatch.context() as mp:
        lazy, lazy_leaves = _lazy(mp, p)
    eager, eager_leaves = _eager(p)
    assert lazy == eager == any(fm.cube_is_sat(c) for c in to_dnf(p))
    _assert_same_leaves(eager_leaves, lazy_leaves)


@settings(max_examples=150, deadline=None)
@given(trees(depth=2), trees(depth=2))
def test_lazy_enumeration_with_prefixes_equals_eager(assumption, p):
    prefixes = [tuple(c) for c in to_dnf(assumption)]
    nnf = _pin_nnf(p)  # noqa: F841
    with pytest.MonkeyPatch.context() as mp:
        lazy, lazy_leaves = _lazy(mp, p, prefixes)
    eager, eager_leaves = _eager(p, prefixes)
    assert lazy == eager
    _assert_same_leaves(eager_leaves, lazy_leaves)


@settings(max_examples=200, deadline=None)
@given(trees(), st.integers(min_value=1, max_value=6))
def test_lazy_cap_matches_to_dnf(p, cap):
    """With the cube cap lowered to *cap*, the lazy path and ``to_dnf``
    raise exactly where the materialising conversion ``_dnf`` does (small
    caps make the cap bite on small trees).  ``to_dnf`` counts first with
    the lazy path's replay, so ``_dnf`` is the independent oracle."""
    raises = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formula, "DNF_LIMIT", cap)
        for convert in (lambda p: formula._dnf(to_nnf(p)), to_dnf,
                        any_cube_sat):
            clear_dnf_cache()
            try:
                convert(p)
                raises.append(False)
            except MemoryError:
                raises.append(True)
    clear_dnf_cache()
    assert raises[1] == raises[2] == raises[0]


@pytest.mark.parametrize("k", [15, 16])
def test_real_cap_matches_to_dnf(k):
    """At the real cap, 2^15 cubes convert and 2^16 raise, on both paths.
    The leading contradiction prunes the whole walk, so only the cap
    replay does any work on the lazy side."""
    wide = conj(*(disj(atom_le(var(f"v{i}"), 0), atom_ge(var(f"v{i}"), 5))
                  for i in range(k)))
    p = conj(atom_ge(x, 1), atom_le(x, 0), wide)
    raises = []
    for convert in (to_dnf, any_cube_sat):
        clear_dnf_cache()
        try:
            convert(p)
            raises.append(False)
        except MemoryError:
            raises.append(True)
    clear_dnf_cache()
    assert raises == [2 ** k > formula.DNF_LIMIT] * 2


def test_quantified_formula_is_expanded_by_to_dnf(monkeypatch):
    from repro.arith import context

    converted = []
    monkeypatch.setattr(
        context, "to_dnf", lambda p, *a: converted.append(p) or to_dnf(p, *a)
    )
    t = var("t")
    q = exists(["t"], conj(atom_eq(x, t + 1), atom_ge(t, 3)))
    assert not any_cube_sat(conj(q, atom_le(x, 3)))
    assert any_cube_sat(conj(q, atom_le(x, 4)))
    assert len(converted) == 2
    assert any_cube_sat(atom_le(x, 4)) and len(converted) == 2


def test_pruned_subtree_is_never_enumerated(monkeypatch):
    """``x >= 1 & x <= 0`` under a wide disjunction: every leaf carries the
    contradiction, so no leaf reaches ``fm.cube_is_sat``."""
    wide = conj(*(disj(atom_le(var(f"v{i}"), 0), atom_ge(var(f"v{i}"), 5))
                  for i in range(8)))
    p = conj(atom_ge(x, 1), atom_le(x, 0), wide)
    assert len(to_dnf(p)) == 256
    calls = []
    real = fm.cube_is_sat
    monkeypatch.setattr(fm, "cube_is_sat",
                        lambda cube: calls.append(cube) or real(cube))
    assert not any_cube_sat(p)
    assert calls == []


class TestContextSites:
    def setup_method(self):
        clear_caches()

    def test_sat_with_assumptions(self):
        ctx = SolverContext()
        with ctx.assuming(disj(atom_le(x, 0), atom_ge(x, 10))):
            assert ctx.is_sat(atom_ge(x, 5))
            assert not ctx.is_sat(conj(atom_ge(x, 1), atom_le(x, 9)))

    def test_entails_plain(self):
        ctx = SolverContext()
        assert ctx._entails_plain(atom_ge(x, 2), atom_ge(x, 1))
        assert not ctx._entails_plain(atom_ge(x, 1), atom_ge(x, 2))

    def test_dnf_cap_degrades_to_sat(self):
        # 2^17 cubes: beyond the cap, so is_sat answers its conservative
        # True without enumerating anything
        wide = conj(*(disj(atom_le(var(f"v{i}"), 0), atom_ge(var(f"v{i}"), 5))
                      for i in range(17)))
        ctx = SolverContext()
        assert ctx.is_sat(conj(atom_ge(x, 1), atom_le(x, 0), wide))
