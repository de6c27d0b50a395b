"""Property and unit tests for case-splitting (paper Sec. 5.6)."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.arith.formula import FALSE, TRUE, atom_ge, atom_le, conj, disj, neg
from repro.arith.context import SolverContext
from repro.arith.terms import LinExpr, var
from repro.core.casesplit import split, subst_unk
from repro.core.specs import DefStore

x, y = var("x"), var("y")


@st.composite
def conditions(draw):
    coeff_x = draw(st.integers(min_value=-2, max_value=2))
    coeff_y = draw(st.integers(min_value=-2, max_value=2))
    const = draw(st.integers(min_value=-3, max_value=3))
    return atom_ge(LinExpr({"x": coeff_x, "y": coeff_y}, const), 0)


class TestSplitUnit:
    def test_empty(self, ctx):
        assert split([], ctx) == []

    def test_single_condition(self, ctx):
        (r,) = split([atom_ge(x, 0)], ctx)
        assert ctx.equivalent(r, atom_ge(x, 0))

    def test_overlapping_pair_partitions(self, ctx):
        a, b = atom_ge(x, 0), atom_le(x, 5)
        regions = split([a, b], ctx)
        # pairwise exclusive
        for r1, r2 in itertools.combinations(regions, 2):
            assert not ctx.is_sat(conj(r1, r2))
        # cover the union exactly
        assert ctx.equivalent(disj(*regions), disj(a, b))

    def test_disjoint_pair(self, ctx):
        a, b = atom_ge(x, 5), atom_le(x, -5)
        regions = split([a, b], ctx)
        assert ctx.equivalent(disj(*regions), disj(a, b))


class TestSplitProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(conditions(), min_size=1, max_size=3))
    def test_split_is_exclusive_partition_of_union(self, conds):
        ctx = SolverContext()
        regions = split(conds, ctx)
        union = disj(*conds)
        if not ctx.is_sat(union):
            assert regions == []
            return
        # feasibility
        for r in regions:
            assert ctx.is_sat(r)
        # exclusivity
        for r1, r2 in itertools.combinations(regions, 2):
            assert not ctx.is_sat(conj(r1, r2))
        # exact coverage
        assert ctx.equivalent(disj(*regions), union)


class TestSubstUnk:
    def _store(self):
        store = DefStore()
        store.register_root("U0@f", ("x", "y"))
        return store

    def test_refinement_guards_partition_true(self, ctx):
        """Paper Definition 2: feasible, exclusive, exhaustive guards."""
        store = self._store()
        assert subst_unk(store, "U0@f", [atom_ge(x, 0)], ctx)
        cases = store.defs["U0@f"].cases
        guards = [c.guard for c in cases]
        for g in guards:
            assert ctx.is_sat(g)
        for g1, g2 in itertools.combinations(guards, 2):
            assert not ctx.is_sat(conj(g1, g2))
        assert ctx.is_valid(disj(*guards))

    def test_children_registered(self, ctx):
        store = self._store()
        subst_unk(store, "U0@f", [atom_ge(x, 0)], ctx)
        for c in store.defs["U0@f"].cases:
            assert isinstance(c.pre, str)
            assert store.pair_args[c.pre] == ("x", "y")

    def test_no_split_on_empty(self, ctx):
        store = self._store()
        assert not subst_unk(store, "U0@f", [], ctx)
        assert "U0@f" not in store.defs

    def test_no_split_when_condition_is_valid(self, ctx):
        store = self._store()
        # a tautological condition covers everything: complement empty,
        # single region -> no progress
        taut = disj(atom_ge(x, 0), atom_le(x, 0))
        assert not subst_unk(store, "U0@f", [taut], ctx)

    def test_dead_unsat_condition_skipped(self, ctx):
        """An unsatisfiable abduced condition must not trigger a split:
        installing it would burn a MAX_ITER slot on a no-op restart."""
        store = self._store()
        dead = conj(atom_ge(x, 1), atom_le(x, 0))
        assert not ctx.is_sat(dead)
        assert not subst_unk(store, "U0@f", [dead], ctx)
        assert "U0@f" not in store.defs

    def test_dead_condition_mixed_with_live_one(self, ctx):
        """Dead conditions are dropped, live ones still split."""
        store = self._store()
        dead = conj(atom_ge(x, 1), atom_le(x, 0))
        live = atom_ge(x, 0)
        assert subst_unk(store, "U0@f", [dead, live], ctx)
        guards = [c.guard for c in store.defs["U0@f"].cases]
        # the split is exactly the live condition's partition
        assert len(guards) == 2
        for g in guards:
            assert ctx.is_sat(g)
        assert ctx.is_valid(disj(*guards))


class TestExclusivePartition:
    def test_overlapping_dnf(self, ctx):
        from repro.core.basecase import exclusive_partition

        f = disj(atom_ge(x, 0), atom_ge(y, 0))
        parts = exclusive_partition(f, ctx)
        for p1, p2 in itertools.combinations(parts, 2):
            assert not ctx.is_sat(conj(p1, p2))
        assert ctx.equivalent(disj(*parts), f)

    def test_false_formula(self, ctx):
        from repro.core.basecase import exclusive_partition

        assert exclusive_partition(FALSE, ctx) == []
