"""Tests for :mod:`repro.arith.context`: LRU caches, statistics, and the
push/pop assumption stack with incremental DNF cube reuse."""

import pytest

from repro.arith import context, fm, formula
from repro.arith.context import LRUCache, SolverContext, SolverStats
from repro.arith.formula import (
    DNFLimit, TRUE, atom_eq, atom_ge, atom_le, conj, disj,
)
from repro.arith.solver import clear_caches
from repro.arith.terms import var

x, y, z = var("x"), var("y"), var("z")


class TestLRUCache:
    def test_eviction_order_and_count(self):
        stats = SolverStats()
        c = LRUCache(2, stats)
        c.put("a", 1)
        c.put("b", 2)
        assert c.get("a") == 1  # refresh "a": "b" is now LRU
        c.put("c", 3)
        assert "b" not in c
        assert "a" in c and "c" in c
        assert stats.evictions == 1

    def test_update_does_not_evict(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("a", 10)
        assert len(c) == 2
        assert c.get("a") == 10

    def test_falsy_values_are_hits_and_promoted(self):
        # None/False/0 are legitimate cached values (e.g. a memoised UNSAT
        # verdict): they must come back as hits, not the caller's miss
        # default, and the hit must refresh their LRU position.
        c = LRUCache(2)
        c.put("none", None)
        c.put("zero", 0)
        assert c.get("none", "MISS") is None  # hit: "zero" is now LRU
        c.put("false", False)  # evicts "zero", not the refreshed "none"
        assert "none" in c and "zero" not in c
        assert c.get("false", "MISS") is False
        assert c.get("none", "MISS") is None

    def test_miss_returns_caller_default(self):
        c = LRUCache(2)
        assert c.get("absent") is None
        assert c.get("absent", 42) == 42
        c.put("present", False)
        assert c.get("present", 42) is False


class TestStats:
    def test_hits_and_misses_counted(self):
        ctx = SolverContext()
        f = conj(atom_ge(x, 0), atom_le(x, 5))
        assert ctx.is_sat(f)
        assert ctx.is_sat(f)
        assert ctx.stats.sat_queries == 2
        assert ctx.stats.sat_hits == 1
        assert 0 < ctx.stats.hit_rate <= 0.5

    def test_fm_eliminations_attributed(self):
        ctx = SolverContext()
        f = conj(atom_ge(x, 0), atom_le(x + y, 3), atom_ge(y, 1))
        ctx.is_sat(f)
        assert ctx.stats.fm_eliminations > 0
        before = ctx.stats.fm_eliminations
        ctx.is_sat(f)  # cache hit: no new FM work
        assert ctx.stats.fm_eliminations == before

    def test_shared_stats_across_contexts(self):
        stats = SolverStats()
        a = SolverContext(stats=stats)
        b = SolverContext(stats=stats)
        a.is_sat(atom_ge(x, 0))
        b.is_sat(atom_ge(y, 0))
        assert stats.sat_queries == 2

    def test_clear_caches_resets_fm_memo(self, ctx):
        ctx.is_sat(conj(atom_ge(x, 0), atom_le(x + y, 1), atom_ge(y, 0)))
        assert fm.fm_cache_stats()["size"] > 0
        clear_caches()
        assert fm.fm_cache_stats()["size"] == 0
        assert fm.fm_cache_stats()["eliminations"] == 0

    def test_small_cache_evicts_but_stays_correct(self, monkeypatch):
        monkeypatch.setattr(context, "CACHE_SIZE", 4)
        ctx = SolverContext()
        formulas = [conj(atom_ge(x, i), atom_le(x, i + 1)) for i in range(10)]
        first = [ctx.is_sat(f) for f in formulas]
        second = [ctx.is_sat(f) for f in formulas]
        assert first == second == [True] * 10
        assert ctx.stats.evictions > 0


class TestAssumptionStack:
    def test_assumptions_constrain_queries(self):
        ctx = SolverContext()
        assert ctx.is_sat(atom_ge(x, 5))
        with ctx.assuming(atom_le(x, 0)):
            assert not ctx.is_sat(atom_ge(x, 5))
            assert ctx.is_sat(atom_le(x, -1))
        assert ctx.is_sat(atom_ge(x, 5))  # popped: unconstrained again

    def test_nested_frames(self):
        ctx = SolverContext()
        ctx.push()
        ctx.assume(atom_ge(x, 0))
        ctx.push()
        ctx.assume(atom_le(x, -1))
        assert not ctx.is_sat(TRUE)
        ctx.pop()
        assert ctx.is_sat(TRUE)
        assert ctx.is_sat(atom_ge(x, 3))
        ctx.pop()
        assert ctx.assumption_depth == 0

    def test_pop_base_frame_rejected(self):
        ctx = SolverContext()
        with pytest.raises(IndexError):
            ctx.pop()

    def test_base_frame_assumptions_honoured(self):
        """assume() without push() constrains queries too."""
        ctx = SolverContext()
        ctx.assume(atom_le(x, 0))
        assert not ctx.is_sat(atom_ge(x, 1))
        assert ctx.is_sat(atom_le(x, -2))

    def test_entails_under_assumptions(self):
        ctx = SolverContext()
        with ctx.assuming(atom_ge(x, 10)):
            assert ctx.entails(TRUE, atom_ge(x, 5))
            assert not ctx.entails(TRUE, atom_ge(x, 11))

    def test_disjunctive_assumption_cubes(self):
        ctx = SolverContext()
        with ctx.assuming(disj(atom_eq(x, 1), atom_eq(x, 2))):
            assert ctx.is_sat(atom_eq(x, 2))
            assert not ctx.is_sat(atom_eq(x, 3))
            assert ctx.entails(TRUE, conj(atom_ge(x, 1), atom_le(x, 2)))

    def test_incremental_cube_reuse(self):
        """Pushing an assumption converts its DNF once; subsequent queries
        against the frame reuse the cached cubes."""
        ctx = SolverContext()
        big = disj(
            conj(atom_ge(x, 0), atom_le(y, 0)),
            conj(atom_le(x, -1), atom_ge(y, 1)),
        )
        with ctx.assuming(big):
            ctx.is_sat(atom_eq(z, 1))
            frame = ctx._frames[-1]
            cubes_first = frame.cubes
            assert cubes_first is not None
            ctx.is_sat(atom_eq(z, 2))
            assert frame.cubes is cubes_first  # not recomputed

    def test_simplify_ignores_assumptions(self):
        ctx = SolverContext()
        f = conj(atom_ge(x, 0), atom_le(x, 5))
        with ctx.assuming(atom_eq(x, 3)):
            simplified = ctx.simplify(f)
        # must stay equivalent to f absolutely, not merely under x == 3
        assert ctx.equivalent(simplified, f)


class TestFMRouting:
    def test_cube_work_goes_through_fm_module_attributes(self, monkeypatch):
        # Instrumentation wraps repro.arith.fm's functions by attribute;
        # the context must look them up at call time, not bind them early.
        calls = []
        for name in ("cube_is_sat", "project_cube", "cube_model"):
            real = getattr(fm, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(fm, name, spy)
        ctx = SolverContext()
        f = conj(atom_ge(x, 0), atom_le(x, y))
        assert ctx.is_sat(f)
        assert ctx.project(f, keep={"y"}) is not None
        assert ctx.model(f) is not None
        assert {"cube_is_sat", "project_cube", "cube_model"} <= set(calls)


class TestDNFLimit:
    def test_out_of_memory_is_not_read_as_a_cap_hit(self, ctx, monkeypatch):
        """Only the cube cap degrades a query to "satisfiable"; a real
        ``MemoryError`` from the decision procedure propagates."""
        def out_of_memory(atoms):
            raise MemoryError("out of memory")

        monkeypatch.setattr(fm, "cube_is_sat", out_of_memory)
        with pytest.raises(MemoryError) as info:
            ctx.is_sat(conj(atom_ge(x, 0), atom_le(x, y)))
        assert not isinstance(info.value, DNFLimit)

    def test_cap_hit_degrades_to_satisfiable(self, ctx, monkeypatch):
        wide = conj(*(disj(atom_le(var(f"w{i}"), 0), atom_ge(var(f"w{i}"), 5))
                      for i in range(11)))  # 2048 cubes
        monkeypatch.setattr(formula, "DNF_LIMIT", 1000)
        clear_caches()
        with pytest.raises(DNFLimit):
            formula.nnf_tree(wide)
        assert ctx.is_sat(conj(wide, atom_le(x, -1), atom_ge(x, 1)))
