"""End-to-end incremental re-analysis: warm runs replay every SCC from
the store, edits re-analyze exactly the edited method's dependents, and
a corrupt store degrades to cold analysis with identical answers."""

import pytest

from repro.core import infer_source
from repro.store import SpecStore

DIAMOND = """
int bottom(int n) { if (n <= 0) { return 0; } else { return bottom(n - 1); } }
int left(int n) { return bottom(n); }
int right(int n) { if (n <= 0) { return 0; } else { return right(n - 2); } }
int top(int x, int y) { int a = left(x); int b = right(y); return a + b; }
void foo(int x, int y) { if (x < 0) { return; } else { foo(x + y, y); return; } }
"""

#: Number of call-graph SCCs with bodies in DIAMOND (one per method).
N_SCCS = 5


def _snapshot(result):
    return (
        result.pretty(),
        {m: result.verdict(m) for m in result.specs},
    )


class TestWarmRuns:
    def test_warm_run_replays_every_scc(self, tmp_path):
        store = tmp_path / "store"
        cold = infer_source(DIAMOND, store=str(store))
        assert cold.solver_stats.store_hits == 0
        assert cold.solver_stats.store_misses == N_SCCS
        warm = infer_source(DIAMOND, store=str(store))
        assert warm.solver_stats.store_hits == N_SCCS
        assert warm.solver_stats.store_misses == 0
        assert warm.solver_stats.store_invalidations == 0
        assert _snapshot(warm) == _snapshot(cold)

    def test_store_accepts_open_instance(self, tmp_path):
        store = SpecStore(tmp_path / "store")
        infer_source(DIAMOND, store=store)
        warm = infer_source(DIAMOND, store=store)
        assert warm.solver_stats.store_misses == 0


class TestDeepChains:
    def test_warm_store_on_deep_scc_chain(self, tmp_path):
        """A fully cached run over a ~900-SCC call chain replays every
        SCC from the store and gives the cold run's summaries: neither
        the store-key pass nor the driver loop may nest a stack frame
        per SCC."""
        n = 900
        parts = [f"int f{n}(int x) {{ return 0; }}"]
        for i in range(n - 1, -1, -1):
            parts.append(f"int f{i}(int x) {{ return f{i + 1}(x); }}")
        src = "\n".join(parts)
        store = str(tmp_path / "store")
        cold = infer_source(src, store=store)
        warm = infer_source(src, store=store)
        assert warm.solver_stats.store_misses == 0
        assert warm.solver_stats.store_hits == n + 1
        assert warm.pretty() == cold.pretty()


class TestIncrementalEdits:
    def test_editing_a_leaf_reanalyzes_only_its_dependents(self, tmp_path):
        store = str(tmp_path / "store")
        infer_source(DIAMOND, store=store)
        edited = DIAMOND.replace("bottom(n - 1)", "bottom(n - 2)")
        warm = infer_source(edited, store=store)
        # bottom changed; left and top transitively call it and must
        # re-analyze; right and foo replay from the store.
        assert warm.solver_stats.store_hits == 2
        assert warm.solver_stats.store_misses == 3

    def test_editing_the_root_reanalyzes_only_the_root(self, tmp_path):
        store = str(tmp_path / "store")
        infer_source(DIAMOND, store=store)
        edited = DIAMOND.replace("return a + b;", "return a + b + 1;")
        warm = infer_source(edited, store=store)
        assert warm.solver_stats.store_hits == N_SCCS - 1
        assert warm.solver_stats.store_misses == 1

    def test_edited_program_matches_its_own_cold_run(self, tmp_path):
        store = str(tmp_path / "store")
        infer_source(DIAMOND, store=store)
        edited = DIAMOND.replace("bottom(n - 1)", "bottom(n - 2)")
        incremental = infer_source(edited, store=store)
        from_scratch = infer_source(edited)
        assert _snapshot(incremental) == _snapshot(from_scratch)


class TestCorruptStoreFallback:
    def test_corrupt_entries_fall_back_to_cold_analysis(self, tmp_path):
        root = tmp_path / "store"
        cold = infer_source(DIAMOND, store=str(root))
        for path in (root / "objects").glob("*/*.spec"):
            blob = bytearray(path.read_bytes())
            blob[-1] ^= 0xFF
            path.write_bytes(bytes(blob))
        warm = infer_source(DIAMOND, store=str(root))
        assert warm.solver_stats.store_hits == 0
        assert warm.solver_stats.store_misses == N_SCCS
        assert warm.solver_stats.store_invalidations == N_SCCS
        assert _snapshot(warm) == _snapshot(cold)
        # ... and the rewritten entries serve the next run.
        again = infer_source(DIAMOND, store=str(root))
        assert again.solver_stats.store_hits == N_SCCS
        assert again.solver_stats.store_invalidations == 0
