"""Parallel wave-scheduler tests: ``infer_program(jobs=2)`` must
reproduce jobs=1 exactly.

The diamond condensation (top -> {left, right} -> base) is the smallest
shape with a genuinely parallel wave: the two middle SCCs are mutually
independent.  The fixture gives every method disjoint variable names so
the two branches share no FM cubes -- then even the raw FM-elimination
count is identical between sequential and parallel runs (with shared
cubes, cross-SCC cache warmth legitimately differs between process
layouts; the deterministic per-context counters are equal either way).
"""

import pytest

from repro.bench.runner import _cold_start
from repro.core.pipeline import infer_program
from repro.core.scheduler import resolve_jobs
from repro.lang import parse_program

DIAMOND = """
int base(int n)
{ if (n <= 0) { return 0; } else { return base(n - 1); } }

int lgcd(int a, int b)
  requires a > 0 && b > 0 ensures res > 0;
{
  if (a == b) { return a; }
  else { if (a > b) { return lgcd(a - b, b); }
         else { return lgcd(a, b - a); } }
}

int rgcd(int p, int q)
  requires p > 0 && q > 0 ensures res > 0;
{
  if (p == q) { return q; }
  else { if (p < q) { return rgcd(p, q - p); }
         else { return rgcd(p - q, q); } }
}

void top(int x, int y) { base(x); int u = lgcd(x, y); int v = rgcd(x, y); return; }
"""

MUTUAL = """
int even(int n)
{ if (n == 0) { return 1; } else { return odd(n - 1); } }
int odd(int n)
{ if (n == 0) { return 0; } else { return even(n - 1); } }
void drive(int k) { int r = even(k); return; }
"""


def _exploding_task(*args, **kwargs):
    # module-level so the (forked) pool worker can unpickle the reference
    raise RuntimeError("worker failure")


def _run_both(source):
    """(sequential result+stats, parallel result+stats), cold each time
    (the bench runner's full cold-start protocol, fresh-name counters
    included, so both modes start from the same process state)."""
    _cold_start()
    seq = infer_program(parse_program(source))
    seq_stats = seq.solver_stats.as_dict()
    _cold_start()
    par = infer_program(parse_program(source), jobs=2)
    par_stats = par.solver_stats.as_dict()
    return seq, seq_stats, par, par_stats


class TestDiamondParity:
    def test_verdicts_specs_and_stats_identical(self):
        seq, seq_stats, par, par_stats = _run_both(DIAMOND)
        # deterministic spec order: sequential callee-first order, not
        # worker completion order
        assert list(seq.specs) == list(par.specs)
        assert {m: str(seq.verdict(m)) for m in seq.specs} == \
            {m: str(par.verdict(m)) for m in par.specs}
        # per-case summaries agree structurally (guards are hash-consed,
        # so equality here is deep formula equality)
        for m in seq.specs:
            assert seq.specs[m].cases == par.specs[m].cases, m
        # merged per-context counters are identical; the branches use
        # disjoint variable names, so even raw FM work lines up
        assert seq_stats == par_stats
        assert seq_stats["fm_eliminations"] > 0

    def test_expected_verdicts(self):
        _seq, _s, par, _p = _run_both(DIAMOND)
        verdicts = {m: str(par.verdict(m)) for m in par.specs}
        assert verdicts == {"base": "Y", "lgcd": "Y", "rgcd": "Y", "top": "Y"}


class TestOtherShapes:
    def test_mutual_recursion_scc(self):
        seq, seq_stats, par, par_stats = _run_both(MUTUAL)
        assert list(seq.specs) == list(par.specs)
        assert {m: str(seq.verdict(m)) for m in seq.specs} == \
            {m: str(par.verdict(m)) for m in par.specs}
        for key in ("queries", "hits", "evictions"):
            assert seq_stats[key] == par_stats[key], key

    def test_heap_program(self):
        """Heap-abstracted programs ship through the pickled-summary
        contract too (SymHeap specs stay in the parent; workers see the
        numeric abstraction)."""
        from repro.bench.programs import by_name

        bench = by_name("append-lseg")
        _cold_start()
        seq = infer_program(bench.program())
        _cold_start()
        par = infer_program(bench.program(), jobs=2)
        assert str(seq.verdict(bench.main)) == str(par.verdict(bench.main)) == "Y"

    def test_single_scc_program(self):
        src = "void f(int x) { if (x > 0) { f(x - 1); return; } else { return; } }"
        par = infer_program(parse_program(src), jobs=2)
        assert str(par.verdict("f")) == "Y"

    def test_bodyless_scc_completed_inline(self):
        """An extern-only SCC has nothing to analyze: the ladder resolves
        it in the parent (no worker round-trip) and the result set equals
        the sequential path's."""
        import dataclasses

        def with_extern():
            program = parse_program(
                "void g(int x) { if (x > 0) { g(x - 1); return; }"
                " else { return; } }"
            )
            g = program.methods["g"]
            program.methods["ext"] = dataclasses.replace(
                g, name="ext", body=None
            )
            return program

        seq = infer_program(with_extern())
        par = infer_program(with_extern(), jobs=2)
        assert "ext" not in seq.specs  # bodyless methods get no summary
        assert list(seq.specs) == list(par.specs)
        assert str(seq.verdict("g")) == str(par.verdict("g")) == "Y"


class TestSchedulerPlumbing:
    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            infer_program(parse_program(DIAMOND), jobs=-1)

    def test_resolve_jobs(self):
        import os

        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        with pytest.raises(ValueError):
            resolve_jobs(-4)

    def test_worker_errors_propagate(self):
        """A worker crash must surface in the parent, not hang the wave
        loop."""
        from repro.core import scheduler

        original = scheduler._analyze_scc_task
        scheduler._analyze_scc_task = _exploding_task
        try:
            with pytest.raises(RuntimeError, match="worker failure"):
                infer_program(parse_program(MUTUAL), jobs=2)
        finally:
            scheduler._analyze_scc_task = original
