"""Sharded bench runner: shard timeouts, deterministic ordering,
sequential/parallel outcome parity, and the swallowed-timeout regressions
of the cooperative deadline."""

import time

import pytest

from repro.arith.fm import check_deadline, deadline
from repro.bench.programs import BenchProgram, by_name
from repro.bench.runner import (
    AnalysisTimeout,
    BenchOutcome,
    HipTNTPlus,
    _bench_spec,
    resolve_jobs,
    run_tool,
    run_tools_sharded,
)
from repro.core.pipeline import Verdict

_FAST = ("foo-paper", "plain-countdown", "even-odd-mutual")

#: Four copies of the registry's ``offset-trap`` loop under distinct
#: variable names, so no copy's solver queries hit another's caches: about
#: 12 s of solver work on a 2-vCPU VM, three times the shard timeout the
#: timeout test sets.
_SLOW = BenchProgram(
    name="offset-trap-x4", category="numeric", main="trap0",
    expected=Verdict.NONTERMINATING,
    source="\n".join(
        f"void trap{i}(int x{i}) {{ while (x{i} != 0) {{"
        f" if (x{i} > 0) {{ x{i} = x{i} - 2; }}"
        f" else {{ x{i} = x{i} + 2; }} }} }}"
        for i in range(4)
    ),
)


def _hip_pairs(names):
    out = []
    for n in names:
        bench = by_name(n)
        out.append((HipTNTPlus(bench.main), bench))
    return out


class TestJobsPolicy:
    def test_resolve_jobs(self):
        import os

        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        with pytest.raises(ValueError):
            resolve_jobs(-4)

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            run_tools_sharded(_hip_pairs(_FAST), jobs=-1)


class TestShardedParity:
    def test_jobs2_outcomes_equal_sequential(self):
        """Verdicts, soundness and per-run solver statistics of a sharded
        sweep are identical to the sequential sweep (run_tool's cold-start
        protocol makes each run history-independent)."""
        seq = run_tools_sharded(_hip_pairs(_FAST), timeout=60.0, jobs=1)
        par = run_tools_sharded(_hip_pairs(_FAST), timeout=60.0, jobs=2)
        assert [o.program for o in par] == list(_FAST)  # task order kept
        for s, p in zip(seq, par):
            assert (s.program, s.tool) == (p.program, p.tool)
            assert s.verdict == p.verdict
            assert s.sound == p.sound
            assert s.solver_stats == p.solver_stats

    def test_expected_verdicts(self):
        par = run_tools_sharded(_hip_pairs(_FAST), timeout=60.0, jobs=2)
        verdicts = {o.program: o.verdict for o in par}
        assert verdicts["foo-paper"] is Verdict.NONTERMINATING
        assert verdicts["plain-countdown"] is Verdict.TERMINATING
        assert verdicts["even-odd-mutual"] is Verdict.NONTERMINATING


class TestShardTimeouts:
    def test_one_shard_times_out_others_still_report(self):
        """A worker killed at its deadline is recorded as T/O in its task
        slot; the remaining shards report normally."""
        pairs = _hip_pairs(("foo-paper",))
        pairs.append((HipTNTPlus(_SLOW.main, time_budget=120.0), _SLOW))
        pairs.extend(_hip_pairs(("plain-countdown",)))
        t0 = time.monotonic()
        outs = run_tools_sharded(pairs, timeout=4.0, jobs=2)
        elapsed = time.monotonic() - t0
        assert [o.program for o in outs] == [
            "foo-paper", "offset-trap-x4", "plain-countdown"
        ]
        assert outs[0].verdict is Verdict.NONTERMINATING
        assert outs[1].timed_out
        assert outs[1].sound  # a timeout is never unsound
        assert outs[2].verdict is Verdict.TERMINATING
        # the kill happened near the budget, not at some far-later join
        assert elapsed < 60.0

    def test_unregistered_builder_program_rejected(self):
        """A builder-carrying program outside the registry cannot be
        shipped to a worker; the parent refuses loudly instead of
        analyzing the wrong thing."""
        custom = BenchProgram(
            name="custom-heap", category="crafted", source="", main="m",
            expected=Verdict.TERMINATING, builder=lambda: None,
        )
        with pytest.raises(ValueError, match="not in the registry"):
            _bench_spec(custom)

    def test_plain_custom_program_ships_directly(self):
        custom = BenchProgram(
            name="custom-plain", category="crafted",
            source="void m(int x) { return; }", main="m",
            expected=Verdict.TERMINATING,
        )
        assert _bench_spec(custom) is custom
        outs = run_tools_sharded(
            [(HipTNTPlus("m"), custom), (HipTNTPlus("m"), custom)],
            timeout=30.0, jobs=2,
        )
        assert all(o.verdict is Verdict.TERMINATING for o in outs)


def _spin_swallowing(seconds: float) -> int:
    """Spin for *seconds*, checking the deadline like an analysis does and
    swallowing every :class:`AnalysisTimeout` (a cleanup path eating the
    raise); returns how many it swallowed."""
    swallowed = 0
    t0 = time.monotonic()
    while time.monotonic() - t0 < seconds:
        try:
            check_deadline()
        except AnalysisTimeout:
            swallowed += 1
    return swallowed


class TestTimeoutFlagFixes:
    """A timeout swallowed inside the analyzed function must still
    classify as a timeout."""

    def test_swallowed_timeout_still_raises(self):
        """The deadline stays passed: a swallowed raise is followed by
        another at the next check."""
        t0 = time.monotonic()
        with pytest.raises(AnalysisTimeout):
            with deadline(0.3):
                assert _spin_swallowing(0.5) > 0
                check_deadline()
        assert time.monotonic() - t0 < 10.0

    def test_successful_run_unaffected(self):
        with deadline(5.0):
            check_deadline()
            value = 41 + 1
        assert value == 42
        with deadline(0.01):
            pass
        time.sleep(0.05)
        check_deadline()  # the scope is gone: no limit applies any more

    def test_secondary_error_after_swallowed_timeout_is_timeout(self):
        """If the budget expired, the raise was eaten, and some follow-up
        error escapes the half-torn-down analyzer state, the run
        classifies as a timeout -- not as an analyzer failure."""

        class ExplodingAnalyzer:
            name = "exploder"

            def analyze(self, program):
                try:
                    while True:
                        check_deadline()
                except AnalysisTimeout:
                    raise RuntimeError("cleanup failed on torn-down state")

        out = run_tool(ExplodingAnalyzer(), by_name("plain-countdown"),
                       timeout=0.3)
        assert out.timed_out

    def test_run_tool_classifies_swallowed_timeout(self):
        """End to end: an analyzer that swallows the timeout and runs 1 s
        past its limit is reported as T/O, never as a (half-finished)
        success."""

        class SwallowingAnalyzer:
            name = "swallower"

            def analyze(self, program):
                _spin_swallowing(1.3)
                return Verdict.TERMINATING  # a lie the runner must reject

        bench = by_name("plain-countdown")
        out = run_tool(SwallowingAnalyzer(), bench, timeout=0.3)
        assert out.timed_out
        assert out.verdict is None
