"""Benchmark infrastructure tests: corpus integrity, runner, tallying."""

import pytest

from repro.bench.programs import CATEGORIES, all_programs, by_name
from repro.bench.runner import BenchOutcome, HipTNTPlus, run_tool, tally
from repro.core.pipeline import Verdict
from repro.lang import parse_program
from repro.lang.interp import terminates


class TestCorpus:
    def test_categories_populated(self):
        for c in CATEGORIES:
            assert len(all_programs(c)) >= 8, c

    def test_all_programs_parse_and_build(self):
        for p in all_programs():
            program = p.program()
            assert program.methods

    def test_mains_exist_after_abstraction(self, ctx):
        from repro.lang import desugar_program
        from repro.seplog.abstraction import abstract_program

        for p in all_programs():
            program = abstract_program(desugar_program(p.program()), ctx)
            assert p.main in program.methods, p.name

    def test_names_unique(self):
        names = [p.name for p in all_programs()]
        assert len(names) == len(set(names))

    def test_loop_based_flags_honest(self):
        """loop_based programs must have no user-written recursion."""
        from repro.baselines import T2LikeAnalyzer

        t2 = T2LikeAnalyzer()
        for p in all_programs():
            if p.loop_based:
                assert t2.supports(p.program()), p.name

    def test_by_name(self):
        assert by_name("foo-paper").category == "crafted"
        with pytest.raises(KeyError):
            by_name("no-such-program")


class TestGroundTruth:
    """Spot-check the recorded expected verdicts against the interpreter
    (pure programs only; heap programs carry spec-relative truths)."""

    @pytest.mark.parametrize("name,args,halts", [
        ("foo-paper", [3, 1], False),
        ("foo-paper", [3, -1], True),
        ("plain-countdown", [5], True),
        ("nonterm-simple-lit", [1], False),
        ("even-odd-mutual", [-1], False),
        ("fib-rec", [8], True),
    ])
    def test_concrete_run(self, name, args, halts):
        bench = by_name(name)
        program = bench.program()
        assert terminates(program, bench.main.split("__")[0], args,
                          fuel=50_000) is halts


class TestRunner:
    def test_run_tool_produces_outcome(self):
        bench = by_name("plain-countdown")
        out = run_tool(HipTNTPlus(bench.main), bench, timeout=30.0)
        assert isinstance(out, BenchOutcome)
        assert out.verdict is Verdict.TERMINATING
        assert out.sound

    def test_timeout_classified(self):
        bench = by_name("ackermann-spec")
        out = run_tool(HipTNTPlus(bench.main, time_budget=50.0), bench,
                       timeout=0.05)
        assert out.timed_out

    def test_tally_columns(self):
        outs = [
            BenchOutcome("a", "t", Verdict.TERMINATING, 1.0, True),
            BenchOutcome("b", "t", Verdict.NONTERMINATING, 2.0, True),
            BenchOutcome("c", "t", Verdict.UNKNOWN, 3.0, True),
            BenchOutcome("d", "t", None, 60.0, True),
        ]
        t = tally(outs)
        assert (t["Y"], t["N"], t["U"], t["T/O"]) == (1, 1, 1, 1)
        assert t["time"] == 6.0  # timeouts excluded, as in the paper
        assert t["unsound"] == 0

    def test_unsound_accounting(self):
        outs = [BenchOutcome("a", "t", Verdict.TERMINATING, 1.0, False)]
        assert tally(outs)["unsound"] == 1

    def test_solver_stats_in_outcome_and_tally(self):
        bench = by_name("plain-countdown")
        out = run_tool(HipTNTPlus(bench.main), bench, timeout=30.0)
        assert out.solver_stats is not None
        assert out.solver_stats["queries"] > 0
        agg = tally([out])["solver"]
        assert agg["runs_reporting"] == 1
        assert agg["queries"] == out.solver_stats["queries"]
        assert 0.0 <= agg["hit_rate"] <= 1.0


class TestTimeoutMachinery:
    def test_nested_timeout_restores_outer_timer(self):
        """An inner run_with_timeout must not clobber an enclosing armed
        ITIMER_REAL: the outer budget still fires after the inner scope."""
        import signal
        import time

        from repro.bench.runner import AnalysisTimeout, run_with_timeout

        def inner_then_spin():
            run_with_timeout(lambda: time.sleep(0.05), 5.0)
            delay, _interval = signal.getitimer(signal.ITIMER_REAL)
            assert delay > 0, "outer timer was clobbered by the nested scope"
            t0 = time.monotonic()
            while time.monotonic() - t0 < 10.0:
                pass
            return "unreachable"

        t0 = time.monotonic()
        with pytest.raises(AnalysisTimeout):
            run_with_timeout(inner_then_spin, 0.4)
        assert time.monotonic() - t0 < 5.0

    def test_inner_budget_capped_by_outer(self):
        """A nested scope with a larger budget still expires when the
        enclosing budget does."""
        import time

        from repro.bench.runner import AnalysisTimeout, run_with_timeout

        def spin():
            t0 = time.monotonic()
            while time.monotonic() - t0 < 10.0:
                pass

        t0 = time.monotonic()
        with pytest.raises(AnalysisTimeout):
            run_with_timeout(lambda: run_with_timeout(spin, 60.0), 0.3)
        assert time.monotonic() - t0 < 5.0

    def test_off_main_thread_watchdog(self):
        """Off the main thread, signal.signal is unavailable: the runner
        falls back to a daemon-thread watchdog."""
        import threading
        import time

        from repro.bench.runner import AnalysisTimeout, run_with_timeout

        results = {}

        def worker():
            try:
                results["quick"] = run_with_timeout(lambda: "done", 5.0)
            except BaseException as exc:  # pragma: no cover - debug aid
                results["quick"] = exc
            try:
                run_with_timeout(lambda: time.sleep(10.0), 0.2)
                results["slow"] = "no-timeout"
            except AnalysisTimeout:
                results["slow"] = "timeout"

        t = threading.Thread(target=worker)
        t.start()
        t.join(30.0)
        assert results["quick"] == "done"
        assert results["slow"] == "timeout"

    def test_watchdog_relays_exceptions(self):
        import threading

        from repro.bench.runner import run_with_timeout

        results = {}

        def worker():
            def boom():
                raise ValueError("inner failure")

            try:
                run_with_timeout(boom, 5.0)
            except ValueError as exc:
                results["exc"] = str(exc)

        t = threading.Thread(target=worker)
        t.start()
        t.join(30.0)
        assert results["exc"] == "inner failure"

    def test_capability_probe_falls_back_to_watchdog(self, monkeypatch):
        """When the signal layer refuses SIGALRM installation even on the
        main thread (embedded/non-main interpreters), the probe detects
        it before fn starts and routes to the watchdog -- fn must run
        exactly once, on the watchdog thread."""
        from repro.bench import runner

        def refuse(signum, handler):
            raise ValueError(
                "signal only works in main thread of the main interpreter"
            )

        monkeypatch.setattr(runner.signal, "signal", refuse)
        import threading

        calls = []

        def fn():
            calls.append(threading.current_thread().name)
            return 42

        assert runner.run_with_timeout(fn, 5.0) == 42
        assert calls == ["bench-watchdog-worker"]

    def test_inference_under_budget_from_worker_thread(self):
        """The serve-daemon regression: a full inference wrapped in
        run_with_timeout must work from a worker-pool thread (where
        SIGALRM is forbidden) and return the same verdict as on the main
        thread."""
        import threading

        from repro.bench.runner import run_with_timeout
        from repro.core import infer_source
        from repro.core.pipeline import Verdict

        source = """
int down(int n) { if (n <= 0) { return 0; } else { return down(n - 1); } }
"""
        results = {}

        def worker():
            try:
                result = run_with_timeout(
                    lambda: infer_source(source), 60.0
                )
                results["verdict"] = result.verdict("down")
            except BaseException as exc:  # pragma: no cover - debug aid
                results["verdict"] = exc

        t = threading.Thread(target=worker)
        t.start()
        t.join(120.0)
        assert results["verdict"] is Verdict.TERMINATING
