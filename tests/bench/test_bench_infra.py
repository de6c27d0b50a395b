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
        # the run stops itself at its next deadline check
        assert out.seconds < 0.05 + 0.25

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
    def test_inner_budget_capped_by_outer(self):
        """A nested scope with a larger budget still expires when the
        enclosing budget does."""
        import time

        from repro.arith.fm import AnalysisTimeout, check_deadline, deadline

        t0 = time.monotonic()
        with pytest.raises(AnalysisTimeout):
            with deadline(0.3):
                with deadline(60.0):
                    while time.monotonic() - t0 < 10.0:
                        check_deadline()
        assert time.monotonic() - t0 < 5.0

    def test_watchdog_relays_exceptions(self):
        """An analyzer's own exception leaves a deadline scope unchanged,
        on a worker thread as on the main thread."""
        import threading

        from repro.arith.fm import deadline

        results = {}

        def worker():
            try:
                with deadline(5.0):
                    raise ValueError("inner failure")
            except ValueError as exc:
                results["exc"] = str(exc)

        t = threading.Thread(target=worker)
        t.start()
        t.join(30.0)
        assert results["exc"] == "inner failure"

    def test_inference_under_budget_from_worker_thread(self):
        """The serve-daemon regression: a full inference under a deadline
        must work from a worker-pool thread and return the same verdict as
        on the main thread."""
        import threading

        from repro.arith.fm import deadline
        from repro.core import infer_source
        from repro.core.pipeline import Verdict

        source = """
int down(int n) { if (n <= 0) { return 0; } else { return down(n - 1); } }
"""
        results = {}

        def worker():
            try:
                with deadline(60.0):
                    result = infer_source(source)
                results["verdict"] = result.verdict("down")
            except BaseException as exc:  # pragma: no cover - debug aid
                results["verdict"] = exc

        t = threading.Thread(target=worker)
        t.start()
        t.join(120.0)
        assert results["verdict"] is Verdict.TERMINATING

    def test_per_thread_deadlines(self):
        """Deadlines are scoped per thread: one thread's analysis stops at
        its limit while another, with no limit, finishes with its usual
        verdict."""
        import threading

        from repro.arith.fm import AnalysisTimeout, deadline
        from repro.arith.solver import clear_caches
        from repro.core.pipeline import infer_program

        clear_caches()  # offset-trap cold: seconds, not a warm replay
        results = {}

        def limited():
            try:
                with deadline(0.3):
                    infer_program(by_name("offset-trap").program())
                results["limited"] = "finished"
            except AnalysisTimeout:
                results["limited"] = "timeout"

        def unlimited():
            bench = by_name("even-odd-mutual")
            results["unlimited"] = infer_program(bench.program()).verdict(
                bench.main
            )

        threads = [threading.Thread(target=limited),
                   threading.Thread(target=unlimited)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
        assert results["limited"] == "timeout"
        assert results["unlimited"] is Verdict.NONTERMINATING
