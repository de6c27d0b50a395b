"""The cold-start protocol's one-time ``gc.freeze()`` and its guard.

Each case runs in a fresh interpreter: the freeze is once per process and
pytest's own history (earlier tests, their live formulas) would decide
whether it has happened already.
"""

import json
import pathlib
import subprocess
import sys
import textwrap

REPO = pathlib.Path(__file__).resolve().parents[2]

#: Registry programs whose results keep interned formulas that only the
#: cyclic collector frees.
CYCLIC_RESULTS = ("mccarthy91-spec", "gcd-sub", "append-lseg")


def run_python(script: str, timeout: float = 300) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, cwd=REPO, timeout=timeout,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr or proc.stdout
    return proc.stdout


def test_freeze_waits_until_no_analysis_formula_is_interned():
    out = run_python("""
        import gc
        from repro.bench.programs import by_name
        from repro.bench.runner import _cold_start
        from repro.core.pipeline import infer_program

        bench = by_name("mccarthy91-spec")
        result = infer_program(bench.program())
        assert result.specs
        _cold_start()
        print(gc.get_freeze_count())
        del result
        _cold_start()
        print(gc.get_freeze_count())
    """)
    held, dropped = map(int, out.split())
    assert held == 0
    assert dropped > 0


_KEEP_SPECS = """
    import json
    from repro.bench.programs import all_programs, by_name
    from repro.bench.runner import HipTNTPlus, run_tool
    from repro.core.pipeline import infer_program

    class KeepSpecs(HipTNTPlus):
        def analyze(self, program):
            result = infer_program(program, time_budget=self.time_budget)
            self.last_stats = result.solver_stats
            self.pretty = result.pretty()
            return result.verdict(self.main)

    def observe(name):
        bench = by_name(name)
        tool = KeepSpecs(bench.main)
        outcome = run_tool(tool, bench, timeout=60.0)
        return [outcome.solver_stats, tool.pretty]
"""


def test_cold_start_is_history_independent():
    """After the whole registry has run in one process, each program gives
    the same solver statistics and specs as in a fresh process."""
    after_registry = json.loads(run_python(_KEEP_SPECS + f"""
    for bench in all_programs():
        run_tool(HipTNTPlus(bench.main, time_budget=2.0), bench, timeout=5.0)
    print(json.dumps([observe(name) for name in {CYCLIC_RESULTS!r}]))
    """))
    for name, seen in zip(CYCLIC_RESULTS, after_registry):
        fresh = json.loads(run_python(_KEEP_SPECS + f"""
    print(json.dumps(observe({name!r})))
    """))
        assert seen == fresh, name
