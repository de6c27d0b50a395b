"""Registry golden: every registry program's result and solver work, pinned.

Each of the 63 registry programs other than ``offset-trap`` (whose outcome
depends on wall time) runs cold through :func:`run_tool` at a 15 s timeout
and budget.  Per program the golden file pins the verdict, the sha256 of
``result.pretty()``, the FM work units, the cube-sat cache misses and the
full ``SolverStats.as_dict()``.  A change to the term or formula
representation, the solver caches or the FM engine that moves any of these
fails here.

The sweep runs in one fresh interpreter, so formulas interned by earlier
tests cannot steer interning order; it inherits ``PYTHONHASHSEED``, and
the pinned figures must not depend on it.

Regenerate (only when a change of results is intended, and say so)::

    PYTHONPATH=src python tests/bench/test_registry_golden.py > tests/bench/registry_golden.json
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
GOLDEN = pathlib.Path(__file__).with_name("registry_golden.json")

#: Answers within or past the wall limit from run to run.
WALL_TIME_DEPENDENT = ("offset-trap",)


def sweep() -> dict:
    from repro.arith.fm import fm_cache_stats
    from repro.bench.programs import all_programs
    from repro.bench.runner import HipTNTPlus, run_tool
    from repro.core.pipeline import infer_program

    class Recording(HipTNTPlus):
        pretty = None
        raised = None

        def analyze(self, program):
            try:
                result = infer_program(program, time_budget=self.time_budget)
            except MemoryError:
                self.raised = "MemoryError subclass"
                raise
            self.last_stats = result.solver_stats
            self.pretty = result.pretty()
            return result.verdict(self.main)

    out = {}
    for bench in all_programs():
        if bench.name in WALL_TIME_DEPENDENT:
            continue
        tool = Recording(bench.main, time_budget=15.0)
        outcome = run_tool(tool, bench, timeout=15.0)
        fm = fm_cache_stats()
        entry = {
            "verdict": "T/O" if outcome.verdict is None else str(outcome.verdict),
            "fm_work_units": fm["eliminations"],
            "cube_sat_misses": fm["size"] + fm["evictions"],
        }
        if tool.raised:
            entry["raises"] = tool.raised
        else:
            entry["pretty_sha256"] = hashlib.sha256(
                tool.pretty.encode()).hexdigest()
            entry["solver_stats"] = outcome.solver_stats
        out[bench.name] = entry
    return out


def run_sweep() -> dict:
    env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
    if "PYTHONHASHSEED" in os.environ:
        env["PYTHONHASHSEED"] = os.environ["PYTHONHASHSEED"]
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve())],
        capture_output=True, text=True, cwd=REPO, timeout=900, env=env,
    )
    assert proc.returncode == 0, proc.stderr or proc.stdout
    return json.loads(proc.stdout)


def test_registry_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    seen = run_sweep()
    assert sorted(seen) == sorted(golden)
    assert len(seen) == 63
    assert golden["lcm-style"]["raises"] == "MemoryError subclass"
    moved = [name for name in golden if seen[name] != golden[name]]
    assert not moved, {name: (golden[name], seen[name]) for name in moved}


if __name__ == "__main__":
    print(json.dumps(sweep(), indent=1, sort_keys=True))
