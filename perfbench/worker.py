"""Batch workloads (``registry``, ``corpus-gen``) in one analysing process.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It imports the
program, builds the workload's inputs, prints ``ready`` (the parent times
set-up up to that line), then runs passes and prints one JSON line with
every per-program row.  ``--setup-only`` stops after ``ready``.

Every program goes through ``repro.bench.runner.run_tool``, sequentially
(``jobs=1``).  A probe around ``run_tool`` reads the FM layer's counters
after each program; cold start resets them, so they are per program.  In
untraced passes it also times the reference loop of ``speed.py`` before
and after each program, for scaling its time to nominal speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Dict, List

import inputs
import spans
import speed

#: Passes a run makes at least, so that latency p90 has at least ten
#: samples beyond it (2 x 64 registry programs, 2 x 51 corpus instances).
MIN_PASSES = {"registry": 3, "corpus-gen": 2}


class Probe:
    """Wraps ``run_tool`` to record one row per analysed program."""

    def __init__(self, calibrate: bool) -> None:
        from repro.arith import fm
        from repro.bench import runner

        self.calibrate = calibrate
        self.rows: List[Dict[str, object]] = []
        self.ref_samples: List[float] = []
        self._fm = fm
        self._runner = runner
        self._original = runner.run_tool
        runner.run_tool = self._probed

    def _probed(self, tool, bench, *args, **kwargs):
        refs = [speed.sample()] if self.calibrate else []
        outcome = self._original(tool, bench, *args, **kwargs)
        if self.calibrate:
            refs += speed.samples(speed.after_count(outcome.seconds))
            self.ref_samples += refs
        fm_stats = self._fm.fm_cache_stats()
        stats = outcome.solver_stats or {}
        if outcome.verdict is None:
            verdict = "T/O"
        else:
            verdict = outcome.verdict.value
        self.rows.append({
            "program": outcome.program,
            "expected": bench.expected.value,
            "verdict": verdict,
            # run_tool maps an analyzer exception to U without stats
            "error": verdict == "U" and outcome.solver_stats is None,
            "sound": outcome.sound,
            "seconds": outcome.seconds,
            "refs": refs,
            "cube_sat_misses": fm_stats["size"] + fm_stats["evictions"],
            "fm_work_units": fm_stats["eliminations"],
            **{k: stats.get(k, 0) for k in (
                "sat_queries", "sat_hits", "entail_queries", "entail_hits",
                "project_queries", "project_hits", "store_hits", "store_misses",
            )},
        })
        return outcome

    def close(self) -> None:
        self._runner.run_tool = self._original


def build(workload: str, seed: int):
    """The workload's inputs, built the way a user would build them."""
    if workload == "registry":
        from repro.bench.programs import by_name

        return [by_name(name) for name in inputs.registry_order(seed)]
    return inputs.corpus_benchmark(seed)


def run_pass(workload: str, work, probe: Probe) -> Dict[str, object]:
    from repro.bench import runner
    from repro.bench.runner import HipTNTPlus

    probe.rows = []
    probe.ref_samples = []
    problems: List[str] = []
    start = time.perf_counter()
    if workload == "registry":
        for bench in work:
            runner.run_tool(
                HipTNTPlus(bench.main), bench,
                timeout=inputs.REGISTRY_WALL_LIMIT,
            )
    else:
        from repro.corpus.run import run_corpus

        result = run_corpus(work, timeout=inputs.CORPUS_WALL_LIMIT, jobs=1)
        if not result.ok:
            problems.append(result.render())
    end = time.perf_counter()
    for row in probe.rows:
        if not row["sound"]:
            problems.append(
                f"{row['program']}: verdict {row['verdict']} contradicts "
                f"label {row['expected']}"
            )
    return {"rows": probe.rows, "start": start, "end": end,
            "ref_samples": probe.ref_samples, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(MIN_PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    probe = Probe(calibrate=not args.trace)  # first, so the tracer's run_tool span wraps the probe
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()  # so input construction (corpus.generate) is traced
    work = build(args.workload, args.seed)
    if tracer:
        tracer.uninstall()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    passes = []
    began = time.perf_counter()
    if tracer:
        passes.append(run_pass(args.workload, work, probe))
        tracer.install()
        try:
            passes.append(run_pass(args.workload, work, probe))
        finally:
            tracer.uninstall()
    else:
        while (len(passes) < MIN_PASSES[args.workload]
               or time.perf_counter() - began < args.seconds):
            passes.append(run_pass(args.workload, work, probe))
    probe.close()
    print(json.dumps({
        "passes": passes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.report() if tracer else None,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
