"""The repository benchmark: time to verdict, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload registry --seed 1 --seconds 10 --trace 0

Workloads: ``registry`` (the 64 labeled programs, cold, in a seeded
order), ``corpus-gen`` (a seeded known-verdict corpus through
``run_corpus``) and ``service-mix`` (the analysis daemon under a seeded
closed-loop request stream).  ``--trace 0`` prints the end-to-end metrics,
with every time scaled to nominal machine speed (``speed.py``), and
``--trace 1`` the per-layer metrics of a traced pass.  The last line of
standard output is one JSON object; the exit code is 1 when any output is
wrong and 2 when the program to measure is missing.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import spans
import speed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("registry", "corpus-gen", "service-mix")
#: Set-up is measured this many times per untraced batch run (service-mix
#: measures it once per pass); the median counts.
SETUP_SPAWNS = 5
#: Reference-loop samples taken just before each set-up, which is scaled
#: by its own samples: it is short, so the run's median would miss a
#: burst of load during it.
SETUP_REF_SAMPLES = 8
#: A batch program is scaled by its own reference samples and those of
#: this many programs before and after it in the pass: a short program has
#: only two samples of its own.
NEIGHBOURS = 2
#: Wall-clock cap on the worker process of a batch run.
WORKER_TIMEOUT = 170


def _env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), str(HERE), env.get("PYTHONPATH")) if p
    )
    return env


def _spawn_worker(root: Path, env, args, setup_only: bool):
    """Start worker.py; returns (process, seconds from spawn to ``ready``)."""
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        if line.strip() != "ready":
            raise RuntimeError(f"worker failed during set-up: {line!r}")
        return proc, time.perf_counter() - start
    except BaseException:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        raise


def run_batch(root: Path, env, args) -> Dict[str, object]:
    """Set-ups and the worker's passes.  The worker and its set-ups run on
    one CPU (``speed.cpu_split``), where this process times the reference
    loop for them and otherwise waits."""
    analysis_cpus, other_cpus = speed.cpu_split()
    speed.pin(analysis_cpus)
    try:
        return _run_batch(root, env, args)
    finally:
        if analysis_cpus is not None:
            speed.pin(analysis_cpus | other_cpus)


def _run_batch(root: Path, env, args) -> Dict[str, object]:
    setups: List[float] = []
    setup_scales: List[float] = []
    for _ in range(0 if args.trace else SETUP_SPAWNS - 1):
        setup_scales.append(speed.factor(speed.samples(SETUP_REF_SAMPLES)))
        proc, seconds = _spawn_worker(root, env, args, setup_only=True)
        proc.communicate(timeout=WORKER_TIMEOUT)
        setups.append(seconds)
    setup_scales.append(speed.factor(speed.samples(SETUP_REF_SAMPLES)))
    proc, seconds = _spawn_worker(root, env, args, setup_only=False)
    setups.append(seconds)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setups"] = setups
    result["setup_scales"] = setup_scales
    result["ref_samples"] = [s for p in result["passes"] for s in p["ref_samples"]]
    result["peak_rss_mb"] = result["maxrss_kb"] / 1024.0
    return result


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

#: Counters that must repeat exactly between runs of the same code.
DETERMINISTIC = ("fm_work_units", "cube_sat_misses", "sat_queries",
                 "store_hits", "store_misses")


def _settled(row) -> bool:
    """A row whose counters are a function of the program alone (a run cut
    by the wall clock stops at a time-dependent point)."""
    return row["verdict"] != "T/O" and not row.get("error")


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()[:16]


def print_rows(workload: str, passes) -> None:
    rows = passes[0]["rows"]
    if workload == "service-mix":
        kinds: Dict[str, List[float]] = {}
        for r in rows:
            kinds.setdefault(r["kind"], []).append(r["seconds"])
        for kind, secs in sorted(kinds.items()):
            print(f"  {kind:8s} n={len(secs):4d} median "
                  f"{1000 * statistics.median(secs):9.2f} ms")
        print("verdict digest:", _digest(
            f"{r['program']}:{r['kind']}:{r['verdict']}" for r in rows))
        return
    print(f"  {'program':28s} {'outcome':7s} {'seconds':>9s} "
          f"{'cube_sat.misses':>15s} {'fm_work_units':>13s}")
    for r in rows:
        outcome = "ERR" if r["error"] else r["verdict"]
        print(f"  {r['program']:28s} {outcome:7s} {r['seconds']:9.4f} "
              f"{r['cube_sat_misses']:15d} {r['fm_work_units']:13d}")
    geo = math.exp(statistics.fmean(math.log(r["seconds"]) for r in rows))
    print(f"geometric mean seconds per program: {geo:.6f}")
    print("verdict digest:", _digest(
        f"{r['program']}:{r['verdict']}" for r in rows))
    print("counter digest:", _digest(
        f"{r['program']}:" + ",".join(str(r[k]) for k in DETERMINISTIC)
        for r in rows if _settled(r)))
    seen: Dict[str, tuple] = {}
    differing = set()
    for p in passes:
        for r in p["rows"]:
            if _settled(r):
                key = tuple(r[k] for k in DETERMINISTIC)
                if seen.setdefault(r["program"], key) != key:
                    differing.add(r["program"])
    if len(passes) > 1:
        print("counters repeat across passes:",
              "yes" if not differing else "NO: " + ", ".join(sorted(differing)))


def hd_quantile(values, p: float, steps: int = 64) -> float:
    """The Harrell-Davis estimate of the *p*-quantile of *values*: the
    order statistics weighted by the Beta(p(n+1), (1-p)(n+1)) density over
    their ranks.  Where a plain quantile interpolates between two samples,
    this averages the samples around the quantile, so one slow or fast
    sample moves it less."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    width = 1.0 / (n * steps)
    weights = [
        width * sum(density((i * steps + k + 0.5) * width) for k in range(steps))
        for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def _capped_s(row) -> float:
    """Seconds of *row* spent running into the wall-clock limit."""
    return row["seconds"] if row["verdict"] == "T/O" else 0.0


def timings(result, measured, scaled: bool) -> Dict[str, float]:
    """The timing metrics, with reference-loop time left out.  When
    *scaled*, machine-dependent time is scaled to nominal speed
    (``speed.py``): a batch program by the reference samples around it and
    the rest of its pass by all of the run's samples, a service-mix pass by
    the samples before and after it, and a set-up by those before it."""
    run_scale = speed.factor(result["ref_samples"]) if scaled else 1.0
    samples: List[float] = []
    sweeps: List[float] = []
    for p in measured:
        rows = p["rows"]
        batch = "ref_samples" in p  # service-mix passes carry "refs" instead
        if not scaled:
            pass_scale, scales = 1.0, [1.0] * len(rows)
        elif batch:
            pass_scale = run_scale
            scales = [speed.factor([s for r in rows[max(0, i - NEIGHBOURS):i + NEIGHBOURS + 1]
                                    for s in r["refs"]])
                      for i in range(len(rows))]
        else:
            pass_scale = speed.factor(p["refs"])
            scales = [pass_scale] * len(rows)
        done = [(r["seconds"] - _capped_s(r)) * f + _capped_s(r)
                for r, f in zip(rows, scales)]
        samples += done
        wall = p["end"] - p["start"] - sum(p.get("ref_samples", ()))
        if batch:
            # the programs run one after another inside the pass
            inside = sum(r["seconds"] for r in rows)
            sweeps.append((wall - inside) * pass_scale + sum(done))
        else:
            sweeps.append(wall * pass_scale)
    setup_scales = result["setup_scales"] if scaled else [1.0] * len(result["setups"])
    return {
        "setup_s": statistics.median(
            s * f for s, f in zip(result["setups"], setup_scales)),
        "sweep_s": statistics.median(sweeps),
        "latency_ms_p50": 1000.0 * statistics.median(samples),
        "latency_ms_p90": 1000.0 * hd_quantile(samples, 0.9),
        "requests_per_s": len(samples) / sum(sweeps),
    }


def end_to_end(result, measured) -> Dict[str, tuple]:
    refs = result["ref_samples"]
    scale = speed.factor(refs)
    raw = timings(result, measured, scaled=False)
    print(f"speed: {len(refs)} reference samples, median "
          f"{1000 * statistics.median(refs):.3f} ms, nominal "
          f"{1000 * speed.NOMINAL_S:.3f} ms, run scale {scale:.4f}")
    print("raw (unscaled):", ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    times = timings(result, measured, scaled=True)
    rows = [r for p in measured for r in p["rows"]]
    n = len(rows)
    decided = sum(1 for r in rows
                  if r["verdict"] in ("Y", "N") and r["verdict"] == r["expected"])
    answered = sum(1 for r in rows
                   if r["verdict"] not in ("T/O", "ERR") and not r.get("error"))

    return {
        "setup_s": (times["setup_s"], "s"),
        "sweep_s": (times["sweep_s"], "s"),
        "latency_ms_p50": (times["latency_ms_p50"], "ms"),
        "latency_ms_p90": (times["latency_ms_p90"], "ms"),
        "requests_per_s": (times["requests_per_s"], "1/s"),
        "decided_share": (decided / n, "ratio"),
        "answered_share": (answered / n, "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def batch_layer_metrics(result) -> Dict[str, tuple]:
    untraced, traced = result["passes"]
    solver: Dict[str, int] = {}
    for r in traced["rows"]:
        for k, v in r.items():
            if k.endswith(("_queries", "_hits", "_misses", "_units")):
                solver[k] = solver.get(k, 0) + v
    return spans.layer_metrics(
        result["trace"], solver, {}, (traced["start"], traced["end"]),
        untraced["end"] - untraced["start"],
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure ({root / 'src' / 'repro'} "
              "is missing); run from the repository root", file=sys.stderr)
        return 2
    tmp = root / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    env = _env(root)
    try:
        if args.workload == "service-mix":
            sys.path.insert(0, str(root / "src"))
            import service

            result = service.run(root, tmp, env, args.seed, args.seconds,
                                 bool(args.trace))
        else:
            result = run_batch(root, env, args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    passes = result["passes"]
    measured = passes[1:] if args.trace else passes
    rows = [r for p in measured for r in p["rows"]]
    problems = [msg for p in passes for msg in p["problems"]]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} samples={len(rows)}")
    print_rows(args.workload, measured)
    for msg in problems:
        print("WRONG:", msg)
    if args.trace:
        if args.workload == "service-mix":
            metrics = service.layer_metrics(result)
        else:
            metrics = batch_layer_metrics(result)
    else:
        metrics = end_to_end(result, measured)
        print(f"latency percentiles over n={len(rows)} samples")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(rows),
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
