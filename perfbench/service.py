"""The ``service-mix`` workload: the analysis daemon under a closed loop.

Each pass starts ``python -m repro.serve --port 0 --workers 2`` on a fresh
``--store`` directory and replays the seeded request stream
(:func:`inputs.service_stream`) over two client connections; a client
sends its next request only when its previous one has been answered.
The daemon runs on a CPU of its own and the client on the others.
Untraced runs time the reference loop of ``speed.py`` on the daemon's CPU
before each pass and after the last, while no daemon runs: a pass is
scaled by the samples before and after it, its set-up by those before.
"""

from __future__ import annotations

import http.client
import json
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import inputs
import spans
import speed

HERE = Path(__file__).resolve().parent
CLIENTS = 2
#: Passes a run makes at least; each starts a fresh daemon and store.
MIN_PASSES = 6
#: Hard cap per analysis inside the daemon; no stream program comes near.
MAX_ANALYSIS_SECONDS = 60
#: Reference-loop samples taken before each pass and after the last.
REF_SAMPLES = 16


class Daemon:
    """One analysis daemon process; ``setup_s`` is spawn to first healthz 200."""

    def __init__(self, root: Path, tmp: Path, env: Dict[str, str],
                 trace_out: Optional[Path] = None, cpus=None):
        store = tempfile.mkdtemp(prefix="store-", dir=tmp)
        serve_args = [
            "--port", "0", "--workers", "2", "--store", store,
            "--max-analysis-seconds", str(MAX_ANALYSIS_SECONDS),
        ]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.serve", *serve_args]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   "--trace-out", str(trace_out), *serve_args]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
            preexec_fn=None if cpus is None else lambda: speed.pin(cpus),
        )
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("listening on http://"):
                raise RuntimeError(f"daemon did not start: {line!r}")
            host, port = line.split("http://", 1)[1].strip().rsplit(":", 1)
            self.host, self.port = host, int(port)
            while True:
                try:
                    status, _ = self.request("GET", "/healthz")
                except ConnectionError:
                    status = None
                if status == 200:
                    break
                if time.perf_counter() - start > 60:
                    raise RuntimeError("daemon never became healthy")
                time.sleep(0.002)
            self.setup_s = time.perf_counter() - start
        except BaseException:
            self.stop()
            raise

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def replay(daemon: Daemon, stream: List[inputs.Request]) -> Dict[str, object]:
    """Send *stream* over :data:`CLIENTS` closed-loop connections.

    Requests that make the daemon write a program's store entries (its
    fresh submission and its edits) are never in flight together: two
    concurrent saves of one SCC key race on the store's per-process
    temporary file name and one fails with HTTP 500.  A client that would
    overlap them waits for the other's answer first, as a user waits for
    a result before editing the program again.
    """
    results: List[Optional[Dict[str, object]]] = [None] * len(stream)
    lock = threading.Lock()
    cursor = iter(range(len(stream)))
    writers = {req.group: threading.Lock() for req in stream}
    errors: List[BaseException] = []

    def send(i: int) -> None:
        sent = time.perf_counter()
        status, body = daemon.request("POST", "/analyze", stream[i].body)
        results[i] = {"sent": sent, "done": time.perf_counter(),
                      "status": status, "body": body}

    def client() -> None:
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                if stream[i].kind in ("fresh", "edit"):
                    with writers[stream[i].group]:
                        send(i)
                else:
                    send(i)
        except BaseException as exc:  # re-raised in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    end = time.perf_counter()
    if errors:
        raise errors[0]
    _, stats = daemon.request("GET", "/stats")
    return {"results": results, "start": start, "end": end,
            "stats": json.loads(stats), "peak_rss_mb": daemon.peak_rss_mb()}


def check(stream: List[inputs.Request], done: Dict[str, object]):
    """Per-request rows plus the correctness problems of one pass."""
    results = done["results"]
    leader_of = {r.group: i for i, r in enumerate(stream) if r.kind == "fresh"}
    rows, problems = [], []
    for req, res in zip(stream, results):
        verdict = "ERR"
        analysis_s = None
        if res["status"] == 200:
            payload = json.loads(res["body"])
            verdict = payload["verdicts"].get(req.entry, "ERR")
            analysis_s = payload["analysis_seconds"]
            if verdict == "ERR":
                problems.append(f"{req.kind} {req.program}: no verdict for {req.entry}")
        else:
            problems.append(f"{req.kind} {req.program}: HTTP {res['status']}")
        if verdict in ("Y", "N") and verdict != req.expected:
            problems.append(
                f"{req.kind} {req.program}: verdict {verdict} contradicts "
                f"label {req.expected}"
            )
        leader = results[leader_of[req.group]]
        if req.kind in ("repeat", "layout") and res["body"] != leader["body"]:
            problems.append(
                f"{req.kind} {req.program}: body differs from its leader's"
            )
        rows.append({
            "program": req.program, "kind": req.kind, "verdict": verdict,
            "expected": req.expected, "seconds": res["done"] - res["sent"],
            "analysis_s": analysis_s, "status": res["status"],
        })
    return rows, problems


def serve_counters(stats: Dict[str, object], rows) -> Dict[str, float]:
    dedup = stats["dedup"]
    requests = dedup["leaders"] + dedup["joins"] + dedup["hits"]
    leaders = [r for r in rows if r["kind"] in ("fresh", "edit")
               and r["analysis_s"] is not None]
    return {
        "leaders": dedup["leaders"], "joins": dedup["joins"],
        "cache_hits": dedup["hits"],
        "dedup_ratio": (dedup["joins"] + dedup["hits"]) / requests if requests else 0.0,
        "analysis_ms_p50": 1000.0 * statistics.median(r["analysis_s"] for r in leaders),
        "wait_ms_p50": 1000.0 * statistics.median(
            r["seconds"] - r["analysis_s"] for r in leaders),
        "rejected": sum(n for code, n in stats["responses"].items() if int(code) >= 300),
        "interned_formulas": stats["caches"]["interned_formulas"],
    }


def solver_counters(stats: Dict[str, object]) -> Dict[str, int]:
    out = dict(stats["solver"])
    out["fm_work_units"] = stats["caches"]["fm"]["eliminations"]
    return out


def run(root: Path, tmp: Path, env: Dict[str, str], seed: int,
        seconds: float, trace: bool) -> Dict[str, object]:
    """All passes of one run; returns what ``run.py`` reports.  Every pass
    starts its own daemon, so a run measures set-up once per pass."""
    stream = inputs.service_stream(seed)
    setups: List[float] = []
    daemon_cpus, client_cpus = speed.cpu_split()

    def one_pass(trace_out: Optional[Path] = None):
        daemon = Daemon(root, tmp, env, trace_out, daemon_cpus)
        setups.append(daemon.setup_s)
        try:
            done = replay(daemon, stream)
        finally:
            daemon.stop()
        rows, problems = check(stream, done)
        return {"rows": rows, "problems": problems, "start": done["start"],
                "end": done["end"], "stats": done["stats"],
                "peak_rss_mb": done["peak_rss_mb"]}

    def reference_samples() -> List[float]:
        speed.pin(daemon_cpus)
        try:
            return speed.samples(REF_SAMPLES)
        finally:
            speed.pin(client_cpus)

    passes = []
    between: List[List[float]] = []  # reference samples around the passes
    report = None
    speed.pin(client_cpus)
    began = time.perf_counter()
    try:
        if trace:
            passes.append(one_pass())
            trace_out = Path(tempfile.mkdtemp(prefix="trace-", dir=tmp)) / "spans.json"
            passes.append(one_pass(trace_out))
            report = json.loads(trace_out.read_text())
        else:
            while len(passes) < MIN_PASSES or time.perf_counter() - began < seconds:
                between.append(reference_samples())
                passes.append(one_pass())
            between.append(reference_samples())
    finally:
        if daemon_cpus is not None:
            speed.pin(daemon_cpus | client_cpus)
    for p, before, after in zip(passes, between, between[1:]):
        p["refs"] = before + after
    return {"passes": passes, "setups": setups, "trace": report,
            "ref_samples": [s for samples in between for s in samples],
            "setup_scales": [speed.factor(before) for before in between[:-1]],
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes)}


def layer_metrics(result: Dict[str, object]) -> Dict[str, tuple]:
    untraced, traced = result["passes"]
    stats = traced["stats"]
    return spans.layer_metrics(
        result["trace"], solver_counters(stats),
        serve_counters(stats, traced["rows"]),
        (traced["start"], traced["end"]),
        untraced["end"] - untraced["start"],
    )
