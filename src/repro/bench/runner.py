"""Timeout-bounded analyzer execution and outcome accounting.

Mirrors the paper's experimental protocol: each (tool, program) run gets a
wall-clock budget (the paper used 300 s; the default here is smaller since
the corpus is smaller), outcomes are classified Y / N / U / T-O, and every
definite answer is checked against the program's ground truth -- the
analogue of the paper re-verifying all inferred specifications ("our tool
does not have any false positive nor negative").
"""

from __future__ import annotations

import gc
import multiprocessing
import multiprocessing.connection
import signal
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from repro.arith.context import SolverStats
from repro.arith.formula import intern_table_size, reset_fresh_names
from repro.arith.solver import clear_caches
from repro.core.pipeline import Verdict, infer_program
from repro.bench.programs import BenchProgram
from repro.lang.to_arith import reset_fresh
from repro.seplog.heap import reset_fresh_ptrs


class AnalysisTimeout(Exception):
    """Raised inside a run when the wall-clock budget expires."""


@dataclass
class BenchOutcome:
    """One (tool, program) result."""

    program: str
    tool: str
    verdict: Optional[Verdict]  # None means timeout
    seconds: float
    sound: bool  # definite answers must match the ground truth
    solver_stats: Optional[Dict[str, int]] = None  # per-run solver counters

    @property
    def timed_out(self) -> bool:
        return self.verdict is None


class Analyzer(Protocol):
    name: str

    def analyze(self, program) -> Optional[Verdict]:  # pragma: no cover
        ...


class HipTNTPlus:
    """The paper's tool: the full inference pipeline of this package.

    The per-group solver budget is kept below the harness timeout so the
    tool degrades to conditional/U answers instead of timing out --
    matching the paper's zero-timeout column for HIPTNT+.

    After each ``analyze`` call, ``last_stats`` holds the run's aggregated
    :class:`~repro.arith.context.SolverStats`; ``run_tool`` copies it into
    the :class:`BenchOutcome` so tallies and tables can report solver
    cache behaviour alongside verdicts.

    *store* (a directory path; kept as a path so the analyzer stays
    picklable for sharded execution) enables the persistent spec store:
    warm runs replay cached SCC summaries and report ``store_hits`` in
    their stats instead of redoing inference -- see ``docs/store.md``.
    The store deliberately survives the per-run cold-start protocol:
    cold start erases *process* history (memo caches, fresh-name
    counters), while the store carries *cross-run* results keyed so they
    are independent of process history.
    """

    name = "HIPTNT+"

    def __init__(
        self,
        main: str,
        time_budget: float = 15.0,
        store: Optional[str] = None,
    ):
        self.main = main
        self.time_budget = time_budget
        self.store = store
        self.last_stats: Optional[SolverStats] = None

    def analyze(self, program) -> Verdict:
        self.last_stats = None  # a timed-out run must not inherit old stats
        result = infer_program(
            program, time_budget=self.time_budget, store=self.store,
        )
        self.last_stats = result.solver_stats
        return result.verdict(self.main)


def _cold_start() -> None:
    """Reset run-scoped process state so a run's behaviour and statistics
    depend only on the program analyzed, never on process history.

    Three pieces make a run history-dependent: the module-level memo
    caches (warm entries skip work), cyclic garbage keeping dead formulas
    in the weak intern tables (canonical conjunct order is interning
    order, so a stale survivor steers DNF cube enumeration differently),
    and the monotone fresh-name counters (variable names feed hash-ordered
    sets in the FM elimination-order heuristic).  Resetting all three
    makes a run inside a long-lived sequential sweep identical -- same
    verdict, same solver statistics -- to the same run in a freshly forked
    shard worker, which is what makes ``jobs=N`` tables reproducible.

    Every call runs a full ``gc.collect()``.  After it, at most once per
    process, the survivors -- by then mostly the import graph of this
    package, scipy and numpy -- are moved to the permanent generation with
    ``gc.freeze()``, so later collections walk only what analyses
    allocated since (forked shard workers inherit the frozen set).  The
    freeze is skipped, and retried at the next cold start, while any
    formula node created after this module's import is still interned: a
    frozen object is never examined by the collector again, so one that
    later turns into cyclic garbage is never reclaimed, and a formula it
    held would stay interned for the rest of the process -- the history
    dependence this function exists to remove.

    The persistent spec store (:mod:`repro.store`) is deliberately *not*
    touched here: it lives on disk, keyed by structural fingerprints that
    are independent of process history (the counter resets above are in
    fact what keeps fingerprints of generated names reproducible), so a
    warm run replays exactly what a cold run would have computed.
    """
    clear_caches()
    gc.collect()
    if gc.get_freeze_count() == 0 and intern_table_size() <= _IMPORT_INTERNED:
        gc.freeze()
    reset_fresh_names()
    reset_fresh()
    reset_fresh_ptrs()


#: Retry period for the interval timer: if an alarm lands while the
#: interpreter is inside a C-invoked callback (a GC callback, a weakref
#: finalizer), the raised exception is swallowed as "unraisable" -- the
#: repeating interval re-fires until a raise sticks in normal bytecode.
_REARM_INTERVAL = 0.05


def run_with_timeout(fn, seconds: float):
    """Run *fn* under a wall-clock budget; raises :class:`AnalysisTimeout`
    on expiry.

    On the main thread this uses a SIGALRM interval timer; nesting is
    supported (a previously armed ``ITIMER_REAL`` is saved and re-armed
    with its remaining budget afterwards), and the inner budget never
    outlives an enclosing one.  Off the main thread -- where Python
    forbids ``signal.signal`` with a ``ValueError``, and which is exactly
    where analysis-daemon worker threads run (:mod:`repro.serve`) -- the
    call routes to a daemon-thread watchdog instead: on expiry the worker
    is abandoned (best effort; it cannot be interrupted and may keep
    computing until the process exits).  The routing is belt-and-braces:
    besides the thread check, a ``ValueError`` out of the signal
    machinery itself (environments where the main-thread test is not the
    whole story, e.g. non-main interpreters) also falls back to the
    watchdog, so no caller ever sees the signal layer's refusal."""
    if threading.current_thread() is not threading.main_thread():
        return _with_timeout_watchdog(fn, seconds)
    # Capability probe: re-installing the current handler is a no-op but
    # raises the same ValueError signal.signal would raise inside the
    # SIGALRM path.  Probing first (instead of catching around the real
    # call) guarantees *fn* can never be started twice.  A None handler
    # (installed by non-Python code) cannot be re-installed; skip the
    # probe and trust the main-thread check above.
    probe = signal.getsignal(signal.SIGALRM)
    if probe is not None:
        try:
            signal.signal(signal.SIGALRM, probe)
        except ValueError:
            return _with_timeout_watchdog(fn, seconds)
    return _with_timeout_sigalrm(fn, seconds)


def _with_timeout_sigalrm(fn, seconds: float):
    # ``fired`` records that the budget expired even when the raised
    # AnalysisTimeout gets swallowed inside *fn* (e.g. by a ``finally`` /
    # broad ``except`` during solver cleanup): the flag is re-checked after
    # fn returns, so a truncated run can never be reported as successful.
    # ``armed`` gates the raise so that a late re-armed alarm landing in
    # the teardown below cannot skip restoring the previous handler/timer.
    state = {"armed": True, "fired": False}

    def handler(signum, frame):
        state["fired"] = True
        if state["armed"]:
            raise AnalysisTimeout()

    old_handler = signal.signal(signal.SIGALRM, handler)
    prev_delay, prev_interval = signal.getitimer(signal.ITIMER_REAL)
    start = time.monotonic()
    # Never outlive an enclosing budget that expires sooner than ours.
    budget = seconds if prev_delay == 0 else min(seconds, prev_delay)
    signal.setitimer(signal.ITIMER_REAL, budget, _REARM_INTERVAL)
    try:
        result = fn()
    except AnalysisTimeout:
        raise
    except BaseException:
        if state["fired"]:
            # The budget expired, the injected raise was swallowed, and a
            # secondary error escaped from the half-torn-down state: the
            # run is a timeout, not an analyzer failure.
            raise AnalysisTimeout() from None
        raise
    finally:
        state["armed"] = False
        # Teardown runs whether fn returned or raised; the nested finally
        # guarantees the handler is restored even if disarming the timer
        # itself fails.
        try:
            signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            signal.signal(signal.SIGALRM, old_handler)
            if prev_delay > 0:
                # Restore the outer timer with whatever budget it has
                # left; if it expired while we ran, let it fire (almost)
                # immediately.
                remaining = prev_delay - (time.monotonic() - start)
                signal.setitimer(
                    signal.ITIMER_REAL, max(remaining, 1e-6), prev_interval
                )
    if state["fired"]:
        # The budget expired while fn ran but the in-flight raise was
        # swallowed before reaching us: the outcome is a timeout, not a
        # success built from a half-finished analysis.
        raise AnalysisTimeout()
    return result


def _with_timeout_watchdog(fn, seconds: float):
    """Thread-based fallback: run *fn* in a daemon worker, abandon it on
    expiry.  The worker's answer (or exception) is relayed when it beats
    the deadline.

    Caveat: an abandoned worker keeps computing until the process exits,
    so it can keep touching the process-global solver caches and FM
    counters; solver statistics of runs executed concurrently with an
    abandoned worker are best-effort."""
    outcome: List[object] = []
    failure: List[BaseException] = []

    def target() -> None:
        try:
            outcome.append(fn())
        except BaseException as exc:  # relayed to the caller below
            failure.append(exc)

    worker = threading.Thread(
        target=target, daemon=True, name="bench-watchdog-worker"
    )
    worker.start()
    worker.join(seconds)
    if worker.is_alive():
        raise AnalysisTimeout()
    if failure:
        raise failure[0]
    return outcome[0]


def run_tool(
    tool: Analyzer,
    bench: BenchProgram,
    timeout: float = 60.0,
    enforce_timeout: bool = True,
    on_start=None,
) -> BenchOutcome:
    """Run one analyzer on one benchmark program.

    Every run starts from the cold-start protocol (:func:`_cold_start`:
    module caches cleared, cyclic garbage collected, fresh-name counters
    reset, automatic gc held for the run): per-run solver statistics then
    depend only on the program analyzed, never on which runs happened
    earlier in the same process -- which is what makes sharded
    (``jobs > 1``) tables identical to sequential ones.  The first cold
    start that finds no analysis formula still interned also freezes the
    surviving objects (``gc.freeze()``, once per process), so later
    collections skip the import graph; objects frozen then and turned into
    cyclic garbage later are never reclaimed.  An analyzer
    configured with a persistent spec store is the one sanctioned
    exception: its on-disk entries survive cold start by design, so a
    repeat run reports ``store_hits`` instead of redoing inference.

    With ``enforce_timeout=False`` the analyzer runs without the in-process
    signal/watchdog machinery; the sharded runner uses this in worker
    processes, where the *parent* enforces the wall clock by
    ``join(timeout)`` + kill.
    """
    program = bench.program()
    _cold_start()
    if on_start is not None:
        # The sharded runner's worker signals the parent here -- after
        # program build and cold start -- so the parent-enforced budget
        # clock starts exactly where the sequential clock below does.
        on_start()
    start = time.monotonic()
    verdict: Optional[Verdict]
    # Automatic (allocation-triggered) gc passes would purge dead-but-
    # still-interned formulas at process-history-dependent moments,
    # perturbing interning-order-based conjunct ordering mid-run; holding
    # collection for the run's duration keeps the analysis deterministic.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if enforce_timeout:
            verdict = run_with_timeout(lambda: tool.analyze(program), timeout)
        else:
            verdict = tool.analyze(program)
    except AnalysisTimeout:
        verdict = None
    except Exception:
        # analyzer bailed out (unsupported fragment, ...): unknown
        verdict = Verdict.UNKNOWN
    finally:
        if gc_was_enabled:
            gc.enable()
    elapsed = time.monotonic() - start
    sound = True
    if verdict is Verdict.TERMINATING:
        sound = bench.expected is Verdict.TERMINATING
    elif verdict is Verdict.NONTERMINATING:
        sound = bench.expected is Verdict.NONTERMINATING
    stats = getattr(tool, "last_stats", None)
    return BenchOutcome(
        program=bench.name,
        tool=tool.name,
        verdict=verdict,
        seconds=elapsed,
        sound=sound,
        solver_stats=stats.as_dict() if isinstance(stats, SolverStats) else None,
    )


# ---------------------------------------------------------------------------
# Sharded execution: whole benchmark programs farmed to worker processes
# ---------------------------------------------------------------------------


def _mp_context():
    """Start method for shard workers (shared with the SCC scheduler)."""
    from repro.core.scheduler import worker_mp_context

    return worker_mp_context()


def _bench_spec(bench: BenchProgram):
    """What the parent ships to a worker for *bench*.

    A plain program pickles as-is; heap programs carry builder closures,
    which do not pickle, so they travel as registry names and the worker
    rebuilds them from :func:`repro.bench.programs.by_name`."""
    if bench.builder is None:
        return bench
    from repro.bench.programs import by_name

    try:
        registered = by_name(bench.name)
    except KeyError:
        registered = None
    if registered is not bench:
        raise ValueError(
            f"benchmark {bench.name!r} has a builder but is not in the "
            "registry; sharded execution cannot ship it to a worker"
        )
    return bench.name


#: First message a shard worker sends, right before analysis begins: the
#: parent starts the wall-clock budget from its arrival, so process spawn
#: and import overhead do not eat into the run's budget (keeping
#: borderline runs on the same side of the deadline as a sequential run).
_SHARD_STARTED = "__shard_started__"

#: Extra wall-clock (seconds, on top of the budget, measured from spawn)
#: granted to a worker that never even reported _SHARD_STARTED before the
#: parent declares it wedged and kills it.
_SPAWN_GRACE = 60.0


def _shard_worker(tool: Analyzer, bench_spec, conn) -> None:
    """Worker body: run one (tool, program) pair and pipe the outcome back.

    No in-child timeout machinery: the parent enforces the wall clock by
    ``join(timeout)`` + kill, so a worker stuck inside solver cleanup is
    simply terminated instead of juggling signals."""
    try:
        if isinstance(bench_spec, BenchProgram):
            bench = bench_spec
        else:
            from repro.bench.programs import by_name

            bench = by_name(bench_spec)
        conn.send(
            run_tool(
                tool, bench, enforce_timeout=False,
                on_start=lambda: conn.send(_SHARD_STARTED),
            )
        )
    except BaseException as exc:  # relayed to and re-raised by the parent
        try:
            conn.send(exc)
        except Exception:
            pass
    finally:
        conn.close()


def run_tools_sharded(
    pairs: Sequence[Tuple[Analyzer, BenchProgram]],
    timeout: float = 60.0,
    jobs: int = 1,
) -> List[BenchOutcome]:
    """Run (tool, program) pairs, farming them to *jobs* worker processes.

    Results come back in **task order** regardless of completion order, so
    tables built on top are deterministic.  ``jobs=1`` is the exact
    sequential path (in-process, signal-based timeouts); with ``jobs > 1``
    each pair runs in its own forked worker and the parent enforces the
    wall-clock budget: a worker still alive past its deadline is
    terminated (then killed) and recorded as a timeout, without disturbing
    the other shards.
    """
    from repro.core.scheduler import resolve_jobs

    pairs = list(pairs)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(pairs) <= 1:
        return [
            run_tool(tool, bench, timeout=timeout) for tool, bench in pairs
        ]
    ctx = _mp_context()
    results: List[Optional[BenchOutcome]] = [None] * len(pairs)
    next_task = 0
    running: Dict[object, _Shard] = {}  # keyed by process sentinel
    try:
        while next_task < len(pairs) or running:
            while next_task < len(pairs) and len(running) < jobs:
                tool, bench = pairs[next_task]
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_shard_worker,
                    args=(tool, _bench_spec(bench), send),
                    daemon=True,
                )
                proc.start()
                send.close()  # the worker owns the sending end now
                running[proc.sentinel] = _Shard(
                    proc, next_task, recv, time.monotonic()
                )
                next_task += 1
            now = time.monotonic()
            soonest = min(s.deadline(timeout) for s in running.values())
            # Wake on worker exit (sentinel) or any pipe message (the
            # started signal that starts a shard's budget clock).  A recv
            # whose payload already arrived is excluded: its pending EOF
            # would make wait() return immediately forever, busy-spinning
            # until the worker exits.
            waitables = list(running) + [
                s.recv for s in running.values()
                if s.payload is None and not s.dead and not s.recv.closed
            ]
            multiprocessing.connection.wait(
                waitables, timeout=max(0.0, soonest - now)
            )
            now = time.monotonic()
            for sentinel in list(running):
                shard = running[sentinel]
                shard.drain(now)
                tool, bench = pairs[shard.index]
                if not shard.proc.is_alive():
                    shard.drain(now)  # result sent between drain and exit
                    shard.proc.join()
                    shard.close()
                    del running[sentinel]
                    payload = shard.payload
                    if isinstance(payload, BaseException):
                        raise payload
                    if payload is None:
                        # the worker died without reporting (hard crash):
                        # account it like an in-process analyzer bail-out
                        payload = BenchOutcome(
                            program=bench.name, tool=tool.name,
                            verdict=Verdict.UNKNOWN,
                            seconds=shard.elapsed(now), sound=True,
                        )
                    results[shard.index] = payload
                elif now >= shard.deadline(timeout):
                    shard.proc.terminate()
                    shard.proc.join(5.0)
                    if shard.proc.is_alive():  # pragma: no cover - stubborn
                        shard.proc.kill()
                        shard.proc.join()
                    shard.close()
                    del running[sentinel]
                    if isinstance(shard.payload, BaseException):
                        # a real worker error that arrived right at the
                        # deadline is still an error, not a timeout
                        raise shard.payload
                    if isinstance(shard.payload, BenchOutcome):
                        # the outcome arrived but the worker hung on exit:
                        # keep the real result, only the process was culled
                        results[shard.index] = shard.payload
                    else:
                        results[shard.index] = BenchOutcome(
                            program=bench.name, tool=tool.name, verdict=None,
                            seconds=shard.elapsed(now), sound=True,
                        )
    finally:
        for shard in running.values():
            shard.proc.kill()
            shard.proc.join()
            shard.close()
    return results


class _Shard:
    """Parent-side bookkeeping for one in-flight shard worker."""

    __slots__ = (
        "proc", "index", "recv", "spawned", "started", "payload", "dead",
    )

    def __init__(self, proc, index: int, recv, spawned: float):
        self.proc = proc
        self.index = index
        self.recv = recv
        self.spawned = spawned
        self.started: Optional[float] = None  # _SHARD_STARTED arrival
        self.payload = None  # BenchOutcome or relayed exception
        self.dead = False  # pipe hit EOF without a payload

    def drain(self, now: float) -> None:
        """Consume whatever the worker has piped so far."""
        try:
            while self.payload is None and not self.dead \
                    and not self.recv.closed and self.recv.poll(0):
                msg = self.recv.recv()
                if msg == _SHARD_STARTED:
                    self.started = now
                else:
                    self.payload = msg
        except (EOFError, OSError):
            # The sender closed without delivering a payload (crash, or
            # its exception failed to pickle).  Mark the pipe dead so the
            # wait loop stops selecting on its permanently-ready EOF.
            self.dead = True

    def deadline(self, timeout: float) -> float:
        """Kill-after time: budget runs from the started signal; a worker
        that never signalled gets spawn + budget + grace before it is
        declared wedged."""
        if self.started is not None:
            return self.started + timeout
        return self.spawned + timeout + _SPAWN_GRACE

    def elapsed(self, now: float) -> float:
        return now - (self.started if self.started is not None else self.spawned)

    def close(self) -> None:
        try:
            self.recv.close()
        except OSError:  # pragma: no cover
            pass


def tally(outcomes: List[BenchOutcome]) -> Dict[str, object]:
    """Aggregate Y/N/U/T-O counts and total time (excluding timeouts),
    exactly the columns of paper Fig. 10, plus aggregated solver-cache
    statistics under ``"solver"`` for the runs that report them."""
    y = sum(1 for o in outcomes if o.verdict is Verdict.TERMINATING)
    n = sum(1 for o in outcomes if o.verdict is Verdict.NONTERMINATING)
    u = sum(1 for o in outcomes if o.verdict is Verdict.UNKNOWN)
    to = sum(1 for o in outcomes if o.timed_out)
    t = sum(o.seconds for o in outcomes if not o.timed_out)
    unsound = sum(1 for o in outcomes if not o.sound)
    return {
        "Y": y, "N": n, "U": u, "T/O": to, "time": t, "unsound": unsound,
        "solver": tally_solver_stats(outcomes),
    }


def tally_solver_stats(outcomes: List[BenchOutcome]) -> Dict[str, object]:
    """Sum the per-run solver counters of *outcomes* (queries, cache hits,
    evictions, raw FM eliminations, spec-store hits/misses/invalidations,
    pre-analysis quick verdicts and seeded contracts) and derive the
    overall hit rate."""
    agg = {
        "queries": 0, "hits": 0, "evictions": 0, "fm_eliminations": 0,
        "store_hits": 0, "store_misses": 0, "store_invalidations": 0,
        "pre_quick": 0, "pre_seeded": 0,
    }
    reported = 0
    for o in outcomes:
        if not o.solver_stats:
            continue
        reported += 1
        for key in agg:
            agg[key] += o.solver_stats.get(key, 0)
    agg["runs_reporting"] = reported
    agg["hit_rate"] = agg["hits"] / agg["queries"] if agg["queries"] else 0.0
    return agg


#: Interned formula nodes alive once this module has imported: the ones
#: the imports themselves create.  :func:`_cold_start` freezes only when
#: no more than these are interned, so no analysis formula is ever frozen.
_IMPORT_INTERNED = intern_table_size()
