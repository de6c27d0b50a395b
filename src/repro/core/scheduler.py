"""Parallel analysis engine: topological waves over the SCC condensation.

Rule [TNT-INF] analyzes one call-graph SCC at a time, callees before
callers.  SCCs with no dependency between them are independent, so the
condensation's antichains ("waves") are embarrassingly parallel.  This
module dispatches *ready* SCCs -- those whose callee groups have all been
resolved -- to a pool of worker processes, feeds completed
:class:`~repro.core.specs.CaseSpec` summaries back to unblock dependent
SCCs, and merges each worker's solver-statistics snapshot into the
program-wide tallies.

Process model
-------------

* The parent prepares (validates, pre-analyzes, desugars) and
  heap-abstracts the program (cheap, sequential),
  computes the condensation via
  :func:`repro.lang.callgraph.scc_dependencies`, and owns the dependency
  bookkeeping.
* Each worker receives the abstracted program once (pool initializer) and
  then, per task, an SCC plus the summaries of its direct callee groups
  (the only summaries the group's verifier can look up).
  Everything crossing the process boundary is pickled, which the
  hash-consed formula layer supports by re-interning on unpickle (see
  ``LinExpr.__reduce__`` and friends); a worker therefore rebuilds exactly
  the formula graph the parent would have built.
* A worker analyzes its SCC with a **fresh**
  :class:`~repro.arith.context.SolverContext` and a fresh
  :class:`~repro.core.specs.DefStore` -- the same scoping the sequential
  driver uses per group -- and ships back ``(specs, stats snapshot)``.
  The parent merges snapshots with
  :meth:`~repro.arith.context.SolverStats.merge_dict`; merging is
  commutative addition, so the aggregate is independent of completion
  order.

The final :class:`~repro.core.pipeline.InferenceResult` lists specs in
the sequential (callee-first) order, not completion order, so reports are
deterministic regardless of scheduling.

With a persistent spec store (:mod:`repro.store`) the parent additionally
fingerprints every SCC up front and resolves cached groups inline at
submission time, dispatching only misses; workers write computed
summaries back through the store's atomic-rename protocol.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
from typing import Dict, List, Optional, Set, TYPE_CHECKING

from repro.arith.context import SolverContext, SolverStats
from repro.core.specs import CaseSpec, DefStore
from repro.lang.callgraph import scc_dependencies
from repro.lang.ast import Program

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pipeline imports us)
    from repro.core.pipeline import InferenceResult


# Per-worker-process state installed by the pool initializer: the
# abstracted program, the analysis knobs and (optionally) the persistent
# spec store's root, shipped once per worker instead of once per task.
_WORKER_STATE: Dict[str, object] = {}


def _init_worker(
    program: Program,
    max_iter: int,
    time_budget: float,
    store_root: Optional[str] = None,
) -> None:
    _WORKER_STATE["program"] = program
    _WORKER_STATE["max_iter"] = max_iter
    _WORKER_STATE["time_budget"] = time_budget
    _WORKER_STATE["store_root"] = store_root


def _analyze_scc_task(
    index: int,
    scc: List[str],
    callee_specs: Dict[str, CaseSpec],
    store_key: Optional[str] = None,
):
    """Worker body: resolve one SCC against its callee summaries.

    Runs in a pool process.  Returns ``(index, specs, stats_snapshot)``
    where *specs* maps method name to its summary and *stats_snapshot* is
    the fresh per-SCC context's counters as a plain dict (picklable, and
    mergeable in any order on the parent).

    When a persistent spec store is active the parent already performed
    the lookup (this task only runs on a miss) and passes the SCC's
    *store_key*; the worker writes its freshly computed summaries back
    through the store's append-then-atomic-rename protocol, which is
    safe with any number of workers (and parents) sharing the directory.
    """
    from repro.core.pipeline import analyze_scc_group

    program = _WORKER_STATE["program"]
    max_iter = _WORKER_STATE["max_iter"]
    time_budget = _WORKER_STATE["time_budget"]
    stats = SolverStats()
    ctx = SolverContext(stats=stats)
    store = DefStore()
    specs = analyze_scc_group(
        program, scc, callee_specs, store, max_iter, time_budget, ctx
    )
    store_root = _WORKER_STATE.get("store_root")
    if store_root is not None and store_key is not None and specs:
        from repro.store.specstore import SpecStore

        SpecStore(store_root).save(store_key, specs)
    return index, specs, stats.as_dict()


def resolve_jobs(jobs: int) -> int:
    """The shared ``jobs`` policy: ``0`` means one worker per CPU;
    negative values are rejected loudly rather than silently degrading
    to the sequential path."""
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        import os

        return os.cpu_count() or 1
    return jobs


def worker_mp_context():
    """The multiprocessing start method for analysis/shard workers.

    ``fork`` is preferred: workers inherit the parent's interned-formula
    tables, module caches and benchmark registry for free.  Where
    ``fork`` is missing (non-POSIX), the default method still works --
    everything a worker needs is shipped through initializer/task
    arguments (the sharded bench runner also uses this helper).
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


def infer_program_parallel(
    program: Program,
    jobs: int,
    max_iter: int = 8,
    desugared: bool = False,
    time_budget: float = 30.0,
    store=None,
    validate: bool = True,
    language: str = "native",
) -> "InferenceResult":
    """Parallel counterpart of :func:`repro.core.pipeline.infer_program`.

    Dispatches ready SCCs to *jobs* worker processes as their dependencies
    resolve.  Each SCC is resolved by the identical group analysis against
    identical callee summaries; spec order and merged statistics are
    deterministic (independent of completion order).  One caveat keeps the
    jobs=1 equivalence empirical rather than structural: fresh-variable
    numbering advances per process, so heuristic tie-breaking that feeds
    on generated names can in principle steer a group's search differently
    than the sequential sweep would (see docs/parallel.md) -- every tested
    program produces identical verdicts.

    With a persistent spec *store* (path or
    :class:`repro.store.specstore.SpecStore`), the parent looks each SCC
    up by structural fingerprint at submission time: a hit resolves the
    group instantly -- no worker round-trip -- and immediately unblocks
    its dependents in the wave structure, so a fully warm store collapses
    the whole run to a sequence of cache loads.  Misses are dispatched
    normally and the *worker* writes the computed summaries back
    (atomic-rename protocol, safe under ``jobs=N``).  Hits/misses/
    invalidations are counted in the returned ``solver_stats``.

    The returned result carries ``contexts=None`` and an **empty**
    ``store``: per-SCC contexts and definition stores live and die in the
    workers, and summaries are flattened to case form before they travel.
    Callers that walk ``result.store`` must use the sequential path.

    The parent runs the same front end as the sequential path
    (:func:`repro.core.pipeline.prepare_program`, skipped for
    ``desugared=True`` input).  Quick-certified SCCs resolve inline at
    submission time -- exactly like store hits, no worker round-trip --
    and seeded contracts plus ranking hints travel to the workers on the
    program itself.
    """
    from repro.core.pipeline import (
        InferenceResult,
        lookup_cached_specs,
        prepare_program,
        quick_scc_specs,
    )
    from repro.seplog.abstraction import abstract_program
    from repro.store.specstore import as_store

    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    stats = SolverStats()
    prefacts = None if desugared else prepare_program(program, validate, stats)
    if prefacts is not None:
        program = prefacts.desugared
    program = abstract_program(program, ctx=SolverContext(stats=stats))

    spec_store = as_store(store)
    # Parent-side context for materialising quick-verdict specs (cheap
    # is_sat/simplify calls); feeds the program-wide stats like any
    # other context.
    quick_ctx = SolverContext(stats=stats)
    sccs, deps = scc_dependencies(program)
    if spec_store is not None:
        from repro.store.fingerprint import scc_store_keys

        keys: List[Optional[str]] = scc_store_keys(
            program, sccs, deps, max_iter, time_budget, language
        )
    else:
        keys = [None] * len(sccs)
    dependents: List[Set[int]] = [set() for _ in sccs]
    for i, dep in enumerate(deps):
        for j in dep:
            dependents[j].add(i)

    solved: Dict[str, CaseSpec] = {}
    pool_ctx = worker_mp_context()
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=pool_ctx,
        initializer=_init_worker,
        initargs=(
            program, max_iter, time_budget,
            str(spec_store.root) if spec_store is not None else None,
        ),
    ) as pool:
        remaining: List[Set[int]] = [set(d) for d in deps]
        submitted = [False] * len(sccs)
        pending: Dict[concurrent.futures.Future, int] = {}
        # SCCs whose dependencies have all resolved, awaiting dispatch.
        # A worklist (drained iteratively below) rather than recursive
        # submission: groups resolved inline -- bodyless ones, and store
        # hits on a warm run -- would otherwise nest submit()->finish()
        # one stack frame per SCC, overflowing on long call chains.
        ready: List[int] = []

        def finish(i: int, specs: Dict[str, CaseSpec]) -> None:
            solved.update(specs)
            for k in sorted(dependents[i]):
                remaining[k].discard(i)
                if not remaining[k] and not submitted[k]:
                    ready.append(k)

        def submit(i: int) -> None:
            submitted[i] = True
            body_methods = [
                name for name in sccs[i]
                if program.methods[name].body is not None
            ]
            if not body_methods:
                # Bodyless (extern-only) groups have nothing to analyze;
                # completing them inline spares a worker round-trip and
                # lets their dependents dispatch immediately.
                finish(i, {})
                return
            if prefacts is not None and len(body_methods) == 1:
                # Quick-certified loops resolve in the parent, like
                # store hits: no worker round-trip, dependents unblock
                # immediately.
                quick = quick_scc_specs(
                    program, body_methods[0], prefacts, quick_ctx, stats
                )
                if quick is not None:
                    finish(i, quick)
                    return
            if spec_store is not None:
                # Store lookups happen in the parent so a cached SCC
                # resolves instantly -- its dependents dispatch from
                # right here instead of waiting on a worker round-trip.
                cached = lookup_cached_specs(
                    spec_store, keys[i], body_methods, stats
                )
                if cached is not None:
                    finish(i, cached)
                    return
            # The verifier only ever looks up summaries of *direct* call
            # sites, so shipping the direct callee groups' specs is both
            # sufficient and keeps per-task payloads linear in the
            # condensation's edge count.
            callee_specs = {
                name: solved[name]
                for j in sorted(deps[i])
                for name in sccs[j]
                if name in solved
            }
            fut = pool.submit(
                _analyze_scc_task, i, sccs[i], callee_specs, keys[i]
            )
            pending[fut] = i

        def drain_ready() -> None:
            while ready:
                i = ready.pop()
                if not submitted[i]:
                    submit(i)

        for i, dep in enumerate(remaining):
            if not dep:
                ready.append(i)
        drain_ready()
        while pending:
            done, _ = concurrent.futures.wait(
                pending, return_when=concurrent.futures.FIRST_COMPLETED
            )
            for fut in done:
                i = pending.pop(fut)
                _idx, specs, snapshot = fut.result()  # worker errors re-raise
                stats.merge_dict(snapshot)
                finish(i, specs)
            drain_ready()

    # Re-list the summaries in the sequential callee-first order so the
    # result is byte-identical no matter which worker finished first.
    ordered: Dict[str, CaseSpec] = {}
    for scc in sccs:
        for name in scc:
            if name in solved:
                ordered[name] = solved[name]
    # Per-SCC contexts live and die in the workers; post-hoc queries
    # (e.g. verdict classification) run against the default context.
    return InferenceResult(
        program=program, specs=ordered, store=DefStore(), solver_stats=stats,
        contexts=None,
    )
