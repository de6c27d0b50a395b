"""Process-pool plumbing for ``infer_program(jobs > 1)``.

Rule [TNT-INF] analyzes one call-graph SCC at a time, callees before
callers.  SCCs with no dependency between them are independent, so the
condensation's antichains ("waves") are embarrassingly parallel.
:func:`run_waves` hands every SCC to :func:`repro.core.pipeline.resolve_scc`
as soon as its callee groups are resolved; the cheap rungs (bodyless
group, pre-analysis certificate, spec-store hit) resolve in the parent
and unblock dependents at once, and only the full analysis is dispatched
to a pool of worker processes.

Process model
-------------

* The parent runs the front half of :func:`~repro.core.pipeline.infer_program`
  (prepare, heap-abstract, condensation, store keys) and owns the
  dependency bookkeeping.
* Each worker receives the abstracted program once (pool initializer) and
  then, per task, an SCC plus the summaries of its direct callee groups
  (the only summaries the group's verifier can look up).
  Everything crossing the process boundary is pickled, which the
  hash-consed formula layer supports by re-interning on unpickle (see
  ``LinExpr.__reduce__`` and friends); a worker therefore rebuilds exactly
  the formula graph the parent would have built.
* A worker runs :func:`~repro.core.pipeline.analyze_scc_group` -- the same
  function the in-process path calls -- with a fresh
  :class:`~repro.arith.context.SolverContext`, writes the summaries back
  to the spec store if there is one, and ships back ``(specs, stats
  snapshot)``.  The parent merges snapshots with
  :meth:`~repro.arith.context.SolverStats.merge_dict`; merging is
  commutative addition, so the aggregate is independent of completion
  order.
"""

from __future__ import annotations

import concurrent.futures
import functools
import heapq
import multiprocessing
from typing import Callable, Dict, List, Optional, Set, TYPE_CHECKING

from repro.arith.context import SolverContext, SolverStats
from repro.core.specs import CaseSpec
from repro.lang.ast import Program

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pipeline imports us)
    from repro.store.specstore import SpecStore


# Per-worker-process state installed by the pool initializer: the
# abstracted program, the analysis knobs and the spec store (or None),
# shipped once per worker instead of once per task.
_WORKER_STATE: Dict[str, object] = {}


def _init_worker(
    program: Program,
    max_iter: int,
    time_budget: float,
    spec_store: Optional["SpecStore"],
) -> None:
    _WORKER_STATE["program"] = program
    _WORKER_STATE["max_iter"] = max_iter
    _WORKER_STATE["time_budget"] = time_budget
    _WORKER_STATE["spec_store"] = spec_store


def _analyze_scc_task(
    scc: List[str],
    callee_specs: Dict[str, CaseSpec],
    key: Optional[str],
):
    """Worker body: the full analysis of one SCC against its callee
    summaries, in a fresh context.  Returns ``(specs, stats_snapshot)``,
    the snapshot a plain dict (picklable, mergeable in any order)."""
    from repro.core.pipeline import analyze_scc_group

    state = _WORKER_STATE
    ctx = SolverContext(stats=SolverStats())
    specs = analyze_scc_group(
        state["program"], scc, callee_specs, key, state["spec_store"],
        state["max_iter"], state["time_budget"], ctx,
    )
    return specs, ctx.stats.as_dict()


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


def run_waves(
    program: Program,
    sccs: List[List[str]],
    deps: List[Set[int]],
    keys: List[Optional[str]],
    solved: Dict[str, CaseSpec],
    resolve: Callable,
    stats: SolverStats,
    jobs: int,
    max_iter: int,
    time_budget: float,
    spec_store: Optional["SpecStore"],
) -> None:
    """Resolve every SCC into *solved*, full analyses on *jobs* workers.

    ``resolve(i, dispatch)`` is the driver's per-SCC step
    (:func:`repro.core.pipeline.resolve_scc`): it returns SCC *i*'s
    summaries, or calls ``dispatch()`` -- which submits the full analysis
    to the pool -- and returns that future.  Ready SCCs are taken lowest
    index first, i.e. in callee-first order.
    """
    dependents: List[Set[int]] = [set() for _ in sccs]
    for i, dep in enumerate(deps):
        for j in dep:
            dependents[j].add(i)
    remaining = [set(d) for d in deps]
    # A worklist rather than recursion: a long chain of SCCs resolved in
    # the parent (bodyless groups, certificates, store hits) would
    # otherwise nest one stack frame per SCC.
    ready = [i for i, dep in enumerate(deps) if not dep]
    heapq.heapify(ready)
    pending: Dict[concurrent.futures.Future, int] = {}

    def finish(i: int, specs: Dict[str, CaseSpec]) -> None:
        solved.update(specs)
        for k in dependents[i]:
            remaining[k].discard(i)
            if not remaining[k]:
                heapq.heappush(ready, k)

    with concurrent.futures.ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=worker_mp_context(),
        initializer=_init_worker,
        initargs=(program, max_iter, time_budget, spec_store),
    ) as pool:

        def dispatch(i: int) -> concurrent.futures.Future:
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
            return pool.submit(
                _analyze_scc_task, sccs[i], callee_specs, keys[i]
            )

        while True:
            while ready:
                i = heapq.heappop(ready)
                out = resolve(i, functools.partial(dispatch, i))
                if isinstance(out, concurrent.futures.Future):
                    pending[out] = i
                else:
                    finish(i, out)
            if not pending:
                break
            done, _ = concurrent.futures.wait(
                pending, return_when=concurrent.futures.FIRST_COMPLETED
            )
            for fut in done:
                i = pending.pop(fut)
                specs, snapshot = fut.result()  # worker errors re-raise
                stats.merge_dict(snapshot)
                finish(i, specs)
