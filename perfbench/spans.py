"""Layer tracing for the benchmark, done entirely from the benchmark's files.

A :class:`Tracer` replaces the public functions of each layer of ``repro``
with timing wrappers (:data:`LAYERS`), runs the workload, and puts every
original back.  Each wrapper records a span: its duration goes to the
layer's *self time* minus the time its child spans covered, so nested
layers (``core.nonterm`` calling ``arith.sat`` calling ``arith.cube_sat``)
are never counted twice.  Span stacks are per thread, so the analysis
daemon's worker threads and its event-loop thread trace independently.

Wrappers are installed at the name the *caller* looks up: a module that did
``from repro.core.nonterm import prove_nonterm`` holds its own reference,
so both that module's attribute and the defining module's are patched.

This module imports nothing from ``repro`` at import time; the layer table
is resolved when :meth:`Tracer.install` runs.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (layer, [(module, attribute path)], outcome counter) per traced layer.
#: An attribute path ``Cls.meth`` patches the method on the class.  The
#: outcome counter, when given, is ``(name, predicate)``: the layer's
#: ``name`` count grows by one for each call whose result satisfies it.
LAYERS: Sequence[Tuple[str, Sequence[Tuple[str, str]], Optional[Tuple[str, Callable]]]] = (
    ("lang.parse", (
        ("repro.bench.programs", "parse_program"),
        ("repro.lang.frontends.native", "NativeFrontend.parse"),
        ("repro.lang.frontends.st", "STFrontend.parse"),
    ), None),
    ("lang.desugar", (("repro.core.pipeline", "desugar_program"),), None),
    ("lang.sccs", (
        ("repro.core.pipeline", "method_sccs"),
        ("repro.store.fingerprint", "scc_dependencies"),
    ), None),
    ("analysis.validate", (("repro.analysis.validate", "validate_program"),), None),
    ("seplog.abstract", (("repro.seplog.abstraction", "abstract_program"),), None),
    ("core.pipeline", (
        ("repro.bench.runner", "infer_program"),
        ("repro.core.pipeline", "infer_program"),
    ), None),
    ("core.verifier", (("repro.core.verifier", "Verifier.collect"),), None),
    ("core.classify", (("repro.core.pipeline", "classify"),), None),
    ("core.basecase", (
        ("repro.core.solver", "syn_base"),
        ("repro.core.solver", "refine_base"),
    ), None),
    ("core.specialize", (
        ("repro.core.solver", "specialize_pre"),
        ("repro.core.solver", "specialize_post"),
    ), None),
    ("core.ranking", (
        ("repro.core.ranking", "RankSynthesizer.synthesize_linear"),
        ("repro.core.ranking", "RankSynthesizer.synthesize_lexicographic"),
    ), ("found", lambda r: r is not None)),
    ("core.nonterm", (
        ("repro.core.solver", "prove_nonterm"),
        ("repro.core.nonterm", "prove_nonterm"),
    ), ("proved", lambda r: bool(r[0]))),
    ("core.casesplit", (("repro.core.solver", "subst_unk"),),
     ("applied", bool)),
    ("arith.sat", (("repro.arith.context", "SolverContext.is_sat"),), None),
    ("arith.entail", (
        ("repro.arith.context", "SolverContext.entails"),
        ("repro.arith.context", "SolverContext._entails_plain"),
    ), None),
    ("arith.project", (("repro.arith.context", "SolverContext.project"),), None),
    ("arith.simplify", (("repro.arith.context", "SolverContext.simplify"),), None),
    ("arith.dnf", (
        ("repro.arith.context", "to_dnf"),
        ("repro.arith.solver", "to_dnf"),
    ), ("cubes", len)),
    ("arith.cube_sat", (("repro.arith.fm", "cube_is_sat"),), None),
    ("arith.lp", (("repro.arith.farkas", "LPProblem.solve"),), None),
    ("store.keys", (("repro.store.fingerprint", "program_store_keys"),), None),
    ("store.load", (("repro.store.specstore", "SpecStore.load"),), None),
    ("store.save", (("repro.store.specstore", "SpecStore.save"),), None),
    ("corpus.oracle", (("repro.corpus.run", "crosscheck_instance"),), None),
    ("corpus.generate", (("repro.corpus.generate", "generate_instance"),), None),
    # run_tool's self time is what it spends outside the analysis and the
    # program build: cold start, gc toggling, outcome bookkeeping.
    ("bench.cold_start", (("repro.bench.runner", "run_tool"),), None),
)

#: Counting-only hooks (no span): every call counts, and the named
#: outcome counts calls whose result satisfies the predicate.  A call of
#: ``fm._cube_is_sat`` is exactly one cube-sat cache miss.
COUNTERS = (
    ("arith.cube_sat.miss", ("repro.arith.fm", "_cube_is_sat"),
     ("unsat", lambda r: r is False)),
)


class _ThreadState:
    """One thread's span stack and accumulators (no locking needed)."""

    __slots__ = ("stack", "self_s", "calls", "outcomes", "roots")

    def __init__(self) -> None:
        self.stack: List[float] = []  # child time accumulated per open span
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.outcomes: Dict[str, int] = {}
        self.roots: List[Tuple[float, float]] = []  # top-level span intervals


class Tracer:
    """Span recorder with per-thread state; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._threads_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._threads_lock:
                self._threads.append(state)
        return state

    def wrap(self, layer: str, fn: Callable, outcome=None) -> Callable:
        """*fn* recording a *layer* span per call (and *outcome* counts)."""
        clock = self.clock
        state_of = self._state
        outcome_key = f"{layer}.{outcome[0]}" if outcome else None
        outcome_test = outcome[1] if outcome else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            depth = len(stack)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                child = stack[depth]
                # Truncating (not popping) also drops entries of inner spans
                # whose own bookkeeping a timeout signal interrupted.
                del stack[depth:]
                state.self_s[layer] = state.self_s.get(layer, 0.0) + elapsed - child
                state.calls[layer] = state.calls.get(layer, 0) + 1
                if stack:
                    stack[-1] += elapsed
                else:
                    state.roots.append((start, end))
            if outcome_key is not None and outcome_test(result):
                state.outcomes[outcome_key] = state.outcomes.get(outcome_key, 0) + 1
            return result

        return traced

    def count(self, name: str, fn: Callable, outcome) -> Callable:
        """*fn* counting calls under *name* (no span, no timing)."""
        state_of = self._state
        outcome_key = f"{name}.{outcome[0]}"
        outcome_test = outcome[1]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            state = state_of()
            state.calls[name] = state.calls.get(name, 0) + 1
            if outcome_test(result):
                state.outcomes[outcome_key] = state.outcomes.get(outcome_key, 0) + 1
            return result

        return counted

    # -- patching ------------------------------------------------------------

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        # the original comes from owner.__dict__, so methods restore unbound
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every entry point of :data:`LAYERS` and :data:`COUNTERS`."""
        for layer, points, outcome in LAYERS:
            for module, path in points:
                owner, attr = _resolve(module, path)
                self._patch(owner, attr, self.wrap(layer, vars(owner)[attr], outcome))
        for name, (module, path), outcome in COUNTERS:
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, self.count(name, vars(owner)[attr], outcome))

    def uninstall(self) -> None:
        """Put every patched attribute back, most recent patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------------

    def report(self) -> Dict[str, object]:
        """Accumulators summed over threads (JSON-serialisable)."""
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        outcomes: Dict[str, int] = {}
        roots: List[Tuple[float, float]] = []
        with self._threads_lock:
            threads = list(self._threads)
        for st in threads:
            for k, v in st.self_s.items():
                self_s[k] = self_s.get(k, 0.0) + v
            for k, v in st.calls.items():
                calls[k] = calls.get(k, 0) + v
            for k, v in st.outcomes.items():
                outcomes[k] = outcomes.get(k, 0) + v
            roots.extend(st.roots)
        return {"self_s": self_s, "calls": calls, "outcomes": outcomes,
                "roots": sorted(roots)}


def _resolve(module: str, path: str) -> Tuple[object, str]:
    owner: object = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Spans whose self time is reported, in BENCHMARK.json order.
SELF_MS = tuple(layer for layer, _, _ in LAYERS)
#: Layers whose call count is reported.
CALLS = ("core.specialize", "core.ranking", "core.nonterm", "core.casesplit",
         "arith.cube_sat", "arith.lp")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    report: Dict[str, object],
    solver: Dict[str, int],
    serve: Dict[str, float],
    window: Tuple[float, float],
    untraced_s: float,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    *report* is :meth:`Tracer.report` of the traced pass; *solver* the
    pass's summed solver counters (``SolverStats`` field names plus
    ``fm_work_units``); *serve* the service counters (empty outside
    ``service-mix``); *window* the traced pass's ``(start, end)`` on the
    tracer clock; *untraced_s* the same pass's wall time untraced.
    """
    self_s = report["self_s"]
    calls = report["calls"]
    outcomes = report["outcomes"]
    out: Dict[str, Tuple[float, str]] = {}
    for layer in SELF_MS:
        out[f"{layer}.self_ms"] = (1000.0 * self_s.get(layer, 0.0), "ms")
    for layer in CALLS:
        out[f"{layer}.calls"] = (calls.get(layer, 0), "count")
    out["core.ranking.found_ratio"] = (_ratio(
        outcomes.get("core.ranking.found", 0), calls.get("core.ranking", 0)), "ratio")
    out["core.nonterm.proved_ratio"] = (_ratio(
        outcomes.get("core.nonterm.proved", 0), calls.get("core.nonterm", 0)), "ratio")
    out["core.casesplit.applied_ratio"] = (_ratio(
        outcomes.get("core.casesplit.applied", 0), calls.get("core.casesplit", 0)), "ratio")
    out["arith.dnf.cubes"] = (outcomes.get("arith.dnf.cubes", 0), "count")
    misses = calls.get("arith.cube_sat.miss", 0)
    out["arith.cube_sat.misses"] = (misses, "count")
    out["arith.cube_sat.unsat_miss_ratio"] = (_ratio(
        outcomes.get("arith.cube_sat.miss.unsat", 0), misses), "ratio")
    out["arith.fm_work_units"] = (solver.get("fm_work_units", 0), "count")
    for kind in ("sat", "entail", "project"):
        queries = solver.get(f"{kind}_queries", 0)
        out[f"arith.{kind}_queries"] = (queries, "count")
        out[f"arith.{kind}_hit_ratio"] = (_ratio(solver.get(f"{kind}_hits", 0), queries), "ratio")
    hits, miss = solver.get("store_hits", 0), solver.get("store_misses", 0)
    out["store.hits"] = (hits, "count")
    out["store.misses"] = (miss, "count")
    out["store.hit_ratio"] = (_ratio(hits, hits + miss), "ratio")
    for name, unit in (("leaders", "count"), ("joins", "count"),
                       ("cache_hits", "count"), ("dedup_ratio", "ratio"),
                       ("analysis_ms_p50", "ms"), ("wait_ms_p50", "ms"),
                       ("rejected", "count"), ("interned_formulas", "count")):
        out[f"serve.{name}"] = (serve.get(name, 0), unit)
    lo, hi = window
    out["trace.coverage"] = (_ratio(covered(report["roots"], lo, hi), hi - lo), "ratio")
    out["trace.overhead"] = (_ratio(hi - lo, untraced_s), "ratio")
    return out
