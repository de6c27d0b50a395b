"""Whole-program driver: bottom-up modular inference over the call graph.

For each call-graph SCC (callees first -- rule [TNT-INF]):

1. attach a fresh unknown pair to every method of the group;
2. run the assumption-generating verifier over each body;
3. filter trivial assumptions ([TNT-CALL]);
4. run :class:`repro.core.solver.TNTSolver` on the group;
5. flatten the resolved definitions into per-method :class:`CaseSpec`
   summaries, which subsequent (caller) groups consume -- this is the
   modularity/reuse claim of the paper.

Source programs first go through :func:`prepare_program` (validation,
the interval pre-analysis and desugaring); programs containing heap
statements are then numerically abstracted by :mod:`repro.seplog`
before the pure pipeline runs.

Summaries are pure functions of (procedure body, callee summaries), so
step 1-5 can be skipped entirely for an SCC whose structural fingerprint
is already in a persistent spec store (``store=`` on
:func:`infer_program`; :mod:`repro.store`, ``docs/store.md``) -- the
cached :class:`CaseSpec` summaries feed callers exactly as freshly
computed ones would.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, TYPE_CHECKING, Tuple, Union

from repro.arith.context import SolverContext, SolverStats
from repro.arith.solver import is_sat
from repro.core.assumptions import filter_post, filter_trivial
from repro.core.predicates import Loop, MayLoop, Term
from repro.core.solver import TNTSolver
from repro.core.specs import CaseSpec, DefStore
from repro.core.verifier import MethodAssumptions, Verifier, VerifierError
from repro.lang import desugar_program, method_sccs, parse_program
from repro.lang.ast import Program
from repro.lang.desugar import LoopOrigin

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.prefacts import PreFacts
    from repro.store.specstore import SpecStore

#: What callers may pass as ``store=``: a directory path or an open
#: :class:`repro.store.specstore.SpecStore` (``None`` disables caching).
StoreArg = Union[None, str, "SpecStore"]


@contextmanager
def fresh_name_scope() -> Iterator[None]:
    """Run the enclosed analysis with private, zero-based fresh-name
    counters (formula fresh variables, nondet names, fresh pointers).

    This is what makes :func:`infer_program` *reentrant and
    thread-dispatchable* in a long-lived process: the counters are
    :class:`contextvars.ContextVar`-backed, so the scope is local to the
    current thread/task -- concurrent analyses neither perturb each
    other's generated names nor inherit the process's history, and the
    same source therefore desugars/abstracts to byte-identical structures
    (hence identical store fingerprints, :mod:`repro.store.fingerprint`)
    on every call.  Name reuse *across* scopes is sound: a formula's
    meaning is a pure function of its structure, and formulas from
    different analyses never mix free variables inside one query --
    structurally identical ones interning to the same node is exactly
    what makes resident caches warm across requests (``docs/serve.md``).
    """
    from repro.arith import formula as _formula
    from repro.lang import to_arith as _to_arith
    from repro.seplog import heap as _heap

    f_tok = _formula.fresh_scope()
    a_tok = _to_arith.fresh_scope()
    h_tok = _heap.fresh_ptr_scope()
    try:
        yield
    finally:
        _heap.exit_fresh_ptr_scope(h_tok)
        _to_arith.exit_fresh_scope(a_tok)
        _formula.exit_fresh_scope(f_tok)


class Verdict(enum.Enum):
    """Whole-method classification in SV-COMP style."""

    TERMINATING = "Y"       # proven terminating for all inputs
    NONTERMINATING = "N"    # some input provably diverges
    UNKNOWN = "U"

    def __str__(self) -> str:
        return self.value


@dataclass
class InferenceResult:
    """Summaries and per-method verdicts for a whole program."""

    program: Program
    specs: Dict[str, CaseSpec]
    store: DefStore
    solver_stats: Optional[SolverStats] = None
    # per-method solver context (the SCC context the method was resolved
    # with), so post-hoc queries such as classification reuse warm caches
    # and are counted in solver_stats
    contexts: Optional[Dict[str, SolverContext]] = None

    def verdict(self, method: str) -> Verdict:
        ctx = self.contexts.get(method) if self.contexts else None
        return classify(self.specs[method], ctx=ctx)

    def pretty(self) -> str:
        return "\n\n".join(spec.pretty() for spec in self.specs.values())


def classify(spec: CaseSpec, ctx: Optional[SolverContext] = None) -> Verdict:
    """Collapse a case summary to a Y/N/U verdict.

    ``Y`` -- every feasible case is ``Term`` (termination for all inputs);
    ``N`` -- some feasible case is ``Loop`` (a diverging input exists);
    ``U`` -- otherwise (some ``MayLoop`` case and no definite ``Loop``).
    """
    has_loop = False
    has_mayloop = False
    for case in spec.cases:
        if not is_sat(case.guard, ctx):
            continue
        if isinstance(case.pred, Loop):
            has_loop = True
        elif isinstance(case.pred, MayLoop):
            has_mayloop = True
        elif not isinstance(case.pred, Term):
            raise TypeError(f"unexpected predicate {case.pred!r}")
    if has_loop:
        return Verdict.NONTERMINATING
    if has_mayloop:
        return Verdict.UNKNOWN
    return Verdict.TERMINATING


def analyze_scc_group(
    program: Program,
    scc: List[str],
    solved: Dict[str, CaseSpec],
    store: DefStore,
    max_iter: int,
    time_budget: float,
    ctx: SolverContext,
) -> Dict[str, CaseSpec]:
    """Resolve one call-graph SCC into per-method case summaries.

    This is the [TNT-INF] body shared by the sequential driver below and
    the parallel wave scheduler (:mod:`repro.core.scheduler`): it reads
    the callee summaries it needs from *solved*, works inside *store* and
    *ctx*, and returns the group's summaries in group-method order without
    mutating *solved* -- the caller decides how results flow back (direct
    dict update here; a pipe from a worker process in the scheduler).
    """
    group_methods = [
        program.methods[name]
        for name in scc
        if program.methods[name].body is not None
    ]
    if not group_methods:
        return {}
    # Pre-analysis ranking hints ride on the Method nodes themselves, so
    # they survive pickling into scheduler workers with no extra plumbing.
    rank_focus = {
        m.name: m.rank_hints for m in group_methods if m.rank_hints
    }
    pairs = {
        m.name: f"U0@{m.name}" for m in group_methods
    }
    for m in group_methods:
        store.register_root(pairs[m.name], tuple(m.param_names))
    verifier = Verifier(program, pairs=pairs, solved=solved, ctx=ctx)
    group: List[MethodAssumptions] = []
    mutual = set(pairs.values())
    for m in group_methods:
        ma = verifier.collect(m)
        ma.pre_assumptions = filter_trivial(
            ma.pre_assumptions, mutually_recursive=mutual, ctx=ctx
        )
        ma.post_assumptions = filter_post(ma.post_assumptions, ctx=ctx)
        group.append(ma)
    TNTSolver(
        store, max_iter=max_iter, time_budget=time_budget, ctx=ctx,
        rank_focus=rank_focus or None,
    ).solve(group)
    from repro.arith.formula import TRUE as _TRUE

    specs: Dict[str, CaseSpec] = {}
    for m in group_methods:
        requires = m.requires if m.requires is not None else _TRUE
        specs[m.name] = store.case_spec(
            pairs[m.name], m.name, tuple(m.param_names),
            context=requires, ctx=ctx,
        )
    return specs


def lookup_cached_specs(
    spec_store: "SpecStore",
    key: str,
    body_methods: List[str],
    stats: SolverStats,
) -> Optional[Dict[str, CaseSpec]]:
    """Consult the persistent spec store for one SCC; account the outcome.

    Returns the cached group summaries on a hit (``stats.store_hits``),
    ``None`` on a miss (``stats.store_misses``).  Entries that existed but
    were rejected -- corrupt file, stale format version, or a method set
    that does not match the fingerprint's SCC -- additionally count as
    ``stats.store_invalidations`` and degrade to a miss, so a damaged
    store can slow an analysis down but never change its answer.
    Shared by the sequential driver below and the parallel scheduler.
    """
    cached, rejected = spec_store.load(key)
    if rejected:
        stats.store_invalidations += 1
    if cached is not None and set(cached) != set(body_methods):
        stats.store_invalidations += 1
        cached = None
    if cached is None:
        stats.store_misses += 1
        return None
    stats.store_hits += 1
    return cached


def prepare_program(
    program: Program,
    validate: bool = True,
    stats: Optional[SolverStats] = None,
) -> "PreFacts":
    """The front end every *source* program goes through.

    Validate (errors raise
    :class:`~repro.analysis.diagnostics.ProgramInvalid`; ``validate=False``
    skips the lint layer), prune dead code with interval facts, desugar
    loops into tail-recursive methods, then seed loop-method contracts,
    attach ranking hints and record quick verdicts
    (:mod:`repro.analysis.prefacts`).  The returned ``desugared`` program
    is what the pipeline analyzes.  With *stats*, seeded contracts are
    counted in ``stats.pre_seeded``.  Shared by :func:`infer_program` and
    the parallel scheduler.
    """
    # local imports: repro.analysis imports the core; looking validate_program
    # up at call time also lets instrumentation wrap the module attribute
    from repro.analysis.diagnostics import ProgramInvalid, errors
    from repro.analysis.prefacts import PreFacts, annotate, prune_program
    from repro.analysis.validate import validate_program

    diags = validate_program(program) if validate else []
    if errors(diags):
        raise ProgramInvalid(diags)
    source, method_facts, pruned = prune_program(program, diags)
    origins: Dict[str, LoopOrigin] = {}
    pre = PreFacts(
        source=source,
        desugared=desugar_program(source, origin_out=origins),
        diagnostics=diags,
        origins=origins,
        pruned=pruned,
    )
    annotate(pre, method_facts)
    if stats is not None:
        stats.pre_seeded += len(pre.seeded)
    return pre


def quick_scc_specs(
    program: Program,
    name: str,
    prefacts,
    ctx: SolverContext,
    stats: SolverStats,
) -> Optional[Dict[str, CaseSpec]]:
    """Resolve a singleton SCC from its pre-analysis quick verdict.

    Returns ``None`` when the method has no certificate (or its
    precondition voids it) -- the caller falls back to the store and the
    full analysis.  Accounted in ``stats.pre_quick``; shared by the
    sequential driver and the parallel scheduler.
    """
    verdict = prefacts.quick.get(name)
    if verdict is None:
        return None
    from repro.analysis.quick import build_quick_spec  # local: avoid cycle

    spec = build_quick_spec(program.methods[name], verdict, ctx)
    if spec is None:
        return None
    stats.pre_quick += 1
    return {name: spec}


def infer_program(
    program: Program,
    max_iter: int = 8,
    desugared: bool = False,
    time_budget: float = 30.0,
    solver_ctx: Optional[SolverContext] = None,
    jobs: int = 1,
    store: StoreArg = None,
    validate: bool = True,
    isolate_names: bool = False,
    language: str = "native",
) -> InferenceResult:
    """Infer termination/non-termination summaries for every method.

    Parameters
    ----------
    program:
        The (parsed) program to analyze.
    max_iter:
        Refinement-iteration bound per SCC for the TNT solver.
    desugared:
        Pass ``True`` when *program* already went through
        :func:`repro.lang.desugar_program` (loops lifted to tail
        recursion); it is then analyzed as given.  Otherwise it goes
        through :func:`prepare_program` first: validation, dead-code
        pruning, desugaring, contract seeding, ranking hints and quick
        verdicts that resolve certified loop SCCs without the TNT
        solver (``solver_stats.pre_quick`` / ``pre_seeded``; see
        ``docs/analysis.md``).
    time_budget:
        Wall-clock budget (seconds) for each SCC's TNT solving loop; on
        expiry the group degrades to weaker (``MayLoop``) cases instead
        of raising.
    solver_ctx:
        Share one caller-owned :class:`~repro.arith.context.SolverContext`
        across every group (and the heap abstraction).  Default: each
        SCC gets its own fresh context, all feeding one program-wide
        :class:`~repro.arith.context.SolverStats`.
    jobs:
        ``1`` (default) analyzes SCCs sequentially, callees first.
        ``jobs > 1`` dispatches independent SCCs to that many worker
        processes via the wave scheduler
        (:func:`repro.core.scheduler.infer_program_parallel`);
        ``jobs=0`` means one worker per CPU.  Requires ``solver_ctx``
        to be ``None`` -- contexts cannot cross process boundaries.
    store:
        ``None`` (default) recomputes everything.  A directory path or
        :class:`repro.store.specstore.SpecStore` enables the persistent
        summary cache (see ``docs/store.md``): before an SCC is
        analyzed, its structural fingerprint -- body digests combined
        with transitively-reached callee digests and the ``max_iter`` /
        ``time_budget`` knobs -- is looked up, and a hit replays the
        stored :class:`~repro.core.specs.CaseSpec` summaries without
        re-analysis.  Misses are analyzed normally and written back
        (atomic rename, safe under ``jobs=N``).  Lookups are accounted
        in ``solver_stats`` (``store_hits`` / ``store_misses`` /
        ``store_invalidations``).
    validate:
        Lint the source program first (default): validation *errors*
        (undefined variables, unknown callees, arity mismatches, ...)
        raise :class:`repro.analysis.diagnostics.ProgramInvalid` with
        position-carrying diagnostics instead of surfacing as internal
        errors mid-pipeline.  Skipped for ``desugared=True`` input.
    language:
        Name of the source frontend the program came from (see
        :mod:`repro.lang.frontends`).  Only store keys depend on it:
        non-native frontends are salted into the SCC fingerprints so
        summaries of lowered programs never alias native ones.  The
        default keeps native keys byte-identical to the pre-frontend
        scheme.
    isolate_names:
        Run the whole inference inside :func:`fresh_name_scope`: private
        zero-based fresh-name counters, local to the calling thread/task.
        This makes the call reentrant and safely dispatchable to worker
        threads (the analysis daemon, :mod:`repro.serve`, sets it): no
        process-global counter state is read or written, and the same
        source yields the same generated names -- hence the same store
        fingerprints -- on every call, with no cold-start reset.  The
        default (``False``) preserves the historical process-global
        numbering the bench cold-start protocol manages explicitly.

    Returns
    -------
    InferenceResult
        Summaries in callee-first order plus program-wide solver
        statistics.  Caveats: with ``jobs > 1`` the result carries
        ``contexts=None`` and an empty definition store; with a spec
        store, SCCs resolved from cache have no entries in
        ``result.store`` either (their definition trees were never
        rebuilt) -- callers that walk ``result.store`` must run cold
        and sequential.
    """
    from repro.core.scheduler import resolve_jobs

    if isolate_names:
        with fresh_name_scope():
            return infer_program(
                program, max_iter=max_iter, desugared=desugared,
                time_budget=time_budget, solver_ctx=solver_ctx, jobs=jobs,
                store=store, validate=validate, language=language,
            )

    jobs = resolve_jobs(jobs)
    if jobs > 1 and solver_ctx is None:
        from repro.core.scheduler import infer_program_parallel

        return infer_program_parallel(
            program, jobs=jobs, max_iter=max_iter, desugared=desugared,
            time_budget=time_budget, store=store, validate=validate,
            language=language,
        )

    from repro.seplog.abstraction import abstract_program  # local: optional dep
    from repro.store.specstore import as_store

    stats = solver_ctx.stats if solver_ctx is not None else SolverStats()

    def group_ctx() -> SolverContext:
        if solver_ctx is not None:
            return solver_ctx
        return SolverContext(stats=stats)

    prefacts = None if desugared else prepare_program(program, validate, stats)
    if prefacts is not None:
        program = prefacts.desugared
    program = abstract_program(program, ctx=group_ctx())
    spec_store = as_store(store)
    if spec_store is not None:
        from repro.store.fingerprint import program_store_keys

        sccs, _deps, keys = program_store_keys(
            program, max_iter, time_budget, language
        )
    else:
        sccs = method_sccs(program)
        keys = [None] * len(sccs)
    def_store = DefStore()
    solved: Dict[str, CaseSpec] = {}
    contexts: Dict[str, SolverContext] = {}
    for scc, key in zip(sccs, keys):
        ctx = group_ctx()
        body_methods = [
            n for n in scc if program.methods[n].body is not None
        ]
        specs = None
        if prefacts is not None and len(body_methods) == 1:
            specs = quick_scc_specs(program, body_methods[0], prefacts, ctx, stats)
        cacheable = spec_store is not None and bool(body_methods) and specs is None
        if cacheable:
            specs = lookup_cached_specs(spec_store, key, body_methods, stats)
        if specs is None:
            specs = analyze_scc_group(
                program, scc, solved, def_store, max_iter, time_budget, ctx
            )
            if cacheable and specs:
                spec_store.save(key, specs)
        for name, spec in specs.items():
            solved[name] = spec
            contexts[name] = ctx
    return InferenceResult(
        program=program, specs=solved, store=def_store, solver_stats=stats,
        contexts=contexts,
    )


def infer_source(
    source: str, max_iter: int = 8, time_budget: float = 30.0,
    jobs: int = 1, store: StoreArg = None,
    validate: bool = True, isolate_names: bool = False,
    language: Optional[str] = None, filename: Optional[str] = None,
) -> InferenceResult:
    """Parse, desugar and infer a program given as concrete syntax.

    ``language`` selects the source frontend by name (see
    :mod:`repro.lang.frontends`; ``None`` sniffs *filename*'s extension
    when given and otherwise means the ``native`` C-like syntax).
    ``jobs``, ``store``, ``validate`` and ``isolate_names`` are
    forwarded to :func:`infer_program` unchanged (parallel SCC analysis;
    persistent summary cache; lint layer; reentrant thread-dispatchable
    name scoping)."""
    from repro.lang.frontends import (
        DEFAULT_LANGUAGE,
        get_frontend,
        language_for_path,
    )

    if language is None and filename is not None:
        language = language_for_path(filename, default=DEFAULT_LANGUAGE)
    frontend = get_frontend(language)
    return infer_program(
        frontend.parse(source, filename=filename),
        max_iter=max_iter, time_budget=time_budget,
        jobs=jobs, store=store, validate=validate,
        isolate_names=isolate_names, language=frontend.name,
    )
