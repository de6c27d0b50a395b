"""Whole-program driver: bottom-up modular inference over the call graph.

For each call-graph SCC (callees first -- rule [TNT-INF]):

1. attach a fresh unknown pair to every method of the group;
2. run the assumption-generating verifier over each body;
3. filter trivial assumptions ([TNT-CALL]);
4. run :class:`repro.core.solver.TNTSolver` on the group;
5. flatten the resolved definitions into per-method :class:`CaseSpec`
   summaries, which subsequent (caller) groups consume -- this is the
   modularity/reuse claim of the paper.

:func:`resolve_scc` is that per-group step, tried cheapest rung first
(bodyless group, pre-analysis certificate, spec-store hit, full
analysis); :func:`infer_program` runs it over the SCCs one at a time,
callees first, in one process.

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
from typing import Dict, Iterator, List, Optional, TYPE_CHECKING, Union

from repro.arith.context import SolverContext, SolverStats
from repro.core.assumptions import filter_post, filter_trivial
from repro.core.predicates import Loop, MayLoop, Term
from repro.core.solver import TNTSolver
from repro.core.specs import CaseSpec, DefStore
from repro.core.verifier import MethodAssumptions, Verifier
from repro.lang import desugar_program, method_sccs
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
    solver_stats: SolverStats
    # per-method solver context (the SCC context the method was resolved
    # with), so post-hoc queries such as classification reuse warm caches
    # and are counted in solver_stats
    contexts: Dict[str, SolverContext]

    def verdict(self, method: str) -> Verdict:
        return classify(self.specs[method], ctx=self.contexts[method])

    def pretty(self) -> str:
        return "\n\n".join(spec.pretty() for spec in self.specs.values())


def classify(spec: CaseSpec, ctx: SolverContext) -> Verdict:
    """Collapse a case summary to a Y/N/U verdict.

    ``Y`` -- every feasible case is ``Term`` (termination for all inputs);
    ``N`` -- some feasible case is ``Loop`` (a diverging input exists);
    ``U`` -- otherwise (some ``MayLoop`` case and no definite ``Loop``).
    """
    has_loop = False
    has_mayloop = False
    for case in spec.cases:
        if not ctx.is_sat(case.guard):
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
    key: Optional[str],
    spec_store: Optional["SpecStore"],
    max_iter: int,
    time_budget: float,
    ctx: SolverContext,
) -> Dict[str, CaseSpec]:
    """The full analysis of one call-graph SCC: the last rung of
    :func:`resolve_scc`.

    Reads the callee summaries it needs from *solved*, builds the group's
    definitions in a fresh :class:`DefStore` inside *ctx*, and returns
    the group's summaries in group-method order without mutating
    *solved*.  With a *spec_store* the summaries are written back under
    *key*.
    """
    group_methods = [
        program.methods[name]
        for name in scc
        if program.methods[name].body is not None
    ]
    if not group_methods:
        return {}
    rank_focus = {
        m.name: m.rank_hints for m in group_methods if m.rank_hints
    }
    pairs = {
        m.name: f"U0@{m.name}" for m in group_methods
    }
    store = DefStore()
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
    if spec_store is not None:
        spec_store.save(key, specs)
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
    A rung of :func:`resolve_scc`.
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
    counted in ``stats.pre_seeded``.
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
) -> Optional[Dict[str, CaseSpec]]:
    """Resolve a singleton SCC from its pre-analysis quick verdict.

    Returns ``None`` when the method has no certificate (or its
    precondition voids it) -- the caller falls back to the store and the
    full analysis.  Accounted in ``ctx.stats.pre_quick``; a rung of
    :func:`resolve_scc`.
    """
    verdict = prefacts.quick.get(name)
    if verdict is None:
        return None
    from repro.analysis.quick import build_quick_spec  # local: avoid cycle

    spec = build_quick_spec(program.methods[name], verdict, ctx)
    if spec is None:
        return None
    ctx.stats.pre_quick += 1
    return {name: spec}


def resolve_scc(
    program: Program,
    scc: List[str],
    key: Optional[str],
    solved: Dict[str, CaseSpec],
    prefacts: Optional["PreFacts"],
    spec_store: Optional["SpecStore"],
    max_iter: int,
    time_budget: float,
    ctx: SolverContext,
) -> Dict[str, CaseSpec]:
    """Resolve one call-graph SCC: the per-group step of [TNT-INF].

    The ladder, cheapest rung first: a group without bodies has nothing
    to summarise; a singleton with a pre-analysis certificate resolves
    from it (:func:`quick_scc_specs`); a spec-store hit replays the
    stored summaries (:func:`lookup_cached_specs`); anything else gets
    the full analysis (:func:`analyze_scc_group`) in *ctx*, which is
    fresh per SCC.
    """
    body_methods = [n for n in scc if program.methods[n].body is not None]
    if not body_methods:
        return {}
    if prefacts is not None and len(body_methods) == 1:
        specs = quick_scc_specs(program, body_methods[0], prefacts, ctx)
        if specs is not None:
            return specs
    if spec_store is not None:
        specs = lookup_cached_specs(spec_store, key, body_methods, ctx.stats)
        if specs is not None:
            return specs
    return analyze_scc_group(
        program, scc, solved, key, spec_store, max_iter, time_budget, ctx
    )


def infer_program(
    program: Program,
    max_iter: int = 8,
    desugared: bool = False,
    time_budget: float = 30.0,
    store: StoreArg = None,
    validate: bool = True,
    language: str = "native",
) -> InferenceResult:
    """Infer termination/non-termination summaries for every method.

    The whole call runs inside :func:`fresh_name_scope`, so it neither
    reads nor advances the caller's fresh-name counters: the same program
    yields the same generated names -- hence the same specs and store
    fingerprints -- on every call, in any thread.

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
    store:
        ``None`` (default) recomputes everything.  A directory path or
        :class:`repro.store.specstore.SpecStore` enables the persistent
        summary cache (see ``docs/store.md``): before an SCC is
        analyzed, its structural fingerprint -- body digests combined
        with transitively-reached callee digests and the ``max_iter`` /
        ``time_budget`` knobs -- is looked up, and a hit replays the
        stored :class:`~repro.core.specs.CaseSpec` summaries without
        re-analysis.  Misses are analyzed normally and written back
        (atomic rename).  Lookups are accounted
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

    Returns
    -------
    InferenceResult
        Summaries in callee-first order plus program-wide solver
        statistics.  Every SCC is resolved by :func:`resolve_scc` in a
        fresh :class:`~repro.arith.context.SolverContext`, and all of
        them feed one :class:`~repro.arith.context.SolverStats`.
    """
    from repro.seplog.abstraction import abstract_program  # local: optional dep
    from repro.store.specstore import as_store

    spec_store = as_store(store)
    with fresh_name_scope():
        stats = SolverStats()
        prefacts = None if desugared else prepare_program(program, validate, stats)
        if prefacts is not None:
            program = prefacts.desugared
        program = abstract_program(program, ctx=SolverContext(stats=stats))
        if spec_store is not None:
            from repro.store.fingerprint import program_store_keys

            sccs, _deps, keys = program_store_keys(
                program, max_iter, time_budget, language
            )
        else:
            sccs = method_sccs(program)
            keys = [None] * len(sccs)
        specs: Dict[str, CaseSpec] = {}
        contexts: Dict[str, SolverContext] = {}
        for scc, key in zip(sccs, keys):
            ctx = SolverContext(stats=stats)
            scc_specs = resolve_scc(
                program, scc, key, specs, prefacts, spec_store,
                max_iter, time_budget, ctx,
            )
            specs.update(scc_specs)
            contexts.update(dict.fromkeys(scc_specs, ctx))
    return InferenceResult(
        program=program, specs=specs, solver_stats=stats, contexts=contexts,
    )


def infer_source(
    source: str, max_iter: int = 8, time_budget: float = 30.0,
    store: StoreArg = None, validate: bool = True,
    language: Optional[str] = None, filename: Optional[str] = None,
) -> InferenceResult:
    """Parse, desugar and infer a program given as concrete syntax.

    ``language`` selects the source frontend by name (see
    :mod:`repro.lang.frontends`; ``None`` sniffs *filename*'s extension
    when given and otherwise means the ``native`` C-like syntax).
    ``store`` and ``validate`` are forwarded to :func:`infer_program`
    unchanged (persistent summary cache; lint layer)."""
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
        store=store, validate=validate, language=frontend.name,
    )
