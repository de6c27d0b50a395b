"""Decision procedures: SAT, validity, entailment, projection, simplification.

The solver works by DNF conversion followed by Fourier-Motzkin reasoning on
each cube (:mod:`repro.arith.fm`).  Formulas are hash-consed
(:mod:`repro.arith.formula`), so every cache probe below is a pointer
comparison and every formula's hash is computed exactly once.

Completeness note: with the integer tightening performed at atom
construction, the procedure is exact on the unit-two-variable fragment
(difference-bound-like constraints with unit coefficients) that the paper's
verification conditions live in, and remains a sound UNSAT test in general.

**Contexts.**  Since the solver-context refactor, all state lives in
:class:`repro.arith.context.SolverContext` objects: per-context LRU-bounded
sat/entailment/projection caches with hit/miss/eviction statistics, and a
push/pop assumption stack whose DNF cubes are maintained incrementally.
The functions in this module are a thin facade over a process-wide
*default* context, kept for compatibility and for interactive use:

* every function accepts an optional ``ctx=`` keyword; passing an explicit
  :class:`~repro.arith.context.SolverContext` routes the query (and its
  caching) through that context;
* with ``ctx=None`` the query goes to
  :func:`repro.arith.context.default_context`.

Callers that issue many related queries -- an SCC resolution, a bench run
-- should create one context and pass it through (see ``docs/solver.md``
for the scoping guidance and the cache policy).

**Cache policy.**  All memo caches are LRU-bounded: at capacity the least
recently used entry is evicted (and counted in the statistics) rather than
the cache refusing new entries, so long runs keep benefiting from locality
instead of freezing an arbitrary early working set.  ``clear_caches()``
drops every module-level cache (default context, DNF memo, FM cube memo)
and resets all statistics.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.arith import fm
from repro.arith.context import SolverContext, SolverStats, default_context, resolve
from repro.arith.formula import (
    Atom,
    Formula,
    clear_dnf_cache,
    conj,
    dnf_cache_stats,
    intern_table_size,
    to_dnf,
)

#: Serialises concurrent :func:`clear_caches` calls so two resets cannot
#: interleave their per-cache swaps (each individual swap is already safe
#: under concurrent readers; the lock only keeps a *pair* of resets from
#: producing a half-old, half-new cache family).
_CLEAR_LOCK = threading.Lock()


def clear_caches() -> None:
    """Drop all memoised solver results and reset statistics.

    Clears the default context's caches and stats, the module-level DNF
    memo and the FM cube-satisfiability memo (mostly useful in
    benchmarks).

    **Thread contract.**  Safe to call while other threads are mid-query:
    every cache is an :class:`~repro.arith.lru.LRUCache`, whose ``clear``
    swaps the backing dict instead of mutating it, so a concurrent reader
    either finishes against the old memo (stale but valid -- memo entries
    are pure functions of their keys) or starts cold against the new one.
    What this call does *not* do is snapshot-reset a running query's
    statistics: counters incremented by in-flight queries after the reset
    land in the fresh statistics, so numbers sampled while analyses are
    running are best-effort.  Long-lived processes (the analysis daemon,
    see ``docs/serve.md``) normally never call this at all -- resident
    caches are the point -- and rely on LRU bounds for growth control.
    """
    with _CLEAR_LOCK:
        default_context().clear(reset_stats=True)
        clear_dnf_cache()
        fm.clear_fm_caches()


def cache_telemetry() -> Dict[str, object]:
    """Sizes and eviction counters of every process-resident memo layer.

    One observability call for a process that never exits: the default
    context's per-kind caches, the module-level DNF and FM cube memos,
    and the live size of the formula intern table (weak, so it tracks
    the resident formula universe).  All numbers are read without
    locking -- they are monitoring data, exact only in a quiescent
    process."""
    return {
        "default_context": default_context().cache_sizes(),
        "dnf": dnf_cache_stats(),
        "fm": fm.fm_cache_stats(),
        "interned_formulas": intern_table_size(),
    }


def solver_stats(ctx: Optional[SolverContext] = None) -> SolverStats:
    """The statistics object of *ctx* (default context when ``None``)."""
    return resolve(ctx).stats


def dnf_disjuncts(p: Formula) -> List[List[Atom]]:
    """DNF of *p* as a list of cubes (conjunctions of atoms)."""
    return to_dnf(p)


def cube_formula(atoms: Sequence[Atom]) -> Formula:
    """Rebuild a conjunction from a cube."""
    return conj(*atoms)


def is_sat(p: Formula, ctx: Optional[SolverContext] = None) -> bool:
    """Satisfiability over the integers (see module completeness note).

    On DNF blow-up the query degrades to "satisfiable" -- the conservative
    answer for every use in the inference (assumptions are kept rather
    than dropped, proofs fail rather than succeed).
    """
    return resolve(ctx).is_sat(p)


def is_unsat(p: Formula, ctx: Optional[SolverContext] = None) -> bool:
    return not resolve(ctx).is_sat(p)


def is_valid(p: Formula, ctx: Optional[SolverContext] = None) -> bool:
    """Validity of a (possibly existential) formula."""
    return resolve(ctx).is_valid(p)


def entails(
    antecedent: Formula,
    consequent: Formula,
    ctx: Optional[SolverContext] = None,
) -> bool:
    """``antecedent => consequent`` (existentials in the consequent are
    eliminated by projection before negation)."""
    return resolve(ctx).entails(antecedent, consequent)


def equivalent(
    a: Formula, b: Formula, ctx: Optional[SolverContext] = None
) -> bool:
    return resolve(ctx).equivalent(a, b)


def model(
    p: Formula, ctx: Optional[SolverContext] = None
) -> Optional[Dict[str, Fraction]]:
    """A satisfying assignment for *p*, or ``None``."""
    return resolve(ctx).model(p)


def project(
    p: Formula,
    keep: Optional[Set[str]] = None,
    eliminate: Optional[Set[str]] = None,
    ctx: Optional[SolverContext] = None,
) -> Formula:
    """Quantifier elimination: ``exists eliminated-vars . p``.

    Exactly one of *keep*/*eliminate* must be given.  The result mentions
    only the kept variables.
    """
    return resolve(ctx).project(p, keep=keep, eliminate=eliminate)


def simplify(p: Formula, ctx: Optional[SolverContext] = None) -> Formula:
    """Semantic simplification via DNF.

    Drops unsatisfiable cubes, removes atoms implied by the rest of their
    cube, and removes cubes subsumed by other cubes.  The result is
    equivalent to the input (over the solver's integer semantics).
    """
    return resolve(ctx).simplify(p)
