"""Process-wide solver memos: clearing, telemetry and the DNF entry point.

The decision procedures themselves (satisfiability, validity, entailment,
projection, models, simplification) are methods of
:class:`repro.arith.context.SolverContext`.  There is no default context:
every caller creates one at an entry point and passes it down (see
``docs/solver.md`` for the scoping guidance and the cache policy).

What stays process-wide is memoisation keyed on hash-consed formulas and
cubes alone: the DNF memo of :mod:`repro.arith.formula` and the FM
cube-satisfiability memo of :mod:`repro.arith.fm`.  Both are LRU-bounded
and hold pure functions of their keys, so sharing them across contexts
and threads changes no answer.

Completeness note: with the integer tightening performed at atom
construction, the procedure is exact on the unit-two-variable fragment
(difference-bound-like constraints with unit coefficients) that the paper's
verification conditions live in, and remains a sound UNSAT test in general.
"""

from __future__ import annotations

import threading
from typing import Dict, List

from repro.arith import fm
from repro.arith.formula import (
    Atom,
    Formula,
    clear_dnf_cache,
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
    """Drop the process-wide DNF memo and FM cube-satisfiability memo
    (mostly useful in benchmarks).

    **Thread contract.**  Safe to call while other threads are mid-query:
    every cache is an :class:`~repro.arith.lru.LRUCache`, whose ``clear``
    swaps the backing dict instead of mutating it, so a concurrent reader
    either finishes against the old memo (stale but valid -- memo entries
    are pure functions of their keys) or starts cold against the new one.
    Long-lived processes (the analysis daemon, see ``docs/serve.md``)
    normally never call this at all -- resident caches are the point --
    and rely on LRU bounds for growth control.
    """
    with _CLEAR_LOCK:
        clear_dnf_cache()
        fm.clear_fm_caches()


def cache_telemetry() -> Dict[str, object]:
    """Sizes and eviction counters of every process-resident memo layer.

    One observability call for a process that never exits: the DNF and
    FM cube memos, and the live size of the formula intern table (weak,
    so it tracks the resident formula universe).  All numbers are read
    without locking -- they are monitoring data, exact only in a
    quiescent process."""
    return {
        "dnf": dnf_cache_stats(),
        "fm": fm.fm_cache_stats(),
        "interned_formulas": intern_table_size(),
    }


def dnf_disjuncts(p: Formula) -> List[List[Atom]]:
    """DNF of *p* as a list of cubes (conjunctions of atoms)."""
    return to_dnf(p)
