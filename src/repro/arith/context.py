"""Incremental solver contexts: scoped caches, assumption stacks, statistics.

A :class:`SolverContext` owns everything one analysis scope (typically one
SCC of the call graph, see ``docs/solver.md``) needs from the decision
procedures:

* **LRU-bounded caches** for satisfiability, entailment and projection
  results, with hit/miss/eviction statistics.  Formulas are hash-consed
  (:mod:`repro.arith.formula`), so probes are pointer comparisons.
* **An assumption stack** (``push`` / ``pop`` / ``assume`` or the
  ``assuming`` context manager).  Queries issued while assumptions are
  active are answered relative to their conjunction.  The DNF cubes of the
  assumption stack are computed *incrementally*: pushing a new assumption
  only converts the new formula and extends the cached cube product, so a
  caller that fixes a context once and issues many queries against it pays
  the context's DNF conversion once.
* **Statistics** (:class:`SolverStats`), including the number of raw
  Fourier-Motzkin eliminations attributable to this context's queries.
  Several contexts may share one stats object (pass ``stats=``), which is
  how the pipeline aggregates per-SCC contexts into per-program numbers
  for bench reporting.

All cube-level decision work (satisfiability, projection, models) goes
to the integer-row Fourier-Motzkin engine, looked up as ``fm.<name>``
at call time so instrumentation that wraps the module attribute sees
every call.

Satisfiability and entailment never materialise a DNF product:
:func:`any_cube_sat` walks the formula's NNF depth first, carries the
bounds table of the partial cube, and prunes a subtree as soon as two
opposite bounds in it contradict (the branch-and-prune core of DPLL(T)).
Every leaf it does reach is the cube eager expansion would build, in the
same order, and the DNF cap raises on the same formulas.  Projection,
models and simplification need cube lists and still call :func:`to_dnf`.

There is no process-wide context.  Every query goes to a context its
caller made at an entry point (``infer_program`` makes one per SCC) and
passed down explicitly, so a context's caches live no longer than the
run that made it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.arith import fm
from repro.arith.formula import (
    And,
    Atom,
    BoolConst,
    DNFLimit,
    Exists,
    FALSE,
    Formula,
    Not,
    Or,
    TRUE,
    _contains_exists,
    conj,
    disj,
    neg,
    nnf_tree,
    to_dnf,
)
from repro.arith.lru import LRUCache

#: Capacity of each of a context's sat, entailment and projection caches.
CACHE_SIZE = 200_000

#: Maximum number of assumption cubes kept by the incremental product;
#: beyond this the context falls back to monolithic conjunction queries.
_ASSUMPTION_CUBE_LIMIT = 4096


@dataclass
class SolverStats:
    """Counters for one context (or a family of contexts sharing them).

    Besides the solver-cache counters, this also carries the persistent
    spec store's accounting (``store_hits`` / ``store_misses`` /
    ``store_invalidations``, see :mod:`repro.store`): the pipeline counts
    store lookups into the same stats object it aggregates solver work
    in, so bench outcomes report both through one channel.
    """

    sat_queries: int = 0
    sat_hits: int = 0
    entail_queries: int = 0
    entail_hits: int = 0
    project_queries: int = 0
    project_hits: int = 0
    evictions: int = 0
    fm_eliminations: int = 0
    store_hits: int = 0
    store_misses: int = 0
    store_invalidations: int = 0
    # Pre-analysis accounting (:mod:`repro.analysis`): SCCs resolved by a
    # quick verdict without entering the TNT solver, and methods whose
    # ranking-template search was seeded with modification hints.
    pre_quick: int = 0
    pre_seeded: int = 0

    @property
    def queries(self) -> int:
        return self.sat_queries + self.entail_queries + self.project_queries

    @property
    def hits(self) -> int:
        return self.sat_hits + self.entail_hits + self.project_hits

    @property
    def hit_rate(self) -> float:
        q = self.queries
        return self.hits / q if q else 0.0

    _COUNTER_FIELDS = (
        "sat_queries", "sat_hits", "entail_queries", "entail_hits",
        "project_queries", "project_hits", "evictions", "fm_eliminations",
        "store_hits", "store_misses", "store_invalidations",
        "pre_quick", "pre_seeded",
    )

    def reset(self) -> None:
        for f in self._COUNTER_FIELDS:
            setattr(self, f, 0)

    def merge_dict(self, snapshot: Dict[str, int]) -> None:
        """Add a counter snapshot (an :meth:`as_dict` produced in another
        process, shipped back over a pipe) into this stats object.  The
        derived ``queries``/``hits``/``hit_rate`` entries of the snapshot
        are ignored -- they are recomputed from the merged counters."""
        for f in self._COUNTER_FIELDS:
            setattr(self, f, getattr(self, f) + int(snapshot.get(f, 0)))

    def as_dict(self) -> Dict[str, int]:
        out = {"queries": self.queries, "hits": self.hits}
        for f in self._COUNTER_FIELDS:
            out[f] = getattr(self, f)
        return out


class _Frame:
    """One assumption-stack frame.

    ``cubes`` caches the DNF cube product of *all* assumptions from the
    stack bottom through this frame (``None`` until computed, so a pop
    never invalidates anything below it).
    """

    __slots__ = ("formulas", "cubes")

    def __init__(self) -> None:
        self.formulas: List[Formula] = []
        self.cubes: Optional[List[Tuple[Atom, ...]]] = None


class SolverContext:
    """Scoped, incremental interface to the arithmetic decision procedures.

    One context should be shared by all queries of one analysis scope (one
    SCC resolution, one bench run, ...) so structurally recurring queries
    hit the context's caches instead of redoing Fourier-Motzkin work.
    """

    def __init__(self, stats: Optional[SolverStats] = None):
        self.stats = stats if stats is not None else SolverStats()
        self._sat = LRUCache(CACHE_SIZE, self.stats)
        self._entail = LRUCache(CACHE_SIZE, self.stats)
        self._project = LRUCache(CACHE_SIZE, self.stats)
        self._frames: List[_Frame] = [_Frame()]
        self._fm_depth = 0  # re-entrancy guard for FM-work attribution

    @contextmanager
    def _fm_accounting(self) -> Iterator[None]:
        """Attribute raw FM eliminations performed in the block to this
        context's stats.  Nested blocks (e.g. ``project`` recursing into
        itself through quantifier elimination) are counted once, by the
        outermost block only."""
        if self._fm_depth == 0:
            start = fm.elimination_count()
        self._fm_depth += 1
        try:
            yield
        finally:
            self._fm_depth -= 1
            if self._fm_depth == 0:
                self.stats.fm_eliminations += fm.elimination_count() - start

    # -- assumption stack ---------------------------------------------------

    def push(self) -> None:
        """Open a new assumption frame."""
        self._frames.append(_Frame())

    def pop(self) -> None:
        """Discard the most recent assumption frame."""
        if len(self._frames) == 1:
            raise IndexError("pop from the base solver frame")
        self._frames.pop()

    def assume(self, p: Formula) -> None:
        """Add *p* to the current frame; later queries are relative to it."""
        frame = self._frames[-1]
        frame.formulas.append(p)
        frame.cubes = None

    @contextmanager
    def assuming(self, *ps: Formula) -> Iterator["SolverContext"]:
        """``with ctx.assuming(p, q): ...`` -- push, assume, auto-pop."""
        self.push()
        try:
            for p in ps:
                self.assume(p)
            yield self
        finally:
            self.pop()

    @property
    def assumption_depth(self) -> int:
        return len(self._frames) - 1

    def assumptions(self) -> List[Formula]:
        return [p for f in self._frames for p in f.formulas]

    def _assumption_formula(self) -> Formula:
        ps = self.assumptions()
        return conj(*ps) if ps else TRUE

    def _assumption_cubes(self) -> List[Tuple[Atom, ...]]:
        """Cumulative DNF cubes of the assumption stack, computed
        incrementally frame by frame.  Raises :class:`DNFLimit` on
        cube-product blow-up (callers fall back to monolithic queries)."""
        prev: List[Tuple[Atom, ...]] = [()]
        for frame in self._frames:
            if frame.cubes is None:
                cubes = prev
                for p in frame.formulas:
                    step: List[Tuple[Atom, ...]] = []
                    for pc in to_dnf(p):
                        pc_t = tuple(pc)
                        for c in cubes:
                            step.append(c + pc_t)
                            if len(step) > _ASSUMPTION_CUBE_LIMIT:
                                raise DNFLimit(
                                    "assumption cube product beyond limit"
                                )
                    cubes = step
                frame.cubes = cubes
            prev = frame.cubes
        return prev

    # -- satisfiability -----------------------------------------------------

    def is_sat(self, p: Formula) -> bool:
        """Satisfiability of *p* under the current assumptions.

        On DNF blow-up the query degrades to "satisfiable" -- the
        conservative answer for every use in the inference."""
        return self._sat_impl(p, record=True)

    def _sat_impl(self, p: Formula, record: bool) -> bool:
        """Cached satisfiability; *record* controls whether the probe is
        counted in the statistics (internal probes issued on behalf of an
        already-counted entailment pass ``record=False`` so the reported
        query/hit numbers match what callers actually asked)."""
        st = self.stats
        if record:
            st.sat_queries += 1
        assumption = self._assumption_formula()
        key = p if assumption is TRUE else (assumption, p)
        cached = self._sat.get(key)
        if cached is not None:
            if record:
                st.sat_hits += 1
            return cached
        try:
            with self._fm_accounting():
                result = self._raw_sat(p)
        except DNFLimit:
            return True
        self._sat.put(key, result)
        return result

    def _raw_sat(self, p: Formula) -> bool:
        if not self.assumptions():
            return any_cube_sat(p)
        try:
            acubes = self._assumption_cubes()
        except DNFLimit:
            # Product blow-up: degrade to one monolithic conjunction.
            return any_cube_sat(conj(self._assumption_formula(), p))
        return any_cube_sat(p, acubes)

    def is_unsat(self, p: Formula) -> bool:
        return not self.is_sat(p)

    # -- validity and entailment --------------------------------------------

    def is_valid(self, p: Formula) -> bool:
        """Validity of a (possibly existential) formula."""
        try:
            return self.is_unsat(neg(self._eliminate_quantifiers(p)))
        except DNFLimit:
            return False

    def entails(self, antecedent: Formula, consequent: Formula) -> bool:
        """``assumptions /\\ antecedent => consequent`` (existentials in
        the consequent are eliminated by projection before negation)."""
        st = self.stats
        st.entail_queries += 1
        assumption = self._assumption_formula()
        key = (
            (antecedent, consequent)
            if assumption is TRUE
            else (assumption, antecedent, consequent)
        )
        cached = self._entail.get(key)
        if cached is not None:
            st.entail_hits += 1
            return cached
        try:
            goal = conj(
                antecedent, neg(self._eliminate_quantifiers(consequent))
            )
        except DNFLimit:
            return False  # blow-up: conservatively fail the obligation
        # The internal sat probe still populates/reuses the sat cache but
        # is not double-counted as a caller-issued query.
        result = not self._sat_impl(goal, record=False)
        self._entail.put(key, result)
        return result

    def _entails_plain(self, antecedent: Formula, consequent: Formula) -> bool:
        """Entailment ignoring the assumption stack.  Used by
        :meth:`simplify`, whose result must be equivalent to its input
        absolutely, not merely relative to the active assumptions."""
        st = self.stats
        st.entail_queries += 1
        key = (antecedent, consequent)
        cached = self._entail.get(key)
        if cached is not None:
            st.entail_hits += 1
            return cached
        try:
            with self._fm_accounting():
                goal = conj(
                    antecedent, neg(self._eliminate_quantifiers(consequent))
                )
                result = not any_cube_sat(goal)
        except DNFLimit:
            return False
        self._entail.put(key, result)
        return result

    def equivalent(self, a: Formula, b: Formula) -> bool:
        return self.entails(a, b) and self.entails(b, a)

    # -- projection (quantifier elimination) --------------------------------

    def project(
        self,
        p: Formula,
        keep: Optional[Set[str]] = None,
        eliminate: Optional[Set[str]] = None,
    ) -> Formula:
        """Quantifier elimination: ``exists eliminated-vars . p``.

        Exactly one of *keep*/*eliminate* must be given.  The result
        mentions only the kept variables.  :class:`DNFLimit` propagates
        on DNF blow-up (callers choose their own sound fallback)."""
        if (keep is None) == (eliminate is None):
            raise ValueError("specify exactly one of keep= or eliminate=")
        st = self.stats
        st.project_queries += 1
        key = (
            p,
            frozenset(keep) if keep is not None else None,
            frozenset(eliminate) if eliminate is not None else None,
        )
        cached = self._project.get(key)
        if cached is not None:
            st.project_hits += 1
            return cached
        with self._fm_accounting():
            result = self._raw_project(p, keep, eliminate)
        self._project.put(key, result)
        return result

    def _raw_project(
        self,
        p: Formula,
        keep: Optional[Set[str]],
        eliminate: Optional[Set[str]],
    ) -> Formula:
        p = self._eliminate_quantifiers(p) if _contains_exists(p) else p
        cubes: List[Formula] = []
        for cube in to_dnf(p):
            try:
                projected = fm.project_cube(
                    cube, keep=keep, eliminate=eliminate
                )
            except fm.Unsat:
                continue
            cubes.append(conj(*projected))
        return disj(*cubes)

    def _eliminate_quantifiers(self, p: Formula) -> Formula:
        if isinstance(p, Exists):
            return self.project(p.body, eliminate=set(p.bound))
        if isinstance(p, (BoolConst, Atom)):
            return p
        if isinstance(p, And):
            return conj(*(self._eliminate_quantifiers(a) for a in p.args))
        if isinstance(p, Or):
            return disj(*(self._eliminate_quantifiers(a) for a in p.args))
        if isinstance(p, Not):
            return neg(self._eliminate_quantifiers(p.arg))
        raise TypeError(f"unknown formula node {type(p).__name__}")

    # -- model construction -------------------------------------------------

    def model(self, p: Formula) -> Optional[Dict[str, Fraction]]:
        """A satisfying assignment for *p* (ignoring assumptions), or
        ``None``."""
        for cube in to_dnf(p):
            env = fm.cube_model(cube)
            if env is not None:
                for v in p.free_vars():
                    env.setdefault(v, Fraction(0))
                if all(a.evaluate(env) for a in cube):
                    return env
        return None

    # -- simplification -----------------------------------------------------

    def simplify(self, p: Formula) -> Formula:
        """Semantic simplification via DNF.

        Drops unsatisfiable cubes, removes atoms implied by the rest of
        their cube, and removes cubes subsumed by other cubes.  The result
        is equivalent to the input (over the solver's integer
        semantics)."""
        try:
            cubes = to_dnf(p)
        except DNFLimit:
            return p
        if len(cubes) > 12:
            # Large disjunctions: quadratic pruning/subsumption would
            # dominate the analysis; keep the cheap unsat-cube filter.
            sat_cubes = [c for c in cubes if fm.cube_is_sat(c)]
            if not sat_cubes:
                return FALSE
            return disj(*(conj(*c) for c in sat_cubes))
        kept_cubes: List[List[Atom]] = []
        for cube in cubes:
            if not fm.cube_is_sat(cube):
                continue
            kept_cubes.append(self._prune_cube(cube))
        # subsumption between cubes: cube A subsumes cube B when B => A
        result: List[List[Atom]] = []
        for i, cube in enumerate(kept_cubes):
            ci = conj(*cube)
            subsumed = False
            for j, other in enumerate(kept_cubes):
                if i == j:
                    continue
                cj = conj(*other)
                if self._entails_plain(ci, cj) and not (
                    self._entails_plain(cj, ci) and j > i
                ):
                    subsumed = True
                    break
            if not subsumed:
                result.append(cube)
        if not result:
            return FALSE
        return disj(*(conj(*c) for c in result))

    def _prune_cube(self, cube: List[Atom]) -> List[Atom]:
        pruned = list(cube)
        i = 0
        while i < len(pruned):
            candidate = pruned[i]
            rest = pruned[:i] + pruned[i + 1:]
            if rest and self._entails_plain(conj(*rest), candidate):
                pruned = rest
            else:
                i += 1
        return pruned

    # -- maintenance --------------------------------------------------------

    def clear(self, reset_stats: bool = True) -> None:
        """Drop this context's caches (and, by default, its statistics).
        The assumption stack is left untouched.

        Safe to call while another thread is mid-query against this
        context: the underlying :class:`~repro.arith.lru.LRUCache` swaps
        its backing dict rather than clearing it in place, so concurrent
        readers finish against the old (stale but valid) memo and the
        next probe sees the empty one.  The process-wide DNF and FM memos
        are cleared separately, by
        :func:`repro.arith.solver.clear_caches`."""
        self._sat.clear()
        self._entail.clear()
        self._project.clear()
        if reset_stats:
            self.stats.reset()


# ---------------------------------------------------------------------------
# Pruned cube enumeration
# ---------------------------------------------------------------------------


def any_cube_sat(
    p: Formula, prefixes: Sequence[Sequence[Atom]] = ((),)
) -> bool:
    """Whether some cube of *p*, extended by some prefix, is satisfiable.

    The answer, the leaves handed to ``fm.cube_is_sat`` (in order, atom
    for atom) and the :class:`DNFLimit` cap are those of the eager

        for pre in prefixes:
            if pre and not fm.cube_is_sat(pre): continue
            if any(fm.cube_is_sat(list(pre) + c) for c in to_dnf(p)):
                return True

    except that no leaf below a partial cube whose opposite bounds
    contradict (:func:`repro.arith.fm.add_bound`) is visited: every such
    leaf contains the contradiction, so ``fm.cube_is_sat`` would refute it
    before its cache.  A quantified *p* is expanded by :func:`to_dnf`,
    which renames bound variables with globally fresh names, and its cubes
    are walked the same way.
    """
    if _contains_exists(p):
        tree = (True, tuple((False, tuple(c)) for c in to_dnf(p)))
    else:
        tree = nnf_tree(p)  # raises where to_dnf(p) would
    for pre in prefixes:
        if pre and not fm.cube_is_sat(pre):
            continue
        if _walk(((False, (*pre, tree)), None), [], {}, []):
            return True
    return False


def _walk(pending, cube: List[Atom], table: "fm.BoundsTable",
          trail: list) -> bool:
    """Depth-first over the conjunction of the *pending*
    :func:`~repro.arith.formula.nnf_tree` nodes (a ``(node, rest)`` linked
    list) extending *cube*: Or nodes branch in argument order, And nodes
    expand in place, and a leaf goes to ``fm.cube_is_sat``.  *cube* and
    *table* are restored on return."""
    cube_mark, trail_mark = len(cube), len(trail)
    try:
        while pending is not None:
            node, pending = pending
            if type(node) is Atom:
                cube.append(node)
                if fm.add_bound(table, node, trail):
                    return False
            elif node[0]:
                return any(
                    _walk((a, pending), cube, table, trail) for a in node[1]
                )
            else:
                for a in reversed(node[1]):
                    pending = (a, pending)
        return fm.cube_is_sat(list(cube))
    finally:
        del cube[cube_mark:]
        fm.undo_bounds(table, trail, trail_mark)
