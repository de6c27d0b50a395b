"""The overall inference algorithm ``solve`` and ``TNT_analysis``
(paper Figures 6 and 7).

``solve`` receives the assumption sets of one group of mutually recursive
methods ([TNT-INF]) and resolves their unknown pairs:

1. infer and install base cases (``syn_base`` / ``refine_base``);
2. iterate: specialise the assumptions against the current store,
   build the temporal reachability graph, and run ``TNT_analysis`` on each
   SCC bottom-up;
3. ``TNT_analysis`` resolves an SCC by trivial termination, ranking
   synthesis (when all outside successors are ``Term``), or inductive
   unreachability; a failed non-termination proof abduces case-split
   conditions and restarts the iteration;
4. after ``MAX_ITER`` iterations (or when no split is possible),
   ``finalize`` marks the remaining unknowns ``MayLoop``.
"""

from __future__ import annotations

import logging
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.arith.context import SolverContext
from repro.arith.formula import Formula
from repro.core.assumptions import PostAssume, PreAssume
from repro.core.basecase import refine_base, syn_base
from repro.core.casesplit import subst_unk
from repro.core.nonterm import prove_nonterm
from repro.core.predicates import (
    LOOP,
    MAYLOOP,
    POST_FALSE,
    POST_TRUE,
    TERM,
    Loop,
    MayLoop,
    TempPred,
    Term,
)
from repro.core.ranking import RankSynthesizer
from repro.core.reachgraph import (
    LOOP_NODE,
    MAYLOOP_NODE,
    ReachGraph,
    TERM_NODE,
)
from repro.core.specialize import specialize_post, specialize_pre
from repro.core.specs import DefStore
from repro.core.verifier import MethodAssumptions

MAX_ITER = 8

logger = logging.getLogger(__name__)


class TNTSolver:
    """Stateful driver of the paper's ``solve`` procedure.

    *time_budget* (seconds) bounds one group's resolution; on expiry the
    remaining unknowns finalize to ``MayLoop`` -- the same graceful
    degradation the paper obtains through ``MAX_ITER``.

    *ctx* is the :class:`~repro.arith.context.SolverContext` shared by the
    whole group resolution, so every iteration of the specialise /
    analyse / split loop reuses one incremental cache state.
    """

    def __init__(
        self,
        store: DefStore,
        max_iter: int = MAX_ITER,
        time_budget: Optional[float] = 60.0,
        *,
        ctx: SolverContext,
        rank_focus: Optional[Dict[str, Tuple[str, ...]]] = None,
    ):
        self.store = store
        self.max_iter = max_iter
        self.time_budget = time_budget
        self.ctx = ctx
        # Pre-analysis ranking hints, keyed by method name; forwarded to
        # every RankSynthesizer (focused template first, full fallback).
        self.rank_focus = rank_focus
        self._deadline: Optional[float] = None

    def _expired(self) -> bool:
        return self._deadline is not None and time.monotonic() > self._deadline

    # -- Fig. 6 -----------------------------------------------------------------

    def solve(self, group: Sequence[MethodAssumptions]) -> None:
        """Resolve the unknown pairs of one mutually recursive group."""
        if self.time_budget is not None:
            self._deadline = time.monotonic() + self.time_budget
        for ma in group:
            beta = syn_base(ma, ctx=self.ctx)
            refine_base(self.store, ma.pair, beta, ctx=self.ctx)
        all_pre = [a for ma in group for a in ma.pre_assumptions]
        all_post = [a for ma in group for a in ma.post_assumptions]
        roots = [ma.pair for ma in group]
        for _iteration in range(self.max_iter):
            if self._expired():
                break
            pre = specialize_pre(all_pre, self.store, ctx=self.ctx)
            post = specialize_post(all_post, self.store, ctx=self.ctx)
            graph = ReachGraph(pre)
            leaves: List[str] = []
            for root in roots:
                leaves.extend(self.store.unresolved_leaves(root))
            if not leaves:
                break
            graph.add_vertices(leaves)
            restart = False
            stale: set = set()
            for scc in graph.sccs_bottom_up():
                scc = [u for u in scc if u in set(leaves)]
                if not scc:
                    continue
                if self._expired():
                    break
                # Skip SCCs that depend on a pair split earlier in this
                # sweep -- their specialised assumptions are stale.
                depends_on_stale = any(
                    nx.has_path(graph.graph, u, bad)
                    for u in scc
                    for bad in stale
                    if graph.graph.has_node(bad)
                )
                if depends_on_stale:
                    restart = True
                    continue
                ok = self._tnt_analysis(graph, scc, post, all_post)
                if ok:
                    # keep T in sync with the enriched store (Fig. 6 l.13)
                    post = specialize_post(all_post, self.store, ctx=self.ctx)
                else:
                    # a case split happened: resolve what else we can in
                    # this sweep, then restart with the refined store
                    # (Fig. 6 line 11)
                    restart = True
                    stale.update(scc)
            if not restart:
                break
        self.finalize(roots)

    # -- Fig. 7 -------------------------------------------------------------------

    def _tnt_analysis(
        self,
        graph: ReachGraph,
        scc: List[str],
        post: List[PostAssume],
        all_post: List[PostAssume],
    ) -> bool:
        successors = graph.scc_succ(scc)
        statuses = [self._succ_status(s) for s in successors]
        has_cycle = graph.has_cycle(scc)
        if not successors:
            if len(scc) == 1 and not has_cycle:
                # line 20-22: trivial termination -- but only when the
                # scenario's exits are actually reachable: a region whose
                # paths all run through a definitely-non-terminating callee
                # (eta => false entries) is Loop, not Term.
                return self._leaf_branch(scc, post)
            return self._nonterm_branch(scc, post)
        if all(isinstance(s, Term) for s in statuses):
            if not has_cycle:
                # non-recursive scenario whose callee edges all terminate;
                # still need the exit-reachability check as above
                return self._leaf_branch(scc, post)
            if self._prove_term(graph, scc):
                return True
            return self._nonterm_branch(scc, post)
        return self._nonterm_branch(scc, post)

    def _leaf_branch(self, scc: List[str], post: List[PostAssume]) -> bool:
        """Resolve a recursion-free scenario: Loop when every exit is
        covered by a non-terminating callee, Term when no such callee
        blocks any exit, and a case split / MayLoop otherwise."""
        ok, conditions = prove_nonterm(scc, post, self.store, ctx=self.ctx)
        if ok:
            for u in scc:
                self.store.resolve_leaf(u, LOOP, POST_FALSE)
            return True
        relevant = [
            t for t in post
            if t.rhs.name in set(scc) and t.entries
        ]
        if not relevant:
            # no blocking entries anywhere: plain base-case termination
            for u in scc:
                self.store.resolve_leaf(u, TERM, POST_TRUE)
            return True
        split_done = False
        for u in scc:
            conds = conditions.get(u, [])
            if conds and subst_unk(self.store, u, conds, ctx=self.ctx):
                split_done = True
        if split_done:
            return False
        # mixed region we cannot separate: reachable exits exist but some
        # path runs through a diverging callee -> MayLoop is the sound call
        for u in scc:
            self.store.resolve_leaf(u, MAYLOOP, POST_TRUE)
        return True

    def _succ_status(self, node: str) -> Optional[TempPred]:
        if node == TERM_NODE:
            return TERM
        if node == LOOP_NODE:
            return LOOP
        if node == MAYLOOP_NODE:
            return MAYLOOP
        # an unknown pair resolved earlier in this sweep
        if self.store.is_resolved(node):
            leaves = self.store.leaf_cases(node)
            preds = [pre for _g, pre, _p in leaves]
            if all(isinstance(p, Term) for p in preds):
                return TERM
            if all(isinstance(p, Loop) for p in preds):
                return LOOP
            return MAYLOOP
        return None

    # -- termination side ---------------------------------------------------------

    def _prove_term(self, graph: ReachGraph, scc: List[str]) -> bool:
        if self._expired():
            for u in scc:
                self.store.resolve_leaf(u, MAYLOOP, POST_TRUE)
            return True
        edges = graph.internal_edges(scc)
        synth = RankSynthesizer(
            self.store.pair_args, ctx=self.ctx, focus=self.rank_focus
        )
        linear = synth.synthesize_linear(scc, edges)
        if linear is not None:
            for u in scc:
                self.store.resolve_leaf(u, Term((linear[u],)), POST_TRUE)
            return True
        lex = synth.synthesize_lexicographic(scc, edges)
        if lex is not None:
            for u in scc:
                self.store.resolve_leaf(u, Term(tuple(lex[u])), POST_TRUE)
            return True
        return False

    # -- non-termination side --------------------------------------------------------

    def _nonterm_branch(
        self, scc: List[str], post: List[PostAssume]
    ) -> bool:
        if self._expired():
            for u in scc:
                self.store.resolve_leaf(u, MAYLOOP, POST_TRUE)
            return True
        ok, conditions = prove_nonterm(scc, post, self.store, ctx=self.ctx)
        if ok:
            for u in scc:
                self.store.resolve_leaf(u, LOOP, POST_FALSE)
            return True
        split_done = False
        for u in scc:
            conds = conditions.get(u, [])
            if conds and subst_unk(self.store, u, conds, ctx=self.ctx):
                split_done = True
        if split_done:
            return False  # restart the core loop with the refined store
        # No usable split: settle for MayLoop now (finalize would anyway).
        for u in scc:
            self.store.resolve_leaf(u, MAYLOOP, POST_TRUE)
        return True

    # -- finalisation -------------------------------------------------------------

    def finalize(self, roots: List[str]) -> None:
        """Mark every remaining unknown as ``MayLoop`` (paper's
        ``finalize``)."""
        for root in roots:
            for leaf in self.store.unresolved_leaves(root):
                self.store.resolve_leaf(leaf, MAYLOOP, POST_TRUE)
