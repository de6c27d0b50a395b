"""Recurrent-set non-termination prover (TNT / Gupta et al. style).

A *recurrent set* ``R`` over a recursive method's parameters witnesses
divergence when

1. every state in ``R`` steps back into ``R`` along each feasible
   recursion edge, and
2. no state in ``R`` can take an exit path.

The prover enumerates candidate sets (edge guards, simple sign conditions
over parameters and their conjunctions) and also runs a bounded greatest-
fixpoint iteration of the universal predecessor.  Mutual recursion is not
supported (answers "unknown"), matching the restrictions of the original
loop-level tools.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.arith.formula import (
    DNFLimit,
    Formula,
    TRUE,
    atom_ge,
    atom_le,
    conj,
    disj,
    neg,
)
from repro.arith.context import SolverContext
from repro.arith.terms import var
from repro.core.predicates import PostRef, PreRef
from repro.core.reachgraph import Edge
from repro.core.verifier import MethodAssumptions, Verifier, VerifierError
from repro.lang import desugar_program, method_sccs
from repro.lang.ast import Program
from repro.lang.callgraph import is_recursive_scc

MAX_GFP_ITER = 4
MAX_CANDIDATE_CONJ = 2


class RecurrentSetProver:
    """Search for a recurrent set in some recursive method of the program."""

    def __init__(self, program: Program, desugared: bool = False):
        self.program = program if desugared else desugar_program(program)
        self.ctx = SolverContext()

    # -- data collection ------------------------------------------------------

    def _method_data(self) -> Optional[List[Tuple[Tuple[str, ...], List[Edge], Formula]]]:
        """Per self-recursive method: (params, self edges, exit region)."""
        out = []
        for scc in method_sccs(self.program):
            if not is_recursive_scc(self.program, scc):
                continue
            if len(scc) > 1:
                continue  # mutual recursion unsupported by this baseline
            name = scc[0]
            method = self.program.methods[name]
            if method.body is None:
                continue
            pair = f"R0@{name}"
            verifier = Verifier(
                self.program, pairs={name: pair}, solved={}, ctx=self.ctx
            )
            try:
                ma = verifier.collect(method)
            except VerifierError:
                return None
            params = tuple(method.param_names)
            edges: List[Edge] = []
            for a in ma.pre_assumptions:
                if isinstance(a.rhs, PreRef) and a.rhs.name == pair:
                    edges.append(
                        Edge(pair, pair, a.ctx, a.lhs.args, a.rhs.args)
                    )
            exit_regions: List[Formula] = []
            for t in ma.post_assumptions:
                if any(isinstance(p, PostRef) for _g, p in t.entries):
                    continue
                try:
                    exit_regions.append(self.ctx.project(t.ctx, keep=set(params)))
                except DNFLimit:
                    exit_regions.append(TRUE)
            out.append((params, edges, disj(*exit_regions)))
        return out

    # -- candidate checking ---------------------------------------------------

    def _closed(self, region: Formula, edges: Sequence[Edge],
                params: Tuple[str, ...]) -> bool:
        """Every feasible edge from *region* lands back in *region*."""
        any_feasible = False
        for e in edges:
            src_inst = region.substitute(
                {p: var(a) for p, a in zip(params, e.src_args)}
            )
            dst_inst = region.substitute(
                {p: var(a) for p, a in zip(params, e.dst_args)}
            )
            if not self.ctx.is_sat(conj(e.ctx, src_inst)):
                continue
            any_feasible = True
            if not self.ctx.entails(conj(e.ctx, src_inst), dst_inst):
                return False
        return any_feasible

    def _witnesses(self, region: Formula, edges: Sequence[Edge],
                   exits: Formula, params: Tuple[str, ...]) -> bool:
        if not self.ctx.is_sat(region):
            return False
        if self.ctx.is_sat(conj(region, exits)):
            return False
        return self._closed(region, edges, params)

    def _candidates(self, edges: Sequence[Edge], exits: Formula,
                    params: Tuple[str, ...]) -> List[Formula]:
        cands: List[Formula] = [neg(exits)]
        for e in edges:
            try:
                guard = self.ctx.project(e.ctx, keep=set(e.src_args))
            except DNFLimit:
                continue
            renamed = guard.rename(dict(zip(e.src_args, params)))
            cands.append(renamed)
        signs: List[Formula] = []
        for p in params:
            signs.append(atom_ge(var(p), 0))
            signs.append(atom_le(var(p), 0))
            signs.append(atom_ge(var(p), 1))
            signs.append(atom_le(var(p), -1))
        base = list(cands)
        for c, s in itertools.product(base, signs):
            cands.append(conj(c, s))
        for s1, s2 in itertools.combinations(signs, 2):
            cands.append(conj(s1, s2))
        return cands

    def _gfp(self, edges: Sequence[Edge], exits: Formula,
             params: Tuple[str, ...]) -> Optional[Formula]:
        """Bounded greatest-fixpoint of the universal predecessor."""
        region = neg(exits)
        for _ in range(MAX_GFP_ITER):
            if not self.ctx.is_sat(region):
                return None
            if self._witnesses(region, edges, exits, params):
                return region
            refined = region
            for e in edges:
                src_inst = region.substitute(
                    {p: var(a) for p, a in zip(params, e.src_args)}
                )
                dst_inst = region.substitute(
                    {p: var(a) for p, a in zip(params, e.dst_args)}
                )
                try:
                    bad = self.ctx.project(
                        conj(e.ctx, src_inst, neg(dst_inst)),
                        keep=set(e.src_args),
                    )
                except DNFLimit:
                    return None
                refined = conj(
                    refined, neg(bad.rename(dict(zip(e.src_args, params))))
                )
            refined = self.ctx.simplify(refined)
            if refined == region:
                return None
            region = refined
        return region if self._witnesses(region, edges, exits, params) else None

    # -- public API ----------------------------------------------------------------

    def prove(self) -> Optional[bool]:
        """True when some recursive method has a recurrent set reachable
        for some input; None when unsupported; False when no witness was
        found (NOT a termination proof)."""
        data = self._method_data()
        if data is None:
            return None
        for params, edges, exits in data:
            if not edges:
                continue
            for cand in self._candidates(edges, exits, params):
                if self._witnesses(self.ctx.simplify(cand), edges, exits, params):
                    return True
            if self._gfp(edges, exits, params) is not None:
                return True
        return False
