"""Ranking-function synthesis over an SCC (paper Sec. 5.4, ``prove_Term``).

For every unknown pre-predicate ``U_pr(v1..vn)`` in the SCC, a template
``gen_rank(U) = c0 + c1 v1 + ... + cn vn`` is created; every internal edge
``(U_i, rho, U_j)`` of the reachability graph contributes the Farkas
constraint (paper's ``gen``)::

    forall vars .  rho  =>  r_i(args_i) > r_j(args_j)  /\\  r_i(args_i) >= 0

The resulting system is *linear* in the multipliers and the template
coefficients jointly (Podelski-Rybalchenko style), so ``syn_rank`` is an LP
(:mod:`repro.arith.farkas`).  Solutions are rationalised and then
**re-verified exactly** through the entailment solver before being
accepted -- floats never reach the trusted path.

Lexicographic measures are synthesised iteratively: find a component that
is non-increasing and bounded on every remaining edge and strictly
decreasing on at least one; drop the strictly-decreased edges; repeat.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.arith.context import SolverContext
from repro.arith.farkas import (
    Affine,
    LPProblem,
    add_implication,
    instantiate,
    template,
)
from repro.arith.formula import Atom, Formula, atom_ge, atom_le, conj
from repro.arith.solver import dnf_disjuncts
from repro.arith.terms import LinExpr, var
from repro.core.reachgraph import Edge

MAX_LEX_DEPTH = 4


def _edge_cubes(edge: Edge, ctx: SolverContext) -> List[List[Atom]]:
    """Satisfiable DNF cubes of an edge context."""
    return [c for c in dnf_disjuncts(edge.ctx) if ctx.is_sat(conj(*c))]


def _rank_at(template_coeffs: Dict[str, LinExpr], args: Sequence[str],
             formals: Sequence[str]) -> Dict[str, LinExpr]:
    """Template coefficient map re-indexed from formals to actual vars."""
    return {a: template_coeffs[f] for f, a in zip(formals, args)}


def _instantiated(rank: LinExpr, formals: Sequence[str], args: Sequence[str]) -> LinExpr:
    return rank.substitute({f: var(a) for f, a in zip(formals, args)})


def _target_coeffs(terms: Sequence[Tuple[str, str, int]]) -> Dict[str, Affine]:
    """Farkas target coefficients ``{arg: sum sign*unknown}`` from
    ``(arg, template unknown, sign)`` terms; an argument passed for
    several formals sums their unknowns."""
    out: Dict[str, Dict[str, int]] = {}
    for arg, unknown, sign in terms:
        row = out.setdefault(arg, {})
        row[unknown] = row.get(unknown, 0) + sign
    return {arg: (row, 0) for arg, row in out.items()}


def _normalise(rank: LinExpr) -> LinExpr:
    """Scale a ranking function to small coprime integer coefficients
    (purely cosmetic -- any positive scaling of a valid ranking function,
    with the decrease re-verified, remains valid)."""
    coeffs = list(rank.coeffs.values()) + [rank.constant]
    nonzero = [c for c in coeffs if c != 0]
    if not nonzero:
        return rank
    denom_lcm = 1
    for c in nonzero:
        d = c.denominator
        g = _gcd(denom_lcm, d)
        denom_lcm = denom_lcm * d // g
    scaled = rank.scale(denom_lcm)
    nums = [abs(int(c)) for c in scaled.coeffs.values() if c != 0]
    if abs(int(scaled.constant)) > 0:
        nums.append(abs(int(scaled.constant)))
    g = 0
    for n_ in nums:
        g = _gcd(g, n_)
    if g > 1:
        scaled = scaled.scale(Fraction(1, g))
    return scaled


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


class RankSynthesizer:
    """Synthesis of (lexicographic) linear ranking functions per SCC.

    *focus* (optional) maps **method names** to pre-analysis ranking
    hints -- parameter subsets likely to carry the measure (the loop's
    modified + condition variables, see :mod:`repro.analysis`).  When a
    pair has a usable hint, synthesis first solves a *focused* LP whose
    templates range over the hinted parameters only (fewer unknowns,
    fewer Farkas multipliers); on failure it falls back to the full
    template, so a wrong hint costs one extra LP, never an answer.
    """

    def __init__(
        self,
        pair_args: Dict[str, Tuple[str, ...]],
        ctx: SolverContext,
        focus: Optional[Dict[str, Tuple[str, ...]]] = None,
    ):
        self.pair_args = pair_args
        self.ctx = ctx
        self.focus = focus or {}

    def _focused_indices(self, pair: str) -> Optional[List[int]]:
        """Parameter positions the focused template keeps for *pair*, or
        ``None`` when the hint is absent, empty or not a proper subset.
        Pair names are ``U<n>@<method>`` (case-split children inherit the
        method base), so the method key is everything after the ``@``."""
        hints = self.focus.get(pair.split("@", 1)[-1])
        if not hints:
            return None
        full = self.pair_args[pair]
        hint_set = set(hints)
        idx = [i for i, f in enumerate(full) if f in hint_set]
        if not idx or len(idx) == len(full):
            return None
        return idx

    # -- single linear component ------------------------------------------------

    def _synthesize(
        self,
        scc: List[str],
        edges: List[Edge],
        strict_edges: Set[int],
    ) -> Optional[Dict[str, LinExpr]]:
        """Focused-template attempt first (when hints apply), then the
        complete template -- the fallback keeps completeness."""
        if any(self._focused_indices(u) is not None for u in scc):
            ranks = self._synthesize_component(
                scc, edges, strict_edges, focused=True
            )
            if ranks is not None:
                return ranks
        return self._synthesize_component(scc, edges, strict_edges)

    def _synthesize_component(
        self,
        scc: List[str],
        edges: List[Edge],
        strict_edges: Set[int],
        focused: bool = False,
    ) -> Optional[Dict[str, LinExpr]]:
        """Find templates such that every edge is non-increasing & bounded
        and the edges in *strict_edges* decrease by >= 1; returns the
        (exactly verified) ranking functions per pair, or ``None``."""
        lp = LPProblem()
        coeff_names: Dict[str, Tuple[Dict[str, str], str]] = {}
        keep_idx: Dict[str, List[int]] = {}
        for u in scc:
            formals = list(self.pair_args[u])
            keep_idx[u] = list(range(len(formals)))
            if focused:
                idx = self._focused_indices(u)
                if idx is not None:
                    keep_idx[u] = idx
                    formals = [formals[i] for i in idx]
            coeff_names[u] = template(f"rk.{u}", formals)
        impl_id = 0
        for idx, edge in enumerate(edges):
            src_names, src_c0 = coeff_names[edge.src]
            dst_names, dst_c0 = coeff_names[edge.dst]
            src_full = self.pair_args[edge.src]
            dst_full = self.pair_args[edge.dst]
            src_terms = [
                (edge.src_args[i], src_names[src_full[i]], -1)
                for i in keep_idx[edge.src]
            ]
            dst_terms = [
                (edge.dst_args[i], dst_names[dst_full[i]], 1)
                for i in keep_idx[edge.dst]
            ]
            # bounded: rho => r_src(src_args) >= 0, required on the edges
            # where this component is the deciding (strictly decreasing)
            # one -- the standard lexicographic condition
            g_bound = _target_coeffs(src_terms)
            # decrease: rho => r_src - r_dst >= delta
            #   i.e.  sum c_dst_j*arg'_j - sum c_src_i*arg_i
            #           <= -delta + c0_src - c0_dst
            delta = 1 if idx in strict_edges else 0
            g_dec = _target_coeffs(src_terms + dst_terms)
            d_coeffs = {src_c0: 1}  # c0_src - c0_dst: zero on a self-edge
            d_coeffs[dst_c0] = d_coeffs.get(dst_c0, 0) - 1
            for cube in _edge_cubes(edge, self.ctx):
                xs = sorted(
                    set(edge.src_args)
                    | set(edge.dst_args)
                    | set().union(*(a.expr.variables() for a in cube))
                    if cube
                    else set(edge.src_args) | set(edge.dst_args)
                )
                if idx in strict_edges:
                    add_implication(
                        lp, cube, xs, g_bound, ({src_c0: 1}, 0),
                        prefix=f"b{impl_id}",
                    )
                impl_id += 1
                add_implication(
                    lp, cube, xs, g_dec, (d_coeffs, -delta), prefix=f"d{impl_id}"
                )
                impl_id += 1
        solution = lp.solve()
        if solution is None:
            return None
        ranks: Dict[str, LinExpr] = {}
        for u in scc:
            names, c0 = coeff_names[u]
            ranks[u] = _normalise(instantiate(names, c0, solution))
        if self._verify_component(ranks, edges, strict_edges):
            return ranks
        # Retry once without normalisation in case scaling broke the
        # >= 1 decrease (scaling down can shrink the gap below 1).
        ranks = {
            u: instantiate(coeff_names[u][0], coeff_names[u][1], solution)
            for u in scc
        }
        if self._verify_component(ranks, edges, strict_edges):
            return ranks
        return None

    def _verify_component(
        self,
        ranks: Dict[str, LinExpr],
        edges: List[Edge],
        strict_edges: Set[int],
    ) -> bool:
        """Exact check of boundedness / decrease for every edge."""
        for idx, edge in enumerate(edges):
            r_src = _instantiated(
                ranks[edge.src], self.pair_args[edge.src], edge.src_args
            )
            r_dst = _instantiated(
                ranks[edge.dst], self.pair_args[edge.dst], edge.dst_args
            )
            if idx in strict_edges:
                obligations = [atom_ge(r_src, 0), atom_ge(r_src - r_dst, 1)]
            else:
                obligations = [atom_ge(r_src - r_dst, 0)]
            if not self.ctx.entails(edge.ctx, conj(*obligations)):
                return False
        return True

    def strictly_decreasing_edges(
        self, ranks: Dict[str, LinExpr], edges: List[Edge]
    ) -> Set[int]:
        """Indices of edges on which the component provably decreases."""
        out: Set[int] = set()
        for idx, edge in enumerate(edges):
            r_src = _instantiated(
                ranks[edge.src], self.pair_args[edge.src], edge.src_args
            )
            r_dst = _instantiated(
                ranks[edge.dst], self.pair_args[edge.dst], edge.dst_args
            )
            if self.ctx.entails(
                edge.ctx, atom_ge(r_src - r_dst, 1)
            ) and self.ctx.entails(edge.ctx, atom_ge(r_src, 0)):
                out.add(idx)
        return out

    # -- public entry points ----------------------------------------------------

    def synthesize_linear(
        self, scc: List[str], edges: List[Edge]
    ) -> Optional[Dict[str, LinExpr]]:
        """A single linear ranking function decreasing on every edge."""
        if not edges:
            return None
        return self._synthesize(scc, edges, set(range(len(edges))))

    def synthesize_lexicographic(
        self, scc: List[str], edges: List[Edge]
    ) -> Optional[Dict[str, Tuple[LinExpr, ...]]]:
        """A lexicographic measure ``[r1, r2, ...]`` per unknown pair."""
        if not edges:
            return None
        remaining = list(range(len(edges)))
        components: List[Dict[str, LinExpr]] = []
        attempts = 0
        for _depth in range(MAX_LEX_DEPTH):
            if not remaining:
                measures = {
                    u: tuple(comp[u] for comp in components) for u in scc
                }
                return measures
            sub_edges = [edges[i] for i in remaining]
            # Fast path: all edges strictly decreasing at once.
            ranks = self._synthesize(
                scc, sub_edges, set(range(len(sub_edges)))
            )
            if ranks is not None:
                components.append(ranks)
                remaining = []
                continue
            # Greedy: force one edge strict, the rest non-increasing, then
            # retire every edge that happens to decrease strictly.
            progressed = False
            for pos in range(len(sub_edges)):
                attempts += 1
                if attempts > 12:  # bound the greedy LP search
                    return None
                ranks = self._synthesize(scc, sub_edges, {pos})
                if ranks is None:
                    continue
                dec = self.strictly_decreasing_edges(ranks, sub_edges)
                if not dec:
                    continue
                components.append(ranks)
                remaining = [
                    i for k, i in enumerate(remaining) if k not in dec
                ]
                progressed = True
                break
            if not progressed:
                return None
        return None
