"""Base-case termination inference (paper Sec. 5.1).

``syn_base`` infers the base-case precondition of a method from its
assumption sets semantically::

    rho  = \\/ { proj(ctx_i)  | recursive-call pre-assumptions in S }
    %    = \\/ { proj(beta_j) | exit post-assumptions in T with no unknown
                               post-predicate on the left }
    syn_base(S, T) = % /\\ not rho

Exit post-assumptions whose left side carries resolved ``eta => false``
entries (calls to already-proven non-terminating callees) contribute only
the region where no such entry fires, and regions demanding ``MayLoop``
from a solved callee are excluded from the base case as well -- both are
required by Definition 3 (iii).

``refine_base`` then splits the unknown pair into the ``beta /\\ Term``
case and fresh unknown children for each disjunct of ``not beta``
(paper's ``refine_base`` with the ``Theta (+)`` update).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.arith.context import SolverContext
from repro.arith.formula import (
    DNFLimit, FALSE, Formula, TRUE, conj, disj, neg,
)
from repro.arith.solver import dnf_disjuncts
from repro.core.assumptions import PostAssume, PreAssume
from repro.core.predicates import (
    MayLoop,
    POST_TRUE,
    PostRef,
    PostVal,
    PreRef,
    TERM,
)
from repro.core.specs import Case, DefStore
from repro.core.verifier import MethodAssumptions


def syn_base(ma: MethodAssumptions, ctx: SolverContext) -> Formula:
    """The base-case termination precondition over the method's params."""
    params = set(ma.params)
    recursive_regions: List[Formula] = []
    mayloop_regions: List[Formula] = []
    for a in ma.pre_assumptions:
        try:
            region = ctx.project(a.ctx, keep=params)
        except DNFLimit:
            region = TRUE  # over-approximating rho only shrinks the base
        if isinstance(a.rhs, PreRef):
            recursive_regions.append(region)
        elif isinstance(a.rhs, MayLoop):
            mayloop_regions.append(region)
    base_regions: List[Formula] = []
    for t in ma.post_assumptions:
        if any(isinstance(p, PostRef) for _g, p in t.entries):
            continue
        beta = conj(t.ctx, t.guard)
        for g, p in t.entries:
            if isinstance(p, PostVal) and not p.reachable:
                beta = conj(beta, neg(g))
        try:
            base_regions.append(ctx.project(beta, keep=params))
        except DNFLimit:
            continue  # dropping a base contribution is sound (under-approx)
    rho = disj(*recursive_regions, *mayloop_regions)
    percent = disj(*base_regions)
    return ctx.simplify(conj(percent, neg(rho)))


def exclusive_partition(p: Formula, ctx: SolverContext) -> List[Formula]:
    """Split *p* into satisfiable, mutually exclusive disjuncts covering it.

    DNF cubes can overlap; the k-th output disjunct is
    ``cube_k /\\ not cube_1 /\\ ... /\\ not cube_{k-1}``.
    """
    out: List[Formula] = []
    taken: Formula = FALSE
    for cube in dnf_disjuncts(p):
        region = conj(conj(*cube), neg(taken))
        if ctx.is_sat(region):
            out.append(ctx.simplify(region))
            taken = disj(taken, conj(*cube))
    return out


def refine_base(
    store: DefStore,
    pair: str,
    beta: Formula,
    ctx: SolverContext,
) -> None:
    """Refine a pair with its base case; install the new definition.

    After the call::

        Upr(v) == beta /\\ Term  \\/  \\/_i (mu_i /\\ U^i_pr(v))
        Upo(v) == (beta => true) /\\ /\\_i (mu_i => U^i_po(v))

    where the ``mu_i`` partition ``not beta``.  When ``beta`` is
    unsatisfiable only the unknown children are produced; when ``beta`` is
    valid the pair resolves to ``Term``/``true`` outright.
    """
    args = store.pair_args[pair]
    cases: List[Case] = []
    if ctx.is_sat(beta):
        cases.append(Case(ctx.simplify(beta), TERM, POST_TRUE))
    try:
        regions = exclusive_partition(neg(beta), ctx=ctx)
    except DNFLimit:
        remainder = neg(beta)
        regions = [remainder] if ctx.is_sat(remainder) else []
    for mu in regions:
        child = store.new_pair(pair.split("@", 1)[-1], args)
        cases.append(Case(mu, child, child))
    store.define(pair, cases)
