"""Assumption specialisation against current definitions (paper Sec. 5.2).

``spec_relass`` substitutes the current (partial) definitions of the
unknown predicates into every relational assumption and splits the result
along the definitions' exclusive guards, producing assumptions that mention
only *leaf* unknowns.  Specialised assumptions that become trivial
(unsatisfiable context, resolved-``true`` right-hand side, known-``Term``
to known-``Term``...) are dropped, mirroring the paper's ``filter``.
"""

from __future__ import annotations

from typing import List, Tuple, Union

from repro.arith.context import SolverContext
from repro.arith.formula import Formula, TRUE, conj
from repro.arith.terms import var
from repro.core.assumptions import PostAssume, PostEntry, PreAssume
from repro.core.predicates import (
    LOOP,
    Loop,
    MAYLOOP,
    MayLoop,
    POST_FALSE,
    PostRef,
    PostVal,
    PreRef,
    TERM,
    TempPred,
    Term,
)
from repro.core.specs import DefStore


def _instantiate_guard(guard: Formula, formals: Tuple[str, ...], actuals: Tuple[str, ...]) -> Formula:
    mapping = {f: var(a) for f, a in zip(formals, actuals) if f != a}
    return guard.substitute(mapping) if mapping else guard


def specialize_pre(
    assumptions: List[PreAssume],
    store: DefStore,
    ctx: SolverContext,
) -> List[PreAssume]:
    """Specialise pre-assumptions; keep only informative ones."""
    out: List[PreAssume] = []
    for a in assumptions:
        lhs_cases: List[Tuple[Formula, Union[TempPred, str]]]
        if isinstance(a.lhs, PreRef):
            formals = store.pair_args[a.lhs.name]
            lhs_cases = [
                (_instantiate_guard(g, formals, a.lhs.args), pre)
                for g, pre, _post in store.leaf_cases(a.lhs.name)
            ]
        else:
            lhs_cases = [(TRUE, a.lhs)]
        if isinstance(a.rhs, PreRef):
            formals = store.pair_args[a.rhs.name]
            rhs_cases = [
                (_instantiate_guard(g, formals, a.rhs.args), pre)
                for g, pre, _post in store.leaf_cases(a.rhs.name)
            ]
        else:
            rhs_cases = [(TRUE, a.rhs)]
        for gl, pl in lhs_cases:
            # Resolved callers need no further assumptions; Loop/MayLoop
            # left sides accept anything (trivially valid).
            if not isinstance(pl, str) and not isinstance(pl, PreRef):
                continue
            lhs_pred: Union[TempPred, PreRef]
            if isinstance(pl, str):
                lhs_pred = PreRef(pl, a.lhs.args)  # type: ignore[union-attr]
            else:
                lhs_pred = pl
            for gr, pr in rhs_cases:
                spec_ctx = conj(a.ctx, gl, gr)
                if not ctx.is_sat(spec_ctx):
                    continue
                rhs_pred: Union[TempPred, PreRef]
                if isinstance(pr, str):
                    rhs_pred = PreRef(pr, a.rhs.args)  # type: ignore[union-attr]
                elif isinstance(pr, Term):
                    # Known-terminating callee case: a base-reachability
                    # edge (Term sink in the reachability graph).
                    rhs_pred = TERM
                elif isinstance(pr, Loop):
                    rhs_pred = LOOP
                elif isinstance(pr, MayLoop):
                    rhs_pred = MAYLOOP
                else:
                    rhs_pred = pr
                out.append(PreAssume(ctx=spec_ctx, lhs=lhs_pred, rhs=rhs_pred))
    return out


def specialize_post(
    assumptions: List[PostAssume],
    store: DefStore,
    ctx: SolverContext,
) -> List[PostAssume]:
    """Specialise post-assumptions; keep only those with an unknown RHS."""
    out: List[PostAssume] = []
    for a in assumptions:
        new_entries: List[PostEntry] = []
        feasible = True
        for g, p in a.entries:
            if isinstance(p, PostVal):
                if not p.reachable:
                    new_entries.append((g, p))
                continue
            assert isinstance(p, PostRef)
            formals = store.pair_args[p.name]
            for cg, _pre, post in store.leaf_cases(p.name):
                guard = conj(g, _instantiate_guard(cg, formals, p.args))
                if not ctx.is_sat(conj(a.ctx, guard)):
                    continue
                if isinstance(post, str):
                    new_entries.append((guard, PostRef(post, p.args)))
                elif isinstance(post, PostVal):
                    if not post.reachable:
                        new_entries.append((guard, POST_FALSE))
                    # reachable-true entries are vacuous
                else:
                    raise TypeError(f"unexpected post status {post!r}")
        rhs_formals = store.pair_args[a.rhs.name]
        for cg, _pre, post in store.leaf_cases(a.rhs.name):
            guard = conj(a.guard, _instantiate_guard(cg, rhs_formals, a.rhs.args))
            if not ctx.is_sat(conj(a.ctx, guard)):
                continue
            if isinstance(post, str):
                out.append(
                    PostAssume(
                        ctx=a.ctx,
                        entries=tuple(new_entries),
                        guard=guard,
                        rhs=PostRef(post, a.rhs.args),
                    )
                )
            # resolved RHS (true or false) discharges the assumption
    return out
