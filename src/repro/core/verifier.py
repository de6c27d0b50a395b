"""Hoare-style forward verification generating temporal assumptions.

This implements the assumption-collection side of paper Section 4: a
symbolic execution of each (desugared) method body over pure arithmetic
states.  At every call site the precondition entailment contributes a
pre-assumption to ``S`` ([TNT-CALL]); at every exit the postcondition
entailment contributes a post-assumption to ``T`` ([TNT-METH]).

Callee handling mirrors the paper's modularity story:

* a callee in the *same* SCC (still unknown) contributes
  ``rho /\\ Upr_caller => Upr_callee`` and accumulates its ``Upo`` into the
  state;
* a callee already *solved* contributes, per summary case: nothing for
  ``Term`` (the trivial-assumption filter), an ``eta => false`` entry for
  ``Loop`` cases (feeding the caller's non-termination proof), and a
  ``MayLoop`` demand for ``MayLoop`` cases (capping the caller at
  ``MayLoop`` via the resource hierarchy);
* primitives are ``Term`` with their declared ``ensures``.

Heap statements must have been abstracted away by :mod:`repro.seplog`
before verification; encountering one raises :class:`VerifierError`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arith.context import SolverContext
from repro.arith.formula import DNFLimit, Formula, TRUE, atom_eq, conj, neg
from repro.arith.terms import LinExpr, var
from repro.core.assumptions import PostAssume, PostEntry, PreAssume
from repro.core.predicates import (
    MAYLOOP,
    POST_FALSE,
    Loop,
    MayLoop,
    PostRef,
    PostVal,
    PreRef,
    Term,
)
from repro.core.specs import CaseSpec
from repro.lang import ast
from repro.lang.ast import (
    Assign,
    Assume,
    CallExpr,
    CallStmt,
    Expr,
    Havoc,
    If,
    Method,
    Program,
    Return,
    Seq,
    Skip,
    Stmt,
    VarDecl,
)
from repro.lang.to_arith import PurityError, expr_to_formula, expr_to_linexpr


class VerifierError(Exception):
    """Raised on constructs the pure verifier cannot handle."""


@dataclass(frozen=True)
class SymState:
    """A path state: context formula, SSA environment, accumulated posts."""

    ctx: Formula
    env: Tuple[Tuple[str, str], ...]  # program var -> current SSA name
    posts: Tuple[PostEntry, ...]

    def lookup(self, name: str) -> str:
        for k, v in self.env:
            if k == name:
                return v
        raise VerifierError(f"unknown variable {name!r}")

    def bind(self, name: str, ssa: str) -> "SymState":
        env = tuple((k, v) for k, v in self.env if k != name) + ((name, ssa),)
        return replace(self, env=env)


@dataclass
class MethodAssumptions:
    """The (S, T) assumption sets of one method."""

    method: str
    pair: str
    params: Tuple[str, ...]
    pre_assumptions: List[PreAssume] = field(default_factory=list)
    post_assumptions: List[PostAssume] = field(default_factory=list)


class Verifier:
    """Forward symbolic executor for one method at a time."""

    def __init__(
        self,
        program: Program,
        pairs: Dict[str, str],
        solved: Dict[str, CaseSpec],
        ctx: SolverContext,
    ):
        """*pairs* maps unresolved method names to their unknown pair names;
        *solved* maps resolved method names to their summaries; *ctx* is the
        solver context shared by the whole group analysis."""
        self.program = program
        self.pairs = pairs
        self.solved = solved
        self.ctx = ctx
        self._fresh_counter = itertools.count()

    def fresh(self, base: str = "v") -> str:
        return f"{base}!{next(self._fresh_counter)}"

    # -- public API -------------------------------------------------------------

    def collect(self, method: Method) -> MethodAssumptions:
        """Run the body of *method* and collect its (S, T) sets."""
        if method.body is None:
            raise VerifierError(f"method {method.name!r} has no body")
        pair = self.pairs[method.name]
        params = tuple(method.param_names)
        out = MethodAssumptions(method=method.name, pair=pair, params=params)
        ctx: Formula = TRUE
        if method.requires is not None:
            ctx = conj(ctx, method.requires)
        state = SymState(ctx=ctx, env=tuple((p, p) for p in params), posts=())
        finals = self._exec(method.body, state, out, method)
        for final in finals:
            if final is None:
                continue
            self._emit_post(final, out)
        return out

    # -- statement execution ------------------------------------------------------

    def _exec(
        self,
        s: Stmt,
        state: Optional[SymState],
        out: MethodAssumptions,
        method: Method,
    ) -> List[Optional[SymState]]:
        """Execute *s*; returns the fall-through states (None marks a path
        that returned and was already finalised)."""
        if state is None:
            return [None]
        if isinstance(s, Skip):
            return [state]
        if isinstance(s, VarDecl):
            if s.init is None:
                ssa = self.fresh(s.name)
                return [state.bind(s.name, ssa)]
            return self._assign(s.name, s.init, state, out, method)
        if isinstance(s, Assign):
            return self._assign(s.name, s.value, state, out, method)
        if isinstance(s, CallStmt):
            return self._call(s.name, s.args, None, state, out, method)
        if isinstance(s, Seq):
            states: List[Optional[SymState]] = [state]
            for t in s.stmts:
                next_states: List[Optional[SymState]] = []
                for st in states:
                    if st is None:
                        next_states.append(None)
                    else:
                        next_states.extend(self._exec(t, st, out, method))
                states = next_states
            return states
        if isinstance(s, If):
            cond = self._formula(s.cond, state)
            out_states: List[Optional[SymState]] = []
            then_ctx = conj(state.ctx, cond)
            if self.ctx.is_sat(then_ctx):
                out_states.extend(
                    self._exec(s.then, replace(state, ctx=then_ctx), out, method)
                )
            else_ctx = conj(state.ctx, neg(cond))
            if self.ctx.is_sat(else_ctx):
                out_states.extend(
                    self._exec(s.els, replace(state, ctx=else_ctx), out, method)
                )
            return out_states
        if isinstance(s, Return):
            # Safety ensures are orthogonal (assumed verified elsewhere);
            # only the temporal postcondition entailment fires here.
            self._emit_post(state, out)
            return [None]
        if isinstance(s, Assume):
            cond = self._formula(s.cond, state)
            new_ctx = conj(state.ctx, cond)
            if not self.ctx.is_sat(new_ctx):
                return [None]
            return [replace(state, ctx=new_ctx)]
        if isinstance(s, Havoc):
            st = state
            for name in s.names:
                st = st.bind(name, self.fresh(name))
            return [st]
        raise VerifierError(
            f"statement {type(s).__name__} is outside the pure fragment "
            "(heap statements must be abstracted by repro.seplog first)"
        )

    # -- helpers --------------------------------------------------------------

    def _subst_map(self, state: SymState) -> Dict[str, LinExpr]:
        return {k: var(v) for k, v in state.env if k != v}

    def _linexpr(self, e: Expr, state: SymState) -> LinExpr:
        try:
            raw = expr_to_linexpr(e, fresh=lambda: self.fresh("nd"))
        except PurityError as exc:
            raise VerifierError(str(exc)) from exc
        return raw.substitute(self._subst_map(state))

    def _formula(self, e: Expr, state: SymState) -> Formula:
        try:
            raw = expr_to_formula(e, fresh=lambda: self.fresh("nd"))
        except PurityError as exc:
            raise VerifierError(str(exc)) from exc
        return raw.substitute(self._subst_map(state))

    def _assign(
        self,
        name: str,
        value: Expr,
        state: SymState,
        out: MethodAssumptions,
        method: Method,
    ) -> List[Optional[SymState]]:
        if isinstance(value, CallExpr):
            return self._call(value.name, value.args, name, state, out, method)
        expr = self._linexpr(value, state)
        ssa = self.fresh(name)
        new = state.bind(name, ssa)
        return [replace(new, ctx=conj(state.ctx, atom_eq(var(ssa), expr)))]

    def _call(
        self,
        callee_name: str,
        args: Sequence[Expr],
        result_var: Optional[str],
        state: SymState,
        out: MethodAssumptions,
        method: Method,
    ) -> List[Optional[SymState]]:
        callee = self.program.methods.get(callee_name)
        if callee is None:
            raise VerifierError(f"call to unknown method {callee_name!r}")
        arg_exprs = [self._linexpr(a, state) for a in args]
        # Bind fresh variables to the actual argument values so that the
        # assumptions relate caller parameters to callee arguments.
        formals = callee.param_names
        arg_vars: List[str] = []
        ctx = state.ctx
        for formal, expr in zip(formals, arg_exprs):
            av = self.fresh(f"{formal}'")
            arg_vars.append(av)
            ctx = conj(ctx, atom_eq(var(av), expr))
        state = replace(state, ctx=ctx)

        caller_ref = PreRef(self.pairs[method.name], out.params)

        if callee_name in self.pairs:
            # Unknown callee: same analysis group.
            callee_ref = PreRef(self.pairs[callee_name], tuple(arg_vars))
            keep = set(out.params) | set(arg_vars)
            out.pre_assumptions.append(
                PreAssume(
                    ctx=_safe_project(state.ctx, keep, self.ctx),
                    lhs=caller_ref,
                    rhs=callee_ref,
                )
            )
            post_ref = PostRef(self.pairs[callee_name], tuple(arg_vars))
            state = replace(state, posts=state.posts + ((TRUE, post_ref),))
        elif callee_name in self.solved:
            spec = self.solved[callee_name]
            inst = dict(zip(spec.params, [var(v) for v in arg_vars]))
            for case in spec.cases:
                guard = case.guard.substitute(inst)
                if not self.ctx.is_sat(conj(state.ctx, guard)):
                    continue
                if isinstance(case.pred, MayLoop):
                    keep = set(out.params) | set(arg_vars)
                    out.pre_assumptions.append(
                        PreAssume(
                            ctx=_safe_project(conj(state.ctx, guard), keep, self.ctx),
                            lhs=caller_ref,
                            rhs=MAYLOOP,
                        )
                    )
                if isinstance(case.pred, Loop) or not case.post.reachable:
                    state = replace(
                        state, posts=state.posts + ((guard, POST_FALSE),)
                    )
        elif not callee.is_primitive:
            raise VerifierError(
                f"callee {callee_name!r} is neither pending nor solved"
            )
        # Result binding and safety postcondition.
        res_ssa: Optional[str] = None
        if result_var is not None:
            res_ssa = self.fresh(result_var)
            state = state.bind(result_var, res_ssa)
        if callee.ensures is not None:
            mapping: Dict[str, LinExpr] = {
                f: var(av) for f, av in zip(formals, arg_vars)
            }
            if res_ssa is not None:
                mapping["res"] = var(res_ssa)
                post = callee.ensures.substitute(mapping)
                state = replace(state, ctx=conj(state.ctx, post))
            elif "res" not in callee.ensures.free_vars():
                post = callee.ensures.substitute(mapping)
                state = replace(state, ctx=conj(state.ctx, post))
        return [state]

    def _emit_post(self, state: SymState, out: MethodAssumptions) -> None:
        keep = set(out.params)
        for guard, entry in state.posts:
            keep |= guard.free_vars()
            if isinstance(entry, PostRef):
                keep |= set(entry.args)
        ctx = _safe_project(state.ctx, keep, self.ctx)
        if not self.ctx.is_sat(ctx):
            return
        out.post_assumptions.append(
            PostAssume(
                ctx=ctx,
                entries=state.posts,
                guard=TRUE,
                rhs=PostRef(out.pair, out.params),
            )
        )

def _safe_project(ctx, keep, solver):
    """Projection with a blow-up fallback: keep the unprojected context
    (it mentions more variables but is equivalent, hence still sound)."""
    try:
        return solver.project(ctx, keep=set(keep))
    except DNFLimit:
        return ctx
