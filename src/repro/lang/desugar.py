"""Desugaring passes: while->tail-recursion and call flattening.

After :func:`desugar_program`:

* no ``While`` statements remain -- each loop becomes a fresh tail-recursive
  method (named ``<method>_loop<k>``, flagged ``source_loop=True``) exactly
  as the paper assumes;
* method calls appear only in two normalised positions --
  ``x = mn(pure-args);`` or ``mn(pure-args);`` -- so the verifier never
  meets a nested call expression;
* ``VarDecl`` initialisers are pure (call initialisers are split into a
  declaration followed by an assignment).

A loop call site is summarised at the caller as::

    <method>_loopK(vs);  havoc <modified vs>;  assume(!cond);

which is the standard sound over-approximation: if the loop terminates the
modified variables hold *some* values falsifying the guard; if it does not
terminate, the code after the call is unreachable and the inference will
discover that from the loop method's own summary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.arith.context import SolverContext
from repro.arith.formula import BoolConst, DNFLimit
from repro.lang import ast
from repro.lang.ast import (
    Assign,
    Assume,
    Binary,
    CallExpr,
    CallStmt,
    Expr,
    FieldRead,
    FieldWrite,
    Havoc,
    If,
    Method,
    NewExpr,
    Nondet,
    Param,
    Program,
    Return,
    Seq,
    Skip,
    Stmt,
    Type,
    Unary,
    Var,
    VarDecl,
    While,
    expr_vars,
    seq,
    stmt_assigned_vars,
    stmt_used_vars,
)
from repro.lang.to_arith import is_pure_bool


class DesugarError(Exception):
    """Raised on constructs outside the supported fragment."""


@dataclass(frozen=True)
class LoopOrigin:
    """Where a desugared ``<method>_loopK`` method came from.

    Recorded (into the ``origin_out`` mapping of :func:`desugar_program`)
    at extraction time, keyed by loop-method name.  ``while_node`` is the
    *original* :class:`While` object from the caller's AST -- object
    identity is preserved through desugaring, so pre-analysis facts
    computed on the source AST (keyed by ``id(while_node)``) can be
    re-attached to the loop method regardless of how nested loops were
    numbered.
    """

    while_node: While
    method_name: str               # the enclosing source method
    carried: Tuple[str, ...]       # loop-method parameters, sorted
    modified: Tuple[str, ...]      # variables the body may write, sorted


class _Desugarer:
    def __init__(
        self,
        program: Program,
        origin_out: Optional[Dict[str, LoopOrigin]] = None,
    ):
        self.program = program
        self.new_methods: Dict[str, Method] = {}
        self.origin_out = origin_out
        # answers the projections of `requires` onto loop invariants
        self.ctx = SolverContext()
        self._temp_counter = itertools.count()
        self._loop_counter: Dict[str, itertools.count] = {}

    def fresh_temp(self) -> str:
        return f"_t{next(self._temp_counter)}"

    def fresh_loop_name(self, method: str) -> str:
        counter = self._loop_counter.setdefault(method, itertools.count())
        return f"{method}_loop{next(counter)}"

    # -- expressions ----------------------------------------------------------

    def flatten_expr(
        self,
        e: Expr,
        pre: List[Stmt],
        scope: Dict[str, Type],
        method: Method,
    ) -> Expr:
        """Rewrite *e* so that it contains no calls or allocations; emit
        the extracted statements into *pre*."""
        if isinstance(e, CallExpr):
            args = tuple(
                self.flatten_expr(a, pre, scope, method) for a in e.args
            )
            callee = self.program.methods.get(e.name)
            rtype: Type = callee.ret_type if callee is not None else ast.INT
            temp = self.fresh_temp()
            scope[temp] = rtype
            pre.append(VarDecl(rtype, temp, None))
            pre.append(Assign(temp, CallExpr(e.name, args)))
            return Var(temp)
        if isinstance(e, NewExpr):
            args = tuple(
                self.flatten_expr(a, pre, scope, method) for a in e.args
            )
            temp = self.fresh_temp()
            rtype = ast.NamedType(e.type_name)
            scope[temp] = rtype
            pre.append(VarDecl(rtype, temp, None))
            pre.append(Assign(temp, NewExpr(e.type_name, args)))
            return Var(temp)
        if isinstance(e, Unary):
            return Unary(e.op, self.flatten_expr(e.arg, pre, scope, method))
        if isinstance(e, Binary):
            left = self.flatten_expr(e.left, pre, scope, method)
            right = self.flatten_expr(e.right, pre, scope, method)
            return Binary(e.op, left, right)
        if isinstance(e, FieldRead):
            return FieldRead(
                self.flatten_expr(e.base, pre, scope, method), e.fieldname
            )
        return e

    # -- statements -------------------------------------------------------------

    def desugar_stmt(
        self, s: Stmt, scope: Dict[str, Type], method: Method
    ) -> Stmt:
        if isinstance(s, (Skip, Havoc)):
            return s
        if isinstance(s, VarDecl):
            scope[s.name] = s.type
            if s.init is None:
                return s
            pre: List[Stmt] = []
            init = self.flatten_expr(s.init, pre, scope, method)
            if pre:
                return seq(VarDecl(s.type, s.name, None), *pre, Assign(s.name, init))
            return VarDecl(s.type, s.name, init)
        if isinstance(s, Assign):
            pre = []
            if isinstance(s.value, (CallExpr, NewExpr)):
                # keep a top-level call assignment, but flatten its args
                args = tuple(
                    self.flatten_expr(a, pre, scope, method)
                    for a in s.value.args
                )
                if isinstance(s.value, CallExpr):
                    value: Expr = CallExpr(s.value.name, args)
                else:
                    value = NewExpr(s.value.type_name, args)
            else:
                value = self.flatten_expr(s.value, pre, scope, method)
            return seq(*pre, Assign(s.name, value)) if pre else Assign(s.name, value)
        if isinstance(s, FieldWrite):
            pre = []
            value = self.flatten_expr(s.value, pre, scope, method)
            out = FieldWrite(s.base, s.fieldname, value)
            return seq(*pre, out) if pre else out
        if isinstance(s, CallStmt):
            pre = []
            args = tuple(self.flatten_expr(a, pre, scope, method) for a in s.args)
            out = CallStmt(s.name, args)
            return seq(*pre, out) if pre else out
        if isinstance(s, Seq):
            return seq(*(self.desugar_stmt(t, scope, method) for t in s.stmts))
        if isinstance(s, If):
            pre = []
            cond = self.flatten_expr(s.cond, pre, scope, method)
            then = self.desugar_stmt(s.then, dict(scope), method)
            els = self.desugar_stmt(s.els, dict(scope), method)
            out: Stmt = If(cond, then, els)
            return seq(*pre, out) if pre else out
        if isinstance(s, Return):
            if s.value is None:
                return s
            pre = []
            value = self.flatten_expr(s.value, pre, scope, method)
            return seq(*pre, Return(value)) if pre else Return(value)
        if isinstance(s, Assume):
            return s
        if isinstance(s, While):
            return self.desugar_while(s, scope, method)
        raise TypeError(f"unknown statement {type(s).__name__}")

    def desugar_while(
        self, s: While, scope: Dict[str, Type], method: Method
    ) -> Stmt:
        if _contains_return(s.body):
            raise DesugarError(
                f"return inside a while body of {method.name!r} is not "
                "supported; restructure the loop (the paper's core language "
                "has no while at all)"
            )
        body = self.desugar_stmt(s.body, dict(scope), method)
        pre: List[Stmt] = []
        cond_scope = dict(scope)
        cond = self.flatten_expr(s.cond, pre, cond_scope, method)
        if pre:
            raise DesugarError(
                f"calls inside a loop condition of {method.name!r} are not "
                "supported; hoist the call manually"
            )
        used = (stmt_used_vars(s.body) | expr_vars(s.cond)) & set(scope)
        modified = stmt_assigned_vars(s.body) & set(scope)
        carried = sorted(used | modified)
        loop_name = self.fresh_loop_name(method.name)
        params = [Param(scope[v], v) for v in carried]
        loop_body = If(
            cond,
            seq(body, CallStmt(loop_name, tuple(Var(v) for v in carried))),
            Skip(),
        )
        # Propagate the enclosing contract over variables that are never
        # assigned anywhere in the method: those are invariant, so the
        # entry `requires` still holds at every loop iteration.  (This is
        # what makes contracts like `requires b > 0` visible to analyses
        # of the extracted loop method.)
        loop_requires = None
        if method.requires is not None and method.body is not None:
            immutable = (
                set(carried)
                - stmt_assigned_vars(method.body)
                - {p.name for p in method.params if p.by_ref}
            )
            if immutable:
                try:
                    projected = self.ctx.project(
                        method.requires, keep=immutable
                    )
                    if not isinstance(projected, BoolConst):
                        loop_requires = projected
                except DNFLimit:
                    loop_requires = None
        loop_method = Method(
            ret_type=ast.VOID,
            name=loop_name,
            params=params,
            body=loop_body,
            requires=loop_requires,
            source_loop=True,
        )
        self.new_methods[loop_name] = loop_method
        if self.origin_out is not None:
            self.origin_out[loop_name] = LoopOrigin(
                while_node=s,
                method_name=method.name,
                carried=tuple(carried),
                modified=tuple(sorted(modified)),
            )
        # Desugar the freshly built loop body too (it may contain nested
        # loops that were already handled recursively via desugar_stmt, but
        # the If wrapper itself needs no further treatment).
        call_site: List[Stmt] = [
            CallStmt(loop_name, tuple(Var(v) for v in carried))
        ]
        if modified:
            call_site.append(Havoc(tuple(sorted(modified))))
        if is_pure_bool(s.cond):
            call_site.append(Assume(Unary("!", s.cond)))
        return seq(*call_site)


def _contains_return(s: Stmt) -> bool:
    if isinstance(s, Return):
        return True
    if isinstance(s, Seq):
        return any(_contains_return(t) for t in s.stmts)
    if isinstance(s, If):
        return _contains_return(s.then) or _contains_return(s.els)
    if isinstance(s, While):
        return _contains_return(s.body)
    return False


def desugar_program(
    program: Program,
    origin_out: Optional[Dict[str, "LoopOrigin"]] = None,
) -> Program:
    """Return a new program with loops and nested calls desugared away.

    When *origin_out* is supplied, every extracted loop method's
    :class:`LoopOrigin` is recorded into it (keyed by loop-method name),
    letting the pre-analysis map facts about source ``While`` nodes onto
    the tail-recursive methods they became.
    """
    d = _Desugarer(program, origin_out=origin_out)
    methods: Dict[str, Method] = {}
    for name, m in program.methods.items():
        if m.body is None:
            methods[name] = m
            continue
        scope: Dict[str, Type] = {p.name: p.type for p in m.params}
        body = d.desugar_stmt(m.body, scope, m)
        methods[name] = Method(
            ret_type=m.ret_type,
            name=m.name,
            params=m.params,
            body=body,
            requires=m.requires,
            ensures=m.ensures,
            heap_specs=m.heap_specs,
            is_primitive=m.is_primitive,
            source_loop=m.source_loop,
            pos=m.pos,
            rank_hints=m.rank_hints,
        )
    methods.update(d.new_methods)
    return Program(data_decls=dict(program.data_decls), methods=methods)
