"""Numeric size abstraction of heap-manipulating methods.

For every method carrying separation-logic specifications
(:class:`repro.seplog.heap.HeapSpec`), each spec case is symbolically
executed over symbolic heaps (unfolding inductive predicates on demand,
matching callee preconditions with the entailment engine) and compiled
into a pure integer method named ``<name>__h<k>`` whose parameters are the
spec's size variables plus the original integer parameters.  The pure TNT
pipeline then analyses those integer methods -- realising the paper's
"heap-based properties are handled prior to termination analysis".

Pure methods (no heap statements, no specs) pass through unchanged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arith.formula import (
    And,
    Atom,
    BoolConst,
    Formula,
    Not,
    Or,
    Rel,
    TRUE,
    conj,
)
from repro.arith.context import SolverContext
from repro.arith.terms import LinExpr, var
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
    If,
    IntLit,
    Method,
    NewExpr,
    NullLit,
    Param,
    Program,
    Return,
    Seq,
    Skip,
    Stmt,
    Var,
    VarDecl,
    seq,
)
from repro.seplog.entail import match_instance
from repro.seplog.heap import (
    NULL,
    HeapSpec,
    PointsTo,
    PredInst,
    SymHeap,
    fresh_ptr,
    unfold,
)


class AbstractionError(Exception):
    """Raised when a heap construct falls outside the supported fragment."""


def _expr_of_linexpr(e: LinExpr) -> Expr:
    """Convert a LinExpr back into a language expression."""
    out: Optional[Expr] = None
    for name, c in sorted(e.coeffs.items()):
        if c.denominator != 1:
            raise AbstractionError(f"non-integer coefficient in {e}")
        term: Expr = Var(name)
        k = int(c)
        if k != 1:
            term = Binary("*", IntLit(abs(k)), Var(name))
        if k < 0:
            out = Binary("-", out if out is not None else IntLit(0), term)
        else:
            out = term if out is None else Binary("+", out, term)
    konst = e.constant
    if konst.denominator != 1:
        raise AbstractionError(f"non-integer constant in {e}")
    k = int(konst)
    if out is None:
        return IntLit(k)
    if k > 0:
        return Binary("+", out, IntLit(k))
    if k < 0:
        return Binary("-", out, IntLit(-k))
    return out


def _expr_of_formula(p: Formula) -> Expr:
    """Convert a (quantifier-free) formula back into a boolean expression."""
    if isinstance(p, BoolConst):
        return ast.BoolLit(p.value)
    if isinstance(p, Atom):
        lhs = _expr_of_linexpr(p.expr)
        if p.rel is Rel.LE:
            op = "<="
        elif p.rel is Rel.LT:
            op = "<"
        else:
            op = "=="
        return Binary(op, lhs, IntLit(0))
    if isinstance(p, And):
        out = _expr_of_formula(p.args[0])
        for a in p.args[1:]:
            out = Binary("&&", out, _expr_of_formula(a))
        return out
    if isinstance(p, Or):
        out = _expr_of_formula(p.args[0])
        for a in p.args[1:]:
            out = Binary("||", out, _expr_of_formula(a))
        return out
    if isinstance(p, Not):
        return ast.Unary("!", _expr_of_formula(p.arg))
    raise AbstractionError(f"cannot reify formula {p!r}")


@dataclass
class _State:
    """Symbolic execution state for one path."""

    heap: SymHeap
    aliases: Dict[str, str]
    ptr_env: Dict[str, str]          # pointer program var -> symbolic name
    int_env: Dict[str, LinExpr]      # integer program var -> value
    path: Formula                    # numeric path condition (size vars)
    ops: List[Stmt]                  # emitted numeric statements

    def clone(self) -> "_State":
        return _State(
            heap=self.heap,
            aliases=dict(self.aliases),
            ptr_env=dict(self.ptr_env),
            int_env=dict(self.int_env),
            path=self.path,
            ops=list(self.ops),
        )

    def canon(self, name: str) -> str:
        seen = set()
        while name in self.aliases and name not in seen:
            seen.add(name)
            name = self.aliases[name]
        return name


class _Abstractor:
    def __init__(self, program: Program, ctx: SolverContext):
        self.program = program
        self.ctx = ctx
        self._fresh = itertools.count()

    def fresh_int(self, base: str = "sz") -> str:
        return f"{base}${next(self._fresh)}"

    # -- expression classification ------------------------------------------

    def _is_ptr_var(self, name: str, state: _State) -> bool:
        return name in state.ptr_env

    def _ptr_value(self, e: Expr, state: _State) -> Optional[str]:
        """The symbolic pointer name of *e*, materialising field reads."""
        if isinstance(e, NullLit):
            return NULL
        if isinstance(e, Var) and e.name in state.ptr_env:
            return state.canon(state.ptr_env[e.name])
        return None

    def _int_value(self, e: Expr, state: _State) -> LinExpr:
        from repro.lang.to_arith import expr_to_linexpr

        raw = expr_to_linexpr(e)
        return raw.substitute(state.int_env)

    # -- method abstraction -----------------------------------------------------

    def abstract_method(self, method: Method) -> List[Method]:
        out: List[Method] = []
        for k, spec in enumerate(method.heap_specs):
            out.append(self._abstract_case(method, k, spec))
        return out

    def _abstract_case(self, method: Method, k: int, spec: HeapSpec) -> Method:
        assert method.body is not None
        ptr_env: Dict[str, str] = {}
        int_env: Dict[str, LinExpr] = {}
        for p in method.params:
            if isinstance(p.type, ast.NamedType):
                ptr_env[p.name] = p.name
            else:
                int_env[p.name] = var(p.name)
        state = _State(
            heap=spec.pre,
            aliases={},
            ptr_env=ptr_env,
            int_env=int_env,
            path=TRUE,
            ops=[],
        )
        finished: List[_State] = []
        self._exec(method.body, state, finished, method)
        body = self._emit(finished, spec)
        int_params = [
            p for p in method.params if not isinstance(p.type, ast.NamedType)
        ]
        params = [Param(ast.INT, s) for s in spec.size_params] + int_params
        requires = self.ctx.simplify(
            self.ctx.project(spec.pre.pure, keep=set(spec.size_params)
                    | {p.name for p in int_params})
        )
        return Method(
            ret_type=ast.VOID,
            name=f"{method.name}__h{k}",
            params=params,
            body=body,
            requires=requires,
        )

    def _emit(self, finished: List[_State], spec: HeapSpec) -> Stmt:
        """Compile finished paths into a numeric if-chain body."""
        if not finished:
            # no feasible path: method exit unreachable under this spec
            return Assume(ast.BoolLit(False))
        branches: List[Tuple[Formula, Stmt]] = []
        for st in finished:
            guard = self.ctx.simplify(st.path)
            body = seq(*st.ops, Return(None))
            branches.append((guard, body))
        out: Stmt = Assume(ast.BoolLit(False))
        for guard, body in reversed(branches):
            if guard == TRUE:
                out = body
            else:
                out = If(_expr_of_formula(guard), body, out)
        return out

    # -- statement execution ------------------------------------------------------

    def _exec(
        self,
        s: Stmt,
        state: Optional[_State],
        finished: List[_State],
        method: Method,
    ) -> List[Optional[_State]]:
        if state is None:
            return [None]
        if isinstance(s, Skip):
            return [state]
        if isinstance(s, Seq):
            states: List[Optional[_State]] = [state]
            for t in s.stmts:
                nxt: List[Optional[_State]] = []
                for st in states:
                    nxt.extend(self._exec(t, st, finished, method))
                states = nxt
            return states
        if isinstance(s, Return):
            finished.append(state)
            return [None]
        if isinstance(s, VarDecl):
            if isinstance(s.type, ast.NamedType):
                value = (
                    self._eval_ptr(s.init, state, finished, method)
                    if s.init is not None
                    else NULL
                )
                state.ptr_env[s.name] = value
                return [state]
            if s.init is None:
                state.int_env[s.name] = var(self.fresh_int(s.name))
                return [state]
            return self._exec(Assign(s.name, s.init), state, finished, method)
        if isinstance(s, Assign):
            if s.name in state.ptr_env or isinstance(
                s.value, (NullLit, NewExpr, FieldRead)
            ) or (isinstance(s.value, Var) and s.value.name in state.ptr_env):
                value = self._eval_ptr(s.value, state, finished, method)
                state.ptr_env[s.name] = value
                return [state]
            if isinstance(s.value, CallExpr):
                raise AbstractionError(
                    "int-returning heap calls are not supported by the "
                    "size abstraction"
                )
            state.int_env[s.name] = self._int_value(s.value, state)
            return [state]
        if isinstance(s, FieldWrite):
            self._write_field(s.base, s.fieldname, s.value, state)
            return [state]
        if isinstance(s, If):
            return self._branch(s, state, finished, method)
        if isinstance(s, CallStmt):
            return self._call(s.name, s.args, state, finished, method)
        raise AbstractionError(
            f"unsupported statement {type(s).__name__} in heap abstraction"
        )

    # -- pointer evaluation -------------------------------------------------------

    def _eval_ptr(
        self,
        e: Expr,
        state: _State,
        finished: List[_State],
        method: Method,
    ) -> str:
        if isinstance(e, NullLit):
            return NULL
        if isinstance(e, Var):
            return state.canon(state.ptr_env[e.name])
        if isinstance(e, NewExpr):
            loc = fresh_ptr("new")
            fields = []
            decl = self.program.data_decls.get(e.type_name)
            if decl is None:
                raise AbstractionError(f"unknown data type {e.type_name!r}")
            for f, a in zip(decl.fields, e.args):
                value = self._eval_ptr(a, state, finished, method)
                fields.append((f.name, value))
            for f in decl.fields[len(e.args):]:
                fields.append((f.name, NULL))
            state.heap = state.heap.star(
                PointsTo(loc, e.type_name, tuple(fields))
            )
            return loc
        if isinstance(e, FieldRead):
            base = self._eval_ptr(e.base, state, finished, method)
            cell = self._materialise(base, state)
            return state.canon(cell.field(e.fieldname))
        raise AbstractionError(f"unsupported pointer expression {e}")

    def _materialise(self, loc: str, state: _State) -> PointsTo:
        """Get the points-to cell for *loc*, unfolding a predicate there if
        needed.  The non-empty unfolding is taken (dereferencing the root
        of an empty segment would be a null dereference -- safety is
        assumed verified, per the paper's layering)."""
        cell = state.heap.find_points_to(loc, state.aliases)
        if cell is not None:
            return cell
        inst = state.heap.find_pred(loc, state.aliases)
        if inst is None:
            raise AbstractionError(f"no heap chunk at {loc}")
        cases = unfold(state.heap, inst, state.aliases, ctx=self.ctx)
        # choose the case that materialises a cell at loc
        for heap, aliases in cases:
            cell = heap.find_points_to(loc, aliases)
            if cell is not None:
                state.heap = heap
                state.aliases = aliases
                # record the size fact (size >= 1) in the path
                state.path = conj(state.path, heap.pure)
                return cell
        raise AbstractionError(f"cannot materialise a cell at {loc}")

    def _write_field(
        self, base: str, fieldname: str, value: Expr, state: _State
    ) -> None:
        loc = state.canon(state.ptr_env[base])
        cell = self._materialise(loc, state)
        target = self._eval_ptr(value, state, finished=[], method=None)  # type: ignore[arg-type]
        state.heap = state.heap.without(cell).star(
            cell.with_field(fieldname, target)
        )

    # -- branching -----------------------------------------------------------------

    def _branch(
        self,
        s: If,
        state: _State,
        finished: List[_State],
        method: Method,
    ) -> List[Optional[_State]]:
        cond = s.cond
        ptr_test = self._pointer_test(cond, state)
        if ptr_test is None:
            # pure integer condition
            from repro.lang.to_arith import expr_to_formula

            f = expr_to_formula(cond).substitute(state.int_env)
            out: List[Optional[_State]] = []
            then_state = state.clone()
            then_state.path = conj(then_state.path, f)
            if self.ctx.is_sat(conj(then_state.path, then_state.heap.pure)):
                out.extend(self._exec(s.then, then_state, finished, method))
            else_state = state.clone()
            from repro.arith.formula import neg

            else_state.path = conj(else_state.path, neg(f))
            if self.ctx.is_sat(conj(else_state.path, else_state.heap.pure)):
                out.extend(self._exec(s.els, else_state, finished, method))
            return out
        lhs, rhs, negated = ptr_test
        out = []
        for branch_state, equal in self._split_on_equality(state, lhs, rhs):
            taken_then = equal != negated
            branch = s.then if taken_then else s.els
            out.extend(self._exec(branch, branch_state, finished, method))
        return out

    def _pointer_test(
        self, cond: Expr, state: _State
    ) -> Optional[Tuple[Expr, Expr, bool]]:
        """Recognise ``p == q`` / ``p != q`` pointer comparisons."""
        if isinstance(cond, Binary) and cond.op in ("==", "!="):
            left_ptr = self._is_ptr_expr(cond.left, state)
            right_ptr = self._is_ptr_expr(cond.right, state)
            if left_ptr or right_ptr:
                return cond.left, cond.right, cond.op == "!="
        return None

    def _is_ptr_expr(self, e: Expr, state: _State) -> bool:
        if isinstance(e, NullLit):
            return True
        if isinstance(e, Var):
            return e.name in state.ptr_env
        if isinstance(e, FieldRead):
            return True
        return False

    def _split_on_equality(
        self, state: _State, lhs: Expr, rhs: Expr
    ) -> List[Tuple[_State, bool]]:
        """Case-split a pointer equality test, unfolding when needed."""
        st = state.clone()
        a = self._eval_ptr(lhs, st, [], None)  # type: ignore[arg-type]
        b = self._eval_ptr(rhs, st, [], None)  # type: ignore[arg-type]
        a, b = st.canon(a), st.canon(b)
        if a == b:
            return [(st, True)]
        # If one side is the root of a predicate instance, unfolding decides
        # (empty case aliases the root; nonempty case materialises a cell).
        for root, other in ((a, b), (b, a)):
            inst = st.heap.find_pred(root, st.aliases)
            if inst is None:
                continue
            results: List[Tuple[_State, bool]] = []
            for heap, aliases in unfold(st.heap, inst, st.aliases, ctx=self.ctx):
                case = st.clone()
                case.heap = heap
                case.aliases = aliases
                case.path = conj(case.path, heap.pure)
                ca, cb = case.canon(a), case.canon(b)
                results.append((case, ca == cb))
            if results:
                return results
        # Distinct allocated cells / null vs cell are unequal.
        cell_a = st.heap.find_points_to(a, st.aliases)
        cell_b = st.heap.find_points_to(b, st.aliases)
        if (cell_a is not None and (b == NULL or cell_b is not None)) or (
            cell_b is not None and a == NULL
        ):
            return [(st, False)]
        # Unknown: take both branches unconstrained (over-approximation).
        return [(st.clone(), True), (st.clone(), False)]

    # -- calls -----------------------------------------------------------------------

    def _call(
        self,
        callee_name: str,
        args: Sequence[Expr],
        state: _State,
        finished: List[_State],
        method: Method,
    ) -> List[Optional[_State]]:
        callee = self.program.methods.get(callee_name)
        if callee is None:
            raise AbstractionError(f"unknown callee {callee_name!r}")
        if not callee.heap_specs:
            # pure callee: forward integer arguments
            int_args = [
                _expr_of_linexpr(self._int_value(a, state)) for a in args
            ]
            state.ops.append(CallStmt(callee_name, tuple(int_args)))
            return [state]
        # match each heap spec case of the callee
        for k, spec in enumerate(callee.heap_specs):
            match = self._match_pre(callee, spec, args, state)
            if match is None:
                continue
            frame, size_args = match
            post = self._instantiate_post(spec, size_args, args, callee, state)
            new_chunks = frame.chunks + post.chunks
            state.heap = SymHeap(
                chunks=new_chunks, pure=conj(frame.pure, post.pure)
            )
            numeric_args = [_expr_of_linexpr(sz) for sz in size_args]
            int_args = [
                _expr_of_linexpr(self._int_value(a, state))
                for a, p in zip(args, callee.params)
                if not isinstance(p.type, ast.NamedType)
            ]
            state.ops.append(
                CallStmt(f"{callee_name}__h{k}", tuple(numeric_args + int_args))
            )
            return [state]
        raise AbstractionError(
            f"no heap spec of {callee_name!r} matches the call site"
        )

    def _match_pre(
        self,
        callee: Method,
        spec: HeapSpec,
        args: Sequence[Expr],
        state: _State,
    ) -> Optional[Tuple[SymHeap, List[LinExpr]]]:
        """Match the callee precondition; returns (frame, size argument
        expressions in spec.size_params order)."""
        formal_to_actual: Dict[str, str] = {}
        for p, a in zip(callee.params, args):
            if isinstance(p.type, ast.NamedType):
                formal_to_actual[p.name] = self._eval_ptr(a, state, [], None)  # type: ignore[arg-type]
        heap = state.heap
        size_values: Dict[str, LinExpr] = {}
        for chunk in spec.pre.chunks:
            if not isinstance(chunk, PredInst):
                raise AbstractionError(
                    "callee preconditions must be predicate instances"
                )
            ptr_args = tuple(
                formal_to_actual.get(x, x) for x in chunk.ptr_args
            )
            size_name = self._single_var(chunk.size)
            result = match_instance(heap, chunk.pred, ptr_args, state.aliases)
            if result is None:
                return None
            heap = result.frame
            size_values[size_name] = result.size
        try:
            size_args = [size_values[s] for s in spec.size_params]
        except KeyError:
            return None
        # precondition's pure part must hold
        pure_inst = spec.pre.pure.substitute(size_values)
        if not self.ctx.is_sat(conj(state.path, state.heap.pure, pure_inst)):
            return None
        return heap, size_args

    @staticmethod
    def _single_var(e: LinExpr) -> str:
        names = sorted(e.variables())
        if len(names) != 1 or e.coeff(names[0]) != 1 or e.constant != 0:
            raise AbstractionError(
                f"spec sizes must be plain variables, got {e}"
            )
        return names[0]

    def _instantiate_post(
        self,
        spec: HeapSpec,
        size_args: List[LinExpr],
        args: Sequence[Expr],
        callee: Method,
        state: _State,
    ) -> SymHeap:
        """The callee's postcondition heap with formals bound to actuals."""
        mapping = dict(zip(spec.size_params, size_args))
        chunks = []
        formal_to_actual: Dict[str, str] = {}
        for p, a in zip(callee.params, args):
            if isinstance(p.type, ast.NamedType):
                formal_to_actual[p.name] = self._eval_ptr(a, state, [], None)  # type: ignore[arg-type]
        for chunk in spec.post.chunks:
            if isinstance(chunk, PredInst):
                chunks.append(
                    PredInst(
                        chunk.pred,
                        tuple(formal_to_actual.get(x, x) for x in chunk.ptr_args),
                        chunk.size.substitute(mapping),
                    )
                )
            elif isinstance(chunk, PointsTo):
                chunks.append(
                    PointsTo(
                        formal_to_actual.get(chunk.loc, chunk.loc),
                        chunk.type_name,
                        tuple(
                            (f, formal_to_actual.get(v, v))
                            for f, v in chunk.fields
                        ),
                    )
                )
        return SymHeap(
            chunks=tuple(chunks), pure=spec.post.pure.substitute(mapping)
        )


def has_heap_statements(method: Method) -> bool:
    """Whether the method touches the heap syntactically."""
    if method.body is None:
        return False
    found = False

    def walk_expr(e: Expr) -> None:
        nonlocal found
        if isinstance(e, (FieldRead, NewExpr, NullLit)):
            found = True
        if isinstance(e, Binary):
            walk_expr(e.left)
            walk_expr(e.right)
        if isinstance(e, ast.Unary):
            walk_expr(e.arg)
        if isinstance(e, (CallExpr, NewExpr)):
            for a in e.args:
                walk_expr(a)

    def walk(s: Stmt) -> None:
        nonlocal found
        if isinstance(s, FieldWrite):
            found = True
        elif isinstance(s, VarDecl):
            if isinstance(s.type, ast.NamedType):
                found = True
            if s.init is not None:
                walk_expr(s.init)
        elif isinstance(s, Assign):
            walk_expr(s.value)
        elif isinstance(s, CallStmt):
            for a in s.args:
                walk_expr(a)
        elif isinstance(s, Seq):
            for t in s.stmts:
                walk(t)
        elif isinstance(s, If):
            walk_expr(s.cond)
            walk(s.then)
            walk(s.els)
        elif isinstance(s, Return):
            if s.value is not None:
                walk_expr(s.value)
        elif isinstance(s, Assume):
            walk_expr(s.cond)

    walk(method.body)
    return found


def abstract_program(program: Program, ctx: SolverContext) -> Program:
    """Replace heap methods (those carrying heap specs) by their numeric
    abstractions; pure methods pass through unchanged.

    *ctx* is the solver context used for every arithmetic side condition
    of the abstraction (path feasibility, spec projection)."""
    heap_methods = {
        name: m for name, m in program.methods.items() if m.heap_specs
    }
    if not heap_methods:
        return program
    abstractor = _Abstractor(program, ctx=ctx)
    methods: Dict[str, Method] = {}
    for name, m in program.methods.items():
        if name in heap_methods:
            for nm in abstractor.abstract_method(m):
                methods[nm.name] = nm
        else:
            if has_heap_statements(m) and m.body is not None:
                raise AbstractionError(
                    f"method {name!r} uses the heap but has no heap spec"
                )
            methods[name] = m
    return Program(data_decls=dict(program.data_decls), methods=methods)
