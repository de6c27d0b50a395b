"""The tree-walking interpreter :mod:`repro.lang.interp` had before it
compiled method bodies to closures, kept verbatim as a test oracle: every
step dispatches on the node type with an ``isinstance`` chain.

``tests/lang/test_interp_compiled.py`` checks that the compiled interpreter
gives the same outcomes, return values, fuel left, nondet draws and
errors.  It shares the heap model and exception types with
:mod:`repro.lang.interp`; nothing in ``src`` imports this module.
"""

from __future__ import annotations

import random
import time
from typing import Dict, Iterator, List, Optional

from repro.lang.ast import (
    Assign,
    Assume,
    Binary,
    BoolLit,
    CallExpr,
    CallStmt,
    Expr,
    FieldRead,
    FieldWrite,
    Havoc,
    If,
    IntLit,
    Method,
    NewExpr,
    Nondet,
    NullLit,
    Program,
    Return,
    Seq,
    Skip,
    Stmt,
    Unary,
    Var,
    VarDecl,
    While,
)
from repro.lang.interp import (
    AssumeViolated,
    Heap,
    InterpError,
    OutOfFuel,
    Value,
)


class _ReturnSignal(Exception):
    def __init__(self, value: Optional[Value]):
        self.value = value


class Interpreter:
    """Interpret a program with a global step budget ("fuel")."""

    def __init__(
        self,
        program: Program,
        fuel: int = 100_000,
        nondet: Optional[Iterator[int]] = None,
        seed: int = 0,
        wall_clock: Optional[float] = None,
    ):
        self.program = program
        self.fuel = fuel
        self._rng = random.Random(seed)
        self._nondet = nondet
        # Belt to the fuel braces: fuel bounds the *number* of steps, but
        # a single step can be arbitrarily slow (integers grow without
        # bound, so one addition on million-digit values dwarfs the rest
        # of the run).  An optional wall-clock budget turns such runs
        # into OutOfFuel instead of stalling the caller -- the fuzz
        # harness relies on this to classify a stuck run as UNKNOWN
        # rather than hanging the suite.
        self._deadline = (
            None if wall_clock is None else time.monotonic() + wall_clock
        )

    def _draw(self) -> int:
        if self._nondet is not None:
            try:
                return next(self._nondet)
            except StopIteration:
                return 0
        return self._rng.randint(-8, 8)

    def _tick(self) -> None:
        self.fuel -= 1
        if self.fuel <= 0:
            raise OutOfFuel()
        # Checked on *every* tick: step cost can double per iteration
        # (squaring loops), so any fixed check stride would let the value
        # blow past memory between two checks.  The clock read only costs
        # anything when a deadline was requested, and overshoot is then
        # bounded by the single step in flight.
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise OutOfFuel()

    # -- public API ---------------------------------------------------------

    def run(self, name: str, args: List[Value]) -> Optional[Value]:
        """Run method *name* on *args*; returns its result (None for void).

        Raises :class:`OutOfFuel` when the budget is exhausted and
        :class:`AssumeViolated` when an assumption prunes the execution.
        Deep interpreted recursion that overflows the Python stack is
        reported as :class:`OutOfFuel` as well (it is the same "did not
        finish within budget" evidence).
        """
        import sys

        method = self.program.method(name)
        heap = Heap()
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 50_000))
        try:
            return self._call(method, list(args), heap)
        except RecursionError:
            raise OutOfFuel() from None
        finally:
            sys.setrecursionlimit(old_limit)

    # -- core -----------------------------------------------------------------

    def _call(self, method: Method, args: List[Value], heap: Heap) -> Optional[Value]:
        self._tick()
        if method.body is None:
            raise InterpError(f"cannot execute bodiless method {method.name!r}")
        if len(args) != len(method.params):
            raise InterpError(
                f"{method.name} expects {len(method.params)} args, got {len(args)}"
            )
        env: Dict[str, Value] = {
            p.name: v for p, v in zip(method.params, args)
        }
        try:
            self._exec(method.body, env, heap)
        except _ReturnSignal as sig:
            return sig.value
        return None

    def _exec(self, s: Stmt, env: Dict[str, Value], heap: Heap) -> None:
        self._tick()
        if isinstance(s, Skip):
            return
        if isinstance(s, VarDecl):
            env[s.name] = (
                self._eval(s.init, env, heap) if s.init is not None else 0
            )
            return
        if isinstance(s, Assign):
            env[s.name] = self._eval(s.value, env, heap)
            return
        if isinstance(s, FieldWrite):
            base = env.get(s.base)
            if base is None:
                raise InterpError(f"unknown variable {s.base!r}")
            heap.write(base, s.fieldname, self._eval(s.value, env, heap))
            return
        if isinstance(s, CallStmt):
            callee = self.program.method(s.name)
            values = [self._eval(a, env, heap) for a in s.args]
            self._call(callee, values, heap)
            # By-value semantics: no writeback.  (Loops are interpreted from
            # the sugared source, so this matters only for explicit calls.)
            return
        if isinstance(s, Seq):
            for t in s.stmts:
                self._exec(t, env, heap)
            return
        if isinstance(s, If):
            if self._truthy(self._eval(s.cond, env, heap)):
                self._exec(s.then, env, heap)
            else:
                self._exec(s.els, env, heap)
            return
        if isinstance(s, While):
            while True:
                self._tick()
                if not self._truthy(self._eval(s.cond, env, heap)):
                    return
                self._exec(s.body, env, heap)
        if isinstance(s, Return):
            raise _ReturnSignal(
                self._eval(s.value, env, heap) if s.value is not None else None
            )
        if isinstance(s, Assume):
            if not self._truthy(self._eval(s.cond, env, heap)):
                raise AssumeViolated()
            return
        if isinstance(s, Havoc):
            for name in s.names:
                env[name] = self._draw()
            return
        raise TypeError(f"unknown statement {type(s).__name__}")

    def _eval(self, e: Expr, env: Dict[str, Value], heap: Heap) -> Value:
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, BoolLit):
            return e.value
        if isinstance(e, NullLit):
            return 0
        if isinstance(e, Var):
            if e.name not in env:
                raise InterpError(f"unknown variable {e.name!r}")
            return env[e.name]
        if isinstance(e, Nondet):
            return self._draw()
        if isinstance(e, Unary):
            v = self._eval(e.arg, env, heap)
            if e.op == "-":
                return -self._as_int(v)
            if e.op == "!":
                return not self._truthy(v)
            raise InterpError(f"unknown unary operator {e.op!r}")
        if isinstance(e, Binary):
            if e.op == "&&":
                return self._truthy(self._eval(e.left, env, heap)) and self._truthy(
                    self._eval(e.right, env, heap)
                )
            if e.op == "||":
                return self._truthy(self._eval(e.left, env, heap)) or self._truthy(
                    self._eval(e.right, env, heap)
                )
            left = self._eval(e.left, env, heap)
            right = self._eval(e.right, env, heap)
            if e.op == "+":
                return self._as_int(left) + self._as_int(right)
            if e.op == "-":
                return self._as_int(left) - self._as_int(right)
            if e.op == "*":
                return self._as_int(left) * self._as_int(right)
            if e.op == "<":
                return self._as_int(left) < self._as_int(right)
            if e.op == "<=":
                return self._as_int(left) <= self._as_int(right)
            if e.op == ">":
                return self._as_int(left) > self._as_int(right)
            if e.op == ">=":
                return self._as_int(left) >= self._as_int(right)
            if e.op == "==":
                return left == right
            if e.op == "!=":
                return left != right
            raise InterpError(f"unknown binary operator {e.op!r}")
        if isinstance(e, FieldRead):
            base = self._eval(e.base, env, heap)
            return heap.read(base, e.fieldname)
        if isinstance(e, CallExpr):
            callee = self.program.method(e.name)
            values = [self._eval(a, env, heap) for a in e.args]
            result = self._call(callee, values, heap)
            if result is None:
                raise InterpError(f"void call {e.name} used as a value")
            return result
        if isinstance(e, NewExpr):
            decl = self.program.data_decls.get(e.type_name)
            if decl is None:
                raise InterpError(f"unknown data type {e.type_name!r}")
            values = [self._eval(a, env, heap) for a in e.args]
            fields: Dict[str, Value] = {}
            for f, v in zip(decl.fields, values):
                fields[f.name] = v
            for f in decl.fields[len(values):]:
                fields[f.name] = 0
            return heap.allocate(fields)
        raise TypeError(f"unknown expression {type(e).__name__}")

    @staticmethod
    def _truthy(v: Value) -> bool:
        if isinstance(v, bool):
            return v
        return v != 0

    @staticmethod
    def _as_int(v: Value) -> int:
        if isinstance(v, bool):
            return int(v)
        return v
