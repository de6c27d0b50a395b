"""Fuel-bounded concrete interpreter -- the ground-truth oracle.

The test suite uses this to cross-validate inferred summaries: running a
method on inputs satisfying an inferred ``Term`` precondition must halt
within generous fuel, and inputs satisfying a ``Loop`` precondition must
exhaust any fuel.  The interpreter runs the *original* (sugared) program,
so it also validates the desugarer indirectly.  The corpus harness
(:mod:`repro.corpus.run`) uses it to check every generated label.

Heap model: a dictionary from location ids to field records.  ``null`` is
location 0.  ``nondet()`` draws from a supplied iterator (deterministic in
tests) or a seeded RNG.

Execution: each method body is compiled, on its first call within a run,
to nested closures -- one per statement and expression node -- so the
choice of what a node does is made once instead of at every step.  Errors
the source can provoke (unknown variable or method, arity, a void call
used as a value, an unknown operator, a null dereference) are still
raised when the offending node executes, with the same messages, never at
compile time.

Fuel contract: one tick per method call, one per executed statement
(``Seq`` and ``Skip`` included) and one per loop-condition test, each
taken before the work it pays for.  So the fuel left after a halting run,
and the step at which :class:`OutOfFuel` fires, are functions of the
program and its inputs alone.  With a wall-clock budget the clock is read
on every tick.

Recursion caveat: deep interpreted recursion can overflow the Python
stack before the fuel runs out.  :meth:`Interpreter.run` raises the
recursion limit to 50k and reports :class:`RecursionError` as
:class:`OutOfFuel`; where that happens depends on Python frame depth, so
the fuel left at that point is not part of the contract.  An interpreted
call costs at most as many Python frames as it did in the former tree
walker (``tests/lang/interp_reference.py``), so any run the walker
finished still finishes.
"""

from __future__ import annotations

import enum
import operator
import random
import sys
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

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

Value = Union[int, bool]


class OutOfFuel(Exception):
    """The execution exceeded its step budget (possible non-termination)."""


class Outcome(enum.Enum):
    """Classification of one bounded concrete run (see :func:`observe`).

    ``HALTED`` is evidence of termination *for the given inputs*;
    ``FUEL_OUT`` is **not** evidence of divergence -- the budget (step
    fuel or wall clock) simply ran out, so the honest reading is
    "unknown"; ``PRUNED`` means an ``assume`` rejected the inputs (no
    evidence either way).  The corpus harness (:mod:`repro.corpus`)
    maps these onto its ground-truth labels accordingly.
    """

    HALTED = "halted"
    FUEL_OUT = "fuel-out"
    PRUNED = "pruned"


class AssumeViolated(Exception):
    """An ``assume`` pruned this execution (not an error)."""


class InterpError(Exception):
    """Genuine runtime error (unknown variable, null dereference, ...)."""


@dataclass
class Heap:
    cells: Dict[int, Dict[str, Value]] = field(default_factory=dict)
    next_loc: int = 1

    def allocate(self, fields: Dict[str, Value]) -> int:
        loc = self.next_loc
        self.next_loc += 1
        self.cells[loc] = dict(fields)
        return loc

    def read(self, loc: Value, fieldname: str) -> Value:
        if not isinstance(loc, int) or loc == 0 or loc not in self.cells:
            raise InterpError(f"null/invalid dereference at .{fieldname}")
        record = self.cells[loc]
        if fieldname not in record:
            raise InterpError(f"no field {fieldname!r} at location {loc}")
        return record[fieldname]

    def write(self, loc: Value, fieldname: str, value: Value) -> None:
        if not isinstance(loc, int) or loc == 0 or loc not in self.cells:
            raise InterpError(f"null/invalid dereference at .{fieldname}")
        self.cells[loc][fieldname] = value


# ---------------------------------------------------------------------------
# Compilation to closures
# ---------------------------------------------------------------------------

#: A compiled expression maps the environment to a value.  A compiled
#: statement returns ``None`` to fall through, or a 1-tuple holding the
#: value of an executed ``return`` (``(None,)`` for a void return).
Env = Dict[str, Value]
ExprCode = Callable[[Env], Value]
StmtCode = Callable[[Env], Optional[Tuple[Optional[Value]]]]

#: ``==`` and ``!=`` compare raw values.  The other operators take bools
#: as the ints 0 and 1; ``bool`` subclasses ``int``, so applying them to
#: the raw values already gives exactly that (``True + 1 == 2``).
_BINARY: Dict[str, Callable[[Value, Value], Value]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


class _State:
    """What a run mutates: the fuel left and the current heap."""

    __slots__ = ("fuel", "heap")

    def __init__(self, fuel: int):
        self.fuel = fuel
        self.heap: Optional[Heap] = None


class _Code:
    """One interpreter's compiled methods, each built on its first call.

    Reference discipline: the closures hold the run state, the tick and
    draw functions and their child closures, never this table.  A call
    site reaches its callee through :attr:`ref`, a weak reference, so
    the table -> closures edge is the only one between them and reference
    counting alone frees a finished interpreter.
    """

    __slots__ = ("program", "invokers", "ref", "tick", "draw", "state",
                 "__weakref__")

    def __init__(self, program: Program, state: _State, tick, draw):
        self.program = program
        self.invokers: Dict[str, Callable[[List[Value]], Optional[Value]]] = {}
        self.ref = weakref.ref(self)
        self.state = state
        self.tick = tick
        self.draw = draw

    def invoker(self, name: str) -> Callable[[List[Value]], Optional[Value]]:
        """The compiled entry of method *name*; ``Program.method``'s
        ``KeyError`` for an unknown name."""
        inv = self.invokers.get(name)
        if inv is None:
            inv = self.invokers[name] = _compile_method(
                self.program.method(name), self
            )
        return inv


def _compile_method(method: Method, code: _Code):
    """Compile *method* to ``invoke(args)``: tick, check, run the body."""
    tick = code.tick
    name = method.name
    if method.body is None:
        def bodiless(args):
            tick()
            raise InterpError(f"cannot execute bodiless method {name!r}")
        return bodiless
    params = tuple(p.name for p in method.params)
    arity = len(params)
    body = _compile_stmt(method.body, code)

    def invoke(args):
        tick()
        if len(args) != arity:
            raise InterpError(f"{name} expects {arity} args, got {len(args)}")
        env = dict(zip(params, args))
        tick()  # the body statement's own tick
        ret = body(env)
        return None if ret is None else ret[0]

    return invoke


def _compile_stmt(s: Stmt, code: _Code) -> StmtCode:
    """Compile one statement.  The statement's own tick is taken by
    whoever executes it (the enclosing ``Seq``, ``If``, ``While`` or
    method entry), immediately before the call."""
    tick = code.tick
    if isinstance(s, Skip):
        def skip(env):
            return None
        return skip
    if isinstance(s, VarDecl):
        name = s.name
        if s.init is None:
            def declare_zero(env):
                env[name] = 0
            return declare_zero
        init = _compile_expr(s.init, code)

        def declare(env):
            env[name] = init(env)
        return declare
    if isinstance(s, Assign):
        name = s.name
        value = _compile_expr(s.value, code)

        def assign(env):
            env[name] = value(env)
        return assign
    if isinstance(s, FieldWrite):
        base_name, fieldname = s.base, s.fieldname
        value = _compile_expr(s.value, code)
        state = code.state

        def field_write(env):
            base = env.get(base_name)
            if base is None:
                raise InterpError(f"unknown variable {base_name!r}")
            state.heap.write(base, fieldname, value(env))
        return field_write
    if isinstance(s, CallStmt):
        name, code_ref = s.name, code.ref
        arg_codes = tuple(_compile_expr(a, code) for a in s.args)

        def call_stmt(env):
            # The callee is looked up first, so an unknown name raises
            # before any argument is evaluated.
            invoke = code_ref().invoker(name)
            # By-value semantics: no writeback.  (Loops are interpreted
            # from the sugared source, so this matters only for explicit
            # calls.)
            invoke([a(env) for a in arg_codes])
        return call_stmt
    if isinstance(s, Seq):
        stmts = tuple(_compile_stmt(t, code) for t in s.stmts)

        def seq(env):
            for stmt in stmts:
                tick()
                ret = stmt(env)
                if ret is not None:
                    return ret
            return None
        return seq
    if isinstance(s, If):
        cond = _compile_expr(s.cond, code)
        then = _compile_stmt(s.then, code)
        els = _compile_stmt(s.els, code)

        def if_(env):
            if cond(env):
                tick()
                return then(env)
            tick()
            return els(env)
        return if_
    if isinstance(s, While):
        cond = _compile_expr(s.cond, code)
        body = _compile_stmt(s.body, code)

        def while_(env):
            while True:
                tick()
                if not cond(env):
                    return None
                tick()
                ret = body(env)
                if ret is not None:
                    return ret
        return while_
    if isinstance(s, Return):
        if s.value is None:
            def return_void(env):
                return (None,)
            return return_void
        value = _compile_expr(s.value, code)

        def return_(env):
            return (value(env),)
        return return_
    if isinstance(s, Assume):
        cond = _compile_expr(s.cond, code)

        def assume(env):
            if not cond(env):
                raise AssumeViolated()
        return assume
    if isinstance(s, Havoc):
        names = s.names
        draw = code.draw

        def havoc(env):
            for name in names:
                env[name] = draw()
        return havoc
    message = f"unknown statement {type(s).__name__}"

    def unknown_stmt(env):
        raise TypeError(message)
    return unknown_stmt


def _compile_expr(e: Expr, code: _Code) -> ExprCode:
    if isinstance(e, (IntLit, BoolLit, NullLit)):
        value = 0 if isinstance(e, NullLit) else e.value

        def const(env):
            return value
        return const
    if isinstance(e, Var):
        name = e.name

        def var(env):
            try:
                return env[name]
            except KeyError:
                raise InterpError(f"unknown variable {name!r}") from None
        return var
    if isinstance(e, Nondet):
        draw = code.draw

        def nondet(env):
            return draw()
        return nondet
    if isinstance(e, Unary):
        arg = _compile_expr(e.arg, code)
        if e.op == "-":
            def neg(env):
                return -arg(env)
            return neg
        if e.op == "!":
            def not_(env):
                return not arg(env)
            return not_
        message = f"unknown unary operator {e.op!r}"

        def unknown_unary(env):
            arg(env)
            raise InterpError(message)
        return unknown_unary
    if isinstance(e, Binary):
        # Inline, not a helper: compiling a nested operand then costs one
        # Python frame per level, as evaluating it did in the walker.
        left = _compile_expr(e.left, code)
        right = _compile_expr(e.right, code)
        # Truth is ``v != 0`` for ints and bools alike; the connectives
        # yield bools and short-circuit.
        if e.op == "&&":
            def and_(env):
                return left(env) != 0 and right(env) != 0
            return and_
        if e.op == "||":
            def or_(env):
                return left(env) != 0 or right(env) != 0
            return or_
        fn = _BINARY.get(e.op)
        if fn is None:
            message = f"unknown binary operator {e.op!r}"

            def unknown_binary(env):
                left(env)
                right(env)
                raise InterpError(message)
            return unknown_binary

        def binary(env):
            return fn(left(env), right(env))
        return binary
    if isinstance(e, FieldRead):
        base = _compile_expr(e.base, code)
        fieldname = e.fieldname
        state = code.state

        def field_read(env):
            return state.heap.read(base(env), fieldname)
        return field_read
    if isinstance(e, CallExpr):
        name, code_ref = e.name, code.ref
        arg_codes = tuple(_compile_expr(a, code) for a in e.args)
        message = f"void call {name} used as a value"

        def call_expr(env):
            invoke = code_ref().invoker(name)
            result = invoke([a(env) for a in arg_codes])
            if result is None:
                raise InterpError(message)
            return result
        return call_expr
    if isinstance(e, NewExpr):
        decl = code.program.data_decls.get(e.type_name)
        if decl is None:
            message = f"unknown data type {e.type_name!r}"

            def unknown_type(env):
                raise InterpError(message)
            return unknown_type
        arg_codes = tuple(_compile_expr(a, code) for a in e.args)
        fieldnames = tuple(f.name for f in decl.fields)
        state = code.state

        def new(env):
            values = [a(env) for a in arg_codes]
            fields = dict(zip(fieldnames, values))
            for f in fieldnames[len(values):]:
                fields[f] = 0
            return state.heap.allocate(fields)
        return new
    message = f"unknown expression {type(e).__name__}"

    def unknown_expr(env):
        raise TypeError(message)
    return unknown_expr


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
        state = self._state = _State(fuel)
        # Belt to the fuel braces: fuel bounds the *number* of steps, but
        # a single step can be arbitrarily slow (integers grow without
        # bound, so one addition on million-digit values dwarfs the rest
        # of the run).  An optional wall-clock budget turns such runs
        # into OutOfFuel instead of stalling the caller -- the fuzz
        # harness relies on this to classify a stuck run as UNKNOWN
        # rather than hanging the suite.
        deadline = None if wall_clock is None else time.monotonic() + wall_clock
        self._code = _Code(program, state, _make_tick(state, deadline),
                           _make_draw(nondet, seed))

    @property
    def fuel(self) -> int:
        """Steps left (shared by successive :meth:`run` calls)."""
        return self._state.fuel

    @fuel.setter
    def fuel(self, value: int) -> None:
        self._state.fuel = value

    # -- public API ---------------------------------------------------------

    def run(self, name: str, args: List[Value]) -> Optional[Value]:
        """Run method *name* on *args*; returns its result (None for void).

        Raises :class:`OutOfFuel` when the budget is exhausted and
        :class:`AssumeViolated` when an assumption prunes the execution.
        Deep interpreted recursion that overflows the Python stack is
        reported as :class:`OutOfFuel` as well (it is the same "did not
        finish within budget" evidence).
        """
        self._state.heap = Heap()
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 50_000))
        try:
            # Compiled under the raised limit too: compiling a deeply
            # nested expression recurses once per level.
            return self._code.invoker(name)(list(args))
        except RecursionError:
            raise OutOfFuel() from None
        finally:
            sys.setrecursionlimit(old_limit)
            self._state.heap = None


def _make_tick(state: _State, deadline: Optional[float]) -> Callable[[], None]:
    """The step counter: spend one unit of fuel, then check the clock."""
    if deadline is None:
        def tick():
            state.fuel -= 1
            if state.fuel <= 0:
                raise OutOfFuel()
        return tick
    monotonic = time.monotonic

    def tick_with_clock():
        state.fuel -= 1
        if state.fuel <= 0:
            raise OutOfFuel()
        # Checked on *every* tick: step cost can double per iteration
        # (squaring loops), so any fixed check stride would let the value
        # blow past memory between two checks.  Overshoot is bounded by
        # the single step in flight.
        if monotonic() > deadline:
            raise OutOfFuel()
    return tick_with_clock


def _make_draw(nondet: Optional[Iterator[int]], seed: int) -> Callable[[], int]:
    """``nondet()``: the next value of *nondet* (0 once it is exhausted),
    or a seeded draw from [-8, 8] when no iterator is given."""
    if nondet is not None:
        def draw_next():
            try:
                return next(nondet)
            except StopIteration:
                return 0
        return draw_next
    randint = random.Random(seed).randint

    def draw_random():
        return randint(-8, 8)
    return draw_random


def observe(
    program: Program,
    name: str,
    args: List[Value],
    fuel: int = 100_000,
    nondet: Optional[Iterator[int]] = None,
    seed: int = 0,
    wall_clock: Optional[float] = None,
) -> Outcome:
    """Run a method under an explicit budget and classify the outcome.

    The budget is two-sided: *fuel* bounds the step count and
    *wall_clock* (seconds, optional) bounds real time -- the latter
    matters when values grow so large that individual steps get slow.
    Exhausting either yields :attr:`Outcome.FUEL_OUT`, which callers
    must read as "unknown", never as proof of divergence; the fuzz
    harness maps it to its ``UNKNOWN`` label so a generated divergent
    program can burn at most one budget instead of stalling the suite.
    """
    interp = Interpreter(
        program, fuel=fuel, nondet=nondet, seed=seed, wall_clock=wall_clock
    )
    try:
        interp.run(name, args)
        return Outcome.HALTED
    except OutOfFuel:
        return Outcome.FUEL_OUT
    except AssumeViolated:
        return Outcome.PRUNED


def terminates(
    program: Program,
    name: str,
    args: List[Value],
    fuel: int = 100_000,
    nondet: Optional[Iterator[int]] = None,
) -> Optional[bool]:
    """Run a method and classify the outcome.

    Returns ``True`` when the run halts within fuel, ``False`` when fuel is
    exhausted (evidence of divergence for the given inputs), and ``None``
    when an ``assume`` pruned the run (no evidence either way).  This is
    the historical two-valued-plus-pruned face of :func:`observe`; new
    callers that need an explicit "budget ran out, no evidence" reading
    (or a wall-clock bound) should use :func:`observe` directly.
    """
    outcome = observe(program, name, args, fuel=fuel, nondet=nondet)
    if outcome is Outcome.PRUNED:
        return None
    return outcome is Outcome.HALTED
