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

Execution: on its first call within a run, each method body is translated
to the source text of one Python function, with statements, expressions
and fuel ticks written out inline, and that text is compiled with
:func:`compile`.  Compiled text is cached by its content across
interpreters, so rerunning a program (or running a shrunk variant that
keeps most methods) costs only the translation.  Errors the source can
provoke (unknown variable or method, arity, a void call used as a value,
an unknown operator, a null dereference) are still raised when the
offending node executes, with the same messages, never at compile time.

Identifier safety: source names never become Python identifiers.  The
variables of a method are the locals ``v0``, ``v1``, ... (parameters
first), callees are looked up by name in the interpreter's method table,
and every source name that does reach the generated text (callee names,
field names, error messages) is written as a ``repr`` string constant.
So a variable called ``lambda``, ``None``, ``len`` or ``v1`` cannot clash
with Python syntax or with the generator's own names.  A read of a variable
that is not assigned on every path to it checks for the unassigned
marker and raises ``unknown variable``; other reads are plain locals.

Fuel contract: one tick per method call, one per executed statement
(``Seq`` and ``Skip`` included) and one per loop-condition test, each
taken before the work it pays for.  So the fuel left after a halting run,
and the step at which :class:`OutOfFuel` fires, are functions of the
program and its inputs alone.  With a wall-clock budget the clock is read
on every tick.

Call depth: an interpreted call costs one Python frame.  An expression
nested deeper than CPython's compiler accepts on one line, and a
statement nested in too many blocks, is moved into a helper function
that costs one more frame when it runs.  A call made at a depth of
:data:`MAX_CALL_DEPTH` nested calls pays its tick and then ends the run
as :class:`OutOfFuel`, so where unbounded recursion stops is a function of
the program and its inputs as well.  :meth:`Interpreter.run` raises the
recursion limit to 50k and reports a :class:`RecursionError` (possible
only when many helper frames stack up) as :class:`OutOfFuel` too.
"""

from __future__ import annotations

import enum
import functools
import random
import sys
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple, Union

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
# Code generation
# ---------------------------------------------------------------------------

#: A call made at this many nested interpreted calls ends the run as
#: :class:`OutOfFuel` (after paying its tick).
MAX_CALL_DEPTH = 10_000

#: Bounds that keep each generated function inside CPython's compiler
#: limits (200 nested parentheses, 100 indentation levels and 20 nested
#: loops).  An expression nested deeper than ``_MAX_EXPR_DEPTH``, or an
#: ``if``/``while`` past the other two bounds, becomes a helper function.
_MAX_EXPR_DEPTH = 40
_MAX_INDENT = 30
_MAX_LOOPS = 10

#: These source operators mean the same in Python on ints and bools:
#: ``bool`` subclasses ``int``, so arithmetic and ordering take bools as
#: 0 and 1 and ``==``/``!=`` compare raw values, exactly as the language
#: does.  Truth is ``v != 0`` for both, which is Python's truth for them.
_PY_BINARY = frozenset(["+", "-", "*", "<", "<=", ">", ">=", "==", "!="])


def _fail(message: str, *evaluated: Value) -> Value:
    """Raise :class:`InterpError`; as an expression, after *evaluated*
    (the operands of an unknown operator) ran."""
    raise InterpError(message)


def _unknown_node(message: str) -> Value:
    raise TypeError(message)


def _alloc(heap: Heap, fieldnames: Tuple[str, ...], values: Tuple[Value, ...]) -> int:
    """``new``: fields past the given values are zero; extra values are
    evaluated and dropped."""
    fields = dict(zip(fieldnames, values))
    for f in fieldnames[len(values):]:
        fields[f] = 0
    return heap.allocate(fields)


#: The globals of all generated code; nothing per run lives here.
_GLOBALS = {
    "__builtins__": {},
    "len": len,
    "str": str,
    "_U": object(),  # the value of a local no statement has assigned yet
    "_OutOfFuel": OutOfFuel,
    "_AssumeViolated": AssumeViolated,
    "_InterpError": InterpError,
    "_fail": _fail,
    "_unknown_node": _unknown_node,
    "_alloc": _alloc,
}

#: Definitely-assigned source variables at a program point; ``None`` at
#: a point no execution reaches (after a ``return``).
_Assigned = Optional[Set[str]]


def _meet(a: _Assigned, b: _Assigned) -> _Assigned:
    if a is None:
        return b
    if b is None:
        return a
    return a & b


def _names(body: Stmt) -> List[str]:
    """Every variable name *body* mentions, in order of first mention."""
    seen: Dict[str, None] = {}
    todo: List[object] = [body]
    while todo:
        node = todo.pop()
        if isinstance(node, (Var, VarDecl, Assign)):
            seen.setdefault(node.name)
        elif isinstance(node, FieldWrite):
            seen.setdefault(node.base)
        elif isinstance(node, Havoc):
            seen.update(dict.fromkeys(node.names))
        children: List[object] = []
        for value in vars(node).values():
            children.extend(value if isinstance(value, tuple) else [value])
        todo.extend(c for c in reversed(children) if isinstance(c, (Expr, Stmt)))
    return list(seen)


class _Codegen:
    """Translate one method to the source of ``_make``, which returns
    the method's Python function when given one run's state.

    The generated text::

        def _make(_st, _M, _draw, _mono, _dl):
            def _x0(_d, v0, v1): ...      # outlined helpers, if any
            def _m(_d, *_a):
                <tick>; <depth check>; <arity check>
                v0, = _a
                v1 = _U
                <body>
            return _m

    ``_st`` holds the fuel and the heap, ``_M`` is the method table,
    ``_draw`` is ``nondet()``, ``_mono``/``_dl`` the clock and deadline,
    and ``_d`` the call depth.
    """

    def __init__(self, program: Program, method: Method, clock: bool):
        self.program = program
        self.method = method
        check = "_st.fuel <= 0 or _mono() > _dl" if clock else "_st.fuel <= 0"
        self.tick = ("_st.fuel -= 1", f"if {check}: raise _OutOfFuel")
        self.locals: Dict[str, str] = {}
        for p in method.params:
            self.locals.setdefault(p.name, f"v{len(self.locals)}")
        self.n_params = len(self.locals)
        if method.body is not None:
            for name in _names(method.body):
                self.locals.setdefault(name, f"v{len(self.locals)}")
        # Helpers take and return every local, so a helper never needs
        # to know which ones its code touches.
        self.all_locals = ", ".join(self.locals.values())
        self.helper_params = ", ".join(["_d", *self.locals.values()])
        self.helpers: List[str] = []

    def source(self) -> str:
        m = self.method
        body = ["    def _m(_d, *_a):"]
        self.emit_tick(body, 2)
        body.append(f"        if _d >= {MAX_CALL_DEPTH}: raise _OutOfFuel")
        if m.body is None:
            message = f"cannot execute bodiless method {m.name!r}"
            body.append(f"        raise _InterpError({message!r})")
        else:
            arity = len(m.params)
            prefix = f"{m.name} expects {arity} args, got "
            body.append(
                f"        if len(_a) != {arity}: "
                f"raise _InterpError({prefix!r} + str(len(_a)))"
            )
            if arity:
                params = "".join(f"{self.locals[p.name]}, " for p in m.params)
                body.append(f"        {params}= _a")
            rest = list(self.locals.values())[self.n_params:]
            if rest:
                body.append(f"        {' = '.join(rest)} = _U")
            assigned = {p.name for p in m.params}
            self.stmt(m.body, assigned, body, 2, 0, helper=False)
        lines = ["def _make(_st, _M, _draw, _mono, _dl):"]
        lines += self.helpers
        lines += body
        lines.append("    return _m")
        return "\n".join(lines) + "\n"

    def emit_tick(self, out: List[str], indent: int) -> None:
        pad = "    " * indent
        out.extend(pad + t for t in self.tick)

    # -- statements -----------------------------------------------------------

    def stmt(self, s: Stmt, assigned: _Assigned, out: List[str], indent: int,
             loops: int, helper: bool) -> _Assigned:
        """Emit *s* (its tick first) at *indent*; the variables
        definitely assigned after it.  *helper* says whether *out* is an
        outlined statement helper, which returns ``(True, value)`` for a
        ``return`` and ``(False, locals...)`` when it falls through."""
        if isinstance(s, (If, While)) and (
            indent >= _MAX_INDENT or (isinstance(s, While) and loops >= _MAX_LOOPS)
        ):
            return self.outline_stmt(s, assigned, out, indent, helper)
        pad = "    " * indent
        self.emit_tick(out, indent)
        if isinstance(s, Skip):
            return assigned
        if isinstance(s, (VarDecl, Assign)):
            value = s.init if isinstance(s, VarDecl) else s.value
            code = "0" if value is None else self.expr(value, assigned)
            out.append(f"{pad}{self.locals[s.name]} = {code}")
            return None if assigned is None else assigned | {s.name}
        if isinstance(s, FieldWrite):
            base = self.read(s.base, assigned)
            value = self.expr(s.value, assigned)
            out.append(f"{pad}_st.heap.write({base}, {s.fieldname!r}, {value})")
            return assigned
        if isinstance(s, CallStmt):
            out.append(pad + self.call(s.name, s.args, assigned)[0])
            return assigned
        if isinstance(s, Seq):
            for t in s.stmts:
                assigned = self.stmt(t, assigned, out, indent, loops, helper)
            return assigned
        if isinstance(s, If):
            out.append(f"{pad}if {self.expr(s.cond, assigned)}:")
            then = self.stmt(s.then, _copy(assigned), out, indent + 1, loops, helper)
            out.append(f"{pad}else:")
            els = self.stmt(s.els, _copy(assigned), out, indent + 1, loops, helper)
            return _meet(then, els)
        if isinstance(s, While):
            out.append(f"{pad}while True:")
            self.emit_tick(out, indent + 1)
            out.append(f"{pad}    if not {self.expr(s.cond, assigned)}: break")
            self.stmt(s.body, _copy(assigned), out, indent + 1, loops + 1, helper)
            return assigned
        if isinstance(s, Return):
            value = "None" if s.value is None else self.expr(s.value, assigned)
            out.append(f"{pad}return True, {value}" if helper else f"{pad}return {value}")
            return None
        if isinstance(s, Assume):
            out.append(f"{pad}if not {self.expr(s.cond, assigned)}: raise _AssumeViolated")
            return assigned
        if isinstance(s, Havoc):
            for name in s.names:
                out.append(f"{pad}{self.locals[name]} = _draw()")
            return None if assigned is None else assigned | set(s.names)
        message = f"unknown statement {type(s).__name__}"
        out.append(f"{pad}_unknown_node({message!r})")
        return None

    def outline_stmt(self, s: Stmt, assigned: _Assigned, out: List[str],
                     indent: int, helper: bool) -> _Assigned:
        """Emit *s* as a helper function and a call to it."""
        slot = len(self.helpers)
        name = f"_x{slot}"
        self.helpers.append("")  # the name is taken; the text comes below
        lines = [f"    def {name}({self.helper_params}):"]
        after = self.stmt(s, assigned, lines, 2, 0, helper=True)
        lines.append(f"        return False, {self.all_locals}")
        self.helpers[slot] = "\n".join(lines)
        pad = "    " * indent
        out.append(f"{pad}_b = {name}({self.helper_params})")
        out.append(f"{pad}if _b[0]: return {'_b' if helper else '_b[1]'}")
        if self.locals:
            out.append(f"{pad}_, {self.all_locals} = _b")
        return after

    # -- expressions ----------------------------------------------------------

    def expr(self, e: Expr, assigned: _Assigned) -> str:
        return self.nested(e, assigned)[0]

    def read(self, name: str, assigned: _Assigned) -> str:
        local = self.locals[name]
        if assigned is None or name in assigned:
            return local
        message = f"unknown variable {name!r}"
        return f"({local} if {local} is not _U else _fail({message!r}))"

    def call(self, name: str, args, assigned: _Assigned) -> Tuple[str, int]:
        codes = [self.nested(a, assigned) for a in args]
        # ``_M[name]`` is evaluated before the arguments, so an unknown
        # callee raises before any of them runs.
        text = "".join(f", {c}" for c, _ in codes)
        depth = max([0] + [d for _, d in codes]) + 1
        return f"_M[{name!r}](_d + 1{text})", depth

    def nested(self, e: Expr, assigned: _Assigned) -> Tuple[str, int]:
        """*e*'s code and its parenthesis depth, outlined to a helper
        when that depth passes :data:`_MAX_EXPR_DEPTH`."""
        code, depth = self._nested(e, assigned)
        if depth <= _MAX_EXPR_DEPTH:
            return code, depth
        name = f"_x{len(self.helpers)}"
        self.helpers.append(
            f"    def {name}({self.helper_params}):\n        return {code}"
        )
        return f"{name}({self.helper_params})", 1

    def _nested(self, e: Expr, assigned: _Assigned) -> Tuple[str, int]:
        if isinstance(e, (IntLit, BoolLit)):
            return (repr(e.value), 0) if e.value >= 0 else (f"({e.value!r})", 1)
        if isinstance(e, NullLit):
            return "0", 0
        if isinstance(e, Var):
            return self.read(e.name, assigned), 1
        if isinstance(e, Nondet):
            return "_draw()", 1
        if isinstance(e, Unary):
            arg, depth = self.nested(e.arg, assigned)
            if e.op == "-":
                return f"(-{arg})", depth + 1
            if e.op == "!":
                return f"(not {arg})", depth + 1
            message = f"unknown unary operator {e.op!r}"
            return f"_fail({message!r}, {arg})", depth + 1
        if isinstance(e, Binary):
            left, dl = self.nested(e.left, assigned)
            right, dr = self.nested(e.right, assigned)
            depth = max(dl, dr) + 1
            if e.op == "&&":
                return f"({left} != 0 and {right} != 0)", depth
            if e.op == "||":
                return f"({left} != 0 or {right} != 0)", depth
            if e.op in _PY_BINARY:
                return f"({left} {e.op} {right})", depth
            message = f"unknown binary operator {e.op!r}"
            return f"_fail({message!r}, {left}, {right})", depth
        if isinstance(e, FieldRead):
            base, depth = self.nested(e.base, assigned)
            return f"_st.heap.read({base}, {e.fieldname!r})", depth + 1
        if isinstance(e, CallExpr):
            call, depth = self.call(e.name, e.args, assigned)
            message = f"void call {e.name} used as a value"
            return (
                f"(_r if (_r := {call}) is not None else _fail({message!r}))",
                depth + 2,
            )
        if isinstance(e, NewExpr):
            decl = self.program.data_decls.get(e.type_name)
            if decl is None:
                message = f"unknown data type {e.type_name!r}"
                return f"_fail({message!r})", 1
            codes = [self.nested(a, assigned) for a in e.args]
            values = "".join(f"{c}, " for c, _ in codes)
            fieldnames = tuple(f.name for f in decl.fields)
            depth = max([0] + [d for _, d in codes]) + 2
            return f"_alloc(_st.heap, {fieldnames!r}, ({values}))", depth
        message = f"unknown expression {type(e).__name__}"
        return f"_unknown_node({message!r})", 1


def _copy(assigned: _Assigned) -> _Assigned:
    return None if assigned is None else set(assigned)


@functools.lru_cache(maxsize=512)
def _load(source: str) -> Callable[..., Callable[..., Optional[Value]]]:
    """The ``_make`` function of generated *source*, compiled once."""
    scope: Dict[str, object] = {}
    exec(compile(source, "<repro.lang.interp>", "exec"), _GLOBALS, scope)
    return scope["_make"]  # type: ignore[return-value]


class _State:
    """What a run mutates: the fuel left and the current heap."""

    __slots__ = ("fuel", "heap")

    def __init__(self, fuel: int):
        self.fuel = fuel
        self.heap: Optional[Heap] = None


class _Methods(dict):
    """One interpreter's generated methods by name, each built on its
    first call; ``Program.method``'s ``KeyError`` for an unknown name.

    Reference discipline: generated code reaches this table through a
    weak proxy, so the table -> functions edge is the only one between
    them and reference counting alone frees a finished interpreter.
    """

    def __init__(self, program: Program, state: _State, draw, deadline):
        super().__init__()
        self.program = program
        self.clock = deadline is not None
        self.run_args = (state, weakref.proxy(self), draw, time.monotonic, deadline)

    def __missing__(self, name: str):
        method = self.program.method(name)
        make = _load(_Codegen(self.program, method, self.clock).source())
        fn = self[name] = make(*self.run_args)
        return fn


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
        self._code = _Methods(program, state, _make_draw(nondet, seed), deadline)

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
        Interpreted recursion deeper than :data:`MAX_CALL_DEPTH`, or one
        that overflows the Python stack, is reported as
        :class:`OutOfFuel` as well (it is the same "did not finish within
        budget" evidence).
        """
        self._state.heap = Heap()
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 50_000))
        try:
            # Generated under the raised limit too: translating a deeply
            # nested expression recurses once per level.
            return self._code[name](0, *args)
        except RecursionError:
            raise OutOfFuel() from None
        finally:
            sys.setrecursionlimit(old_limit)
            self._state.heap = None


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
