"""Differential test: the compiled interpreter against the tree walker.

:mod:`interp_reference` is the interpreter :mod:`repro.lang.interp` had
before it compiled method bodies to closures.  On every input below both
must agree on the outcome, the return value, the fuel left, the number of
``nondet()`` draws consumed, and the type and message of any error.  A run
ended by Python's recursion limit (reported as ``OutOfFuel`` with fuel to
spare) only has to agree on the outcome: the two interpreters use
different numbers of Python frames per interpreted call.
"""

import gc
import io
import random
import sys
import tokenize
import weakref

import pytest

import interp_reference as ref
from repro.bench.programs import all_programs
from repro.corpus.generate import GeneratedBenchmark
from repro.corpus.run import _term_samples
from repro.lang import ast
from repro.lang.interp import (
    MAX_CALL_DEPTH,
    AssumeViolated,
    Interpreter,
    OutOfFuel,
    _Codegen,
)
from repro.lang.parser import parse_program

#: Small enough to keep the whole corpus sweep quick, large enough that
#: most TERM samples halt and every NONTERM witness runs out.
CORPUS_FUEL = 2_000


class Draws:
    """A finite nondet stream that counts how many values were taken."""

    def __init__(self, values):
        self._values = list(values)
        self.taken = 0

    def __iter__(self):
        return self

    def __next__(self):
        if self.taken >= len(self._values):
            raise StopIteration
        self.taken += 1
        return self._values[self.taken - 1]


def _observe(cls, program, entry, args, fuel, draws=None):
    """One run: (outcome, return value or error, fuel left, draws taken)."""
    nondet = None if draws is None else Draws(draws)
    interp = cls(program, fuel=fuel, nondet=nondet)
    try:
        result = ("halted", interp.run(entry, list(args)))
    except OutOfFuel:
        result = ("fuel-out", None)
    except AssumeViolated:
        result = ("pruned", None)
    except Exception as exc:  # every error must match by type and text
        result = ("error", (type(exc), str(exc)))
    return result, interp.fuel, None if nondet is None else nondet.taken


def assert_same(program, entry, args, fuel, draws=None):
    expected = _observe(ref.Interpreter, program, entry, args, fuel, draws)
    actual = _observe(Interpreter, program, entry, args, fuel, draws)
    recursion_limited = any(
        run[0][0] == "fuel-out" and run[1] > 0 for run in (expected, actual)
    )
    if recursion_limited:
        assert actual[0][0] == expected[0][0], (entry, args, fuel)
    else:
        assert actual == expected, (entry, args, fuel)
    return expected


def test_generated_corpus_matches_reference():
    outcomes = set()
    for inst in GeneratedBenchmark(200, seed="perfbench").instances():
        program = inst.program()
        arity = len(program.method(inst.entry).params)
        rng = random.Random(inst.id)
        for vec in _term_samples(inst, arity):
            outcomes.add(assert_same(program, inst.entry, vec, CORPUS_FUEL)[0][0])
            draws = [rng.randint(-8, 8) for _ in range(rng.randint(0, 40))]
            assert_same(program, inst.entry, vec, CORPUS_FUEL, draws)
    assert {"halted", "fuel-out"} <= outcomes


@pytest.mark.parametrize("vec", [0, 1, 3, -2])
def test_registry_entries_match_reference(vec):
    for bench in all_programs():
        program = bench.program()
        # A heap program's entry names its heap-abstracted specialisation
        # (``append__h0``); the interpreter runs the source method.
        entry = bench.main.split("__h")[0]
        arity = len(program.method(entry).params)
        args = [vec + i for i in range(arity)]
        assert_same(program, entry, args, 3_000)
        assert_same(program, entry, args, 3_000, draws=[5, -3, 2, 7, 0, 1])


TICKS = parse_program("""
int id(int a) { return a; }
void noop() { }
int main(int n)
{
  int s = 0;
  while ((n > 0)) {
    s = (s + id(n));
    noop();
    n = (n - 1);
  }
  if ((s > 3)) { s = (s - 1); } else { }
  return s;
}
""")
_main = TICKS.methods["main"]
_main.body = ast.Seq((ast.Skip(),) + _main.body.stmts)


def test_fuel_runs_out_at_every_tick_point():
    """Every fuel value up to a halting run's need: the same step fails
    on both sides, and a run with just enough fuel leaves the same rest."""
    result, left, _ = assert_same(TICKS, "main", [3], 10_000)
    assert result == ("halted", 5)
    needed = 10_000 - left
    for fuel in range(1, needed + 3):
        assert_same(TICKS, "main", [3], fuel)


ERRORS = parse_program("""
data node { node next; int val; }
int unknown_var() { return y; }
int unknown_method() { int t = 1; return missing((t + 1)); }
void nothing() { }
int void_value() { return (nothing() + 1); }
int arity() { return unknown_var(1); }
int bodiless_call() { return ext(); }
int null_read() { node p = null; return p.val; }
void null_write() { node p = null; p.val = 1; }
int fields() { node p = new node(null); p.val = 3; return (p.val + 7); }
int partial() { node p = new node(null); return p.val; }
""")
ERRORS.methods["ext"] = ast.Method(ast.INT, "ext", [], None)
ERRORS.methods["bad_binary"] = ast.Method(
    ast.INT, "bad_binary", [],
    ast.Return(ast.Binary("%", ast.Var("q"), ast.IntLit(2))),
)
ERRORS.methods["bad_unary"] = ast.Method(
    ast.INT, "bad_unary", [],
    ast.Return(ast.Unary("~", ast.Nondet())),
)
ERRORS.methods["bad_type"] = ast.Method(
    ast.INT, "bad_type", [], ast.Return(ast.NewExpr("tree", (ast.Nondet(),))),
)
# A right operand that is evaluated draws a value and then fails.
_UNREACHED = ast.Binary("==", ast.Nondet(), ast.Var("q"))
ERRORS.methods["short_circuit_or"] = ast.Method(
    ast.BOOL, "short_circuit_or", [],
    ast.Return(ast.Binary("||", ast.BoolLit(True), _UNREACHED)),
)
ERRORS.methods["short_circuit_and"] = ast.Method(
    ast.BOOL, "short_circuit_and", [],
    ast.Return(ast.Binary("&&", ast.IntLit(0), _UNREACHED)),
)


@pytest.mark.parametrize("entry", sorted(ERRORS.methods))
def test_errors_match_reference(entry):
    for fuel in (1, 2, 3, 50):
        assert_same(ERRORS, entry, [], fuel, draws=[4, 9])


def test_unknown_entry_raises_key_error():
    for cls in (ref.Interpreter, Interpreter):
        with pytest.raises(KeyError, match="no method named 'nope'"):
            cls(ERRORS).run("nope", [])


BOOLS = parse_program("""
int main(int a)
{
  bool b = (a > 0);
  bool c = (b && (a < 5));
  int x = (b + c);
  int y = ((x * 3) - b);
  bool same = (b == 1);
  bool neg = !(a);
  if (((x == 2) || (a == 7))) { return ((y + (-(b))) + same); }
  return (y + neg);
}
""")


@pytest.mark.parametrize("a", [-3, 0, 1, 4, 5, 7])
def test_bool_coercion_matches_reference(a):
    assert_same(BOOLS, "main", [a], 200)


COUNTDOWN = parse_program("""
int f(int n) { if ((n <= 0)) { return 0; } else { return (f((n - 1)) + 1); } }
""")


def test_recursion_the_walker_finishes_still_finishes():
    finished = 0
    for n in (500, 2_000, 5_000, 8_000, 12_000):
        expected, _, _ = _observe(ref.Interpreter, COUNTDOWN, "f", [n], 10**6)
        actual, _, _ = _observe(Interpreter, COUNTDOWN, "f", [n], 10**6)
        if expected[0] == "halted":
            finished += 1
            assert actual == expected
        else:
            assert actual[0] == "fuel-out"
    assert finished >= 2


#: ``x + 1 + 1 + ...``: the parser builds the chain left-deep, so compiling
#: it recurses once per term, past Python's default recursion limit.
LEFT_DEEP_SUM = parse_program(
    "int main(int x) { return (x" + " + 1" * 600 + "); }"
)


def test_left_deep_sum_compiles_under_the_run_recursion_limit():
    assert sys.getrecursionlimit() < 2 * 600
    expected = assert_same(LEFT_DEEP_SUM, "main", [5], 100)
    assert expected[0] == ("halted", 605)


def test_finished_run_is_freed_without_the_cycle_collector():
    program = parse_program(
        "int f(int n) { if ((n <= 0)) { return 0; } return f((n - 1)); }"
    )
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        interp = Interpreter(program, nondet=iter([1]))
        assert interp.run("f", [5]) == 0
        alive = weakref.ref(interp._code)
        del interp
        assert alive() is None
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# The code generator's own edges: identifiers, deep nesting, call depth
# ---------------------------------------------------------------------------

#: Source names that are Python keywords, builtins or the generator's own
#: names.  Substituted for ``N0``...``N13`` in :data:`NAMES_TEMPLATE`.
HOSTILE_NAMES = (
    "lambda", "None", "class", "env", "fuel", "tick", "_st", "_M", "_d",
    "v0", "v1", "_U", "len", "_x0",
)

NAMES_TEMPLATE = """
data N11 { int N0; N11 N1; }
int N12(int N0, int N2)
{
  int N3 = 0;
  while ((N0 > 0)) {
    N3 = (N3 + N2);
    N0 = (N0 - 1);
  }
  return N3;
}
void N13(int N4) { if ((N4 > 2)) { return; } else { } }
int N9(int N5, int N6)
{
  N11 N7 = new N11(N5, null);
  N7.N0 = (N7.N0 + N12(N6, 2));
  havoc N8;
  N13(N8);
  int N10 = nondet();
  if ((N10 > 0)) { N3 = 1; } else { }
  if (((N8 > 0) && (N10 > 0))) { return ((N7.N0 + N3) + N10); }
  return (N7.N0 - N8);
}
"""


def _names_program(names):
    source = NAMES_TEMPLATE
    for i in reversed(range(len(names))):  # N13 before N1
        source = source.replace(f"N{i}", names[i])
    return parse_program(source), names[9]


@pytest.mark.parametrize("draws", [[], [3, 2], [-1, 5], [4, -2]])
def test_python_and_generator_names_are_plain_source_names(draws):
    program, entry = _names_program(HOSTILE_NAMES)
    for args in ([1, 3], [4, 0], [-2, 5]):
        for fuel in (5, 30, 500):
            assert_same(program, entry, args, fuel, draws)


def _python_tokens(program, name):
    """The generated text of method *name*, as Python tokens, with string
    constants replaced by a placeholder."""
    source = _Codegen(program, program.method(name), True).source()
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return [
        "<str>" if t.type == tokenize.STRING else t.string for t in tokens
    ]


def test_source_names_reach_generated_code_only_as_strings():
    """Renaming every source identifier changes nothing in the generated
    code but its string constants."""
    hostile, _ = _names_program(HOSTILE_NAMES)
    bland, _ = _names_program([f"name{i}" for i in range(len(HOSTILE_NAMES))])
    for i in (9, 12, 13):
        assert _python_tokens(hostile, HOSTILE_NAMES[i]) == _python_tokens(
            bland, f"name{i}"
        )


#: ``x + nondet() + 1 + ... + 1``: 5,000 terms, parsed left-deep.
LONG_SUM = parse_program(
    "int main(int x) { return ((x + nondet())" + " + 1" * 4_998 + "); }"
)


def test_left_deep_sum_of_five_thousand_terms():
    assert assert_same(LONG_SUM, "main", [5], 100, draws=[7])[0] == (
        "halted", 5 + 7 + 4_998,
    )
    for fuel in (1, 2, 3):
        assert_same(LONG_SUM, "main", [5], fuel, draws=[7])


def _nest(depth, leaf, i=0):
    """A right-leaning expression *depth* operators deep that cycles
    through arithmetic, comparisons, negation, short-circuits and calls."""
    e = leaf
    for k in range(depth):
        kind = (i + k) % 7
        if kind == 0:
            e = ast.Binary("+", ast.Var("x"), e)
        elif kind == 1:
            e = ast.Binary("*", ast.IntLit(1), e)
        elif kind == 2:
            e = ast.Unary("-", e)
        elif kind == 3:
            e = ast.Binary("-", ast.Nondet(), e)
        elif kind == 4:
            e = ast.CallExpr("id", (e,))
        elif kind == 5:
            e = ast.Binary("+", e, ast.Binary("<", ast.Var("x"), ast.IntLit(2)))
        else:
            e = ast.Binary("||", ast.Binary(">", ast.Var("x"), ast.IntLit(3)), e)
    return e


def _deep_expressions():
    program = parse_program("int id(int a) { return a; }")
    leaves = {
        "plain": ast.Var("x"),
        "unknown": ast.Binary("+", ast.Nondet(), ast.Var("missing")),
        "draws": ast.Binary("*", ast.Nondet(), ast.Nondet()),
    }
    int_param = [ast.Param(ast.INT, "x")]
    for name, leaf in leaves.items():
        for depth in (60, 230):
            body = ast.Return(_nest(depth, leaf))
            method = f"{name}_{depth}"
            program.methods[method] = ast.Method(ast.INT, method, int_param, body)
    not_chain = ast.Var("x")
    for _ in range(260):
        not_chain = ast.Unary("!", not_chain)
    program.methods["nots"] = ast.Method(
        ast.BOOL, "nots", int_param, ast.Return(not_chain))
    return program


DEEP_EXPRESSIONS = _deep_expressions()


@pytest.mark.parametrize(
    "entry", sorted(m for m in DEEP_EXPRESSIONS.methods if m != "id"))
def test_expressions_nested_past_the_python_parser_limit(entry):
    draws = [2, -1, 3, 0, 1] * 80
    for x in (0, 1, 5):
        for fuel in (3, 40, 100_000):
            assert_same(DEEP_EXPRESSIONS, entry, [x], fuel, draws)


def _deep_statements():
    """``while`` loops nested 25 deep (CPython allows 20 nested blocks)
    inside ``if``s nested 120 deep (it allows 100 indentation levels),
    with declarations, an unknown variable and a return at the bottom."""
    x, n = ast.Var("x"), ast.Var("n")
    inner = ast.Seq((
        ast.Assign("n", ast.Binary("+", n, ast.Nondet())),
        ast.If(ast.Binary(">", n, ast.IntLit(40)),
               ast.Return(ast.Binary("+", n, ast.Var("late"))), ast.Skip()),
        ast.VarDecl(ast.INT, "late", ast.IntLit(1)),
    ))
    body = inner
    for k in range(25):
        counter = f"c{k}"
        body = ast.Seq((
            ast.VarDecl(ast.INT, counter, ast.IntLit(0)),
            ast.While(
                ast.Binary("<", ast.Var(counter), ast.IntLit(2)),
                ast.Seq((
                    ast.Assign(counter, ast.Binary("+", ast.Var(counter),
                                                   ast.IntLit(1))),
                    body,
                )),
            ),
        ))
    for k in range(120):
        body = ast.If(ast.Binary(">", x, ast.IntLit(k - 60)), body,
                      ast.Assign("n", ast.Binary("-", n, ast.IntLit(1))))
    body = ast.Seq((ast.VarDecl(ast.INT, "n", ast.IntLit(0)), body,
                    ast.Return(n)))
    method = ast.Method(ast.INT, "main", [ast.Param(ast.INT, "x")], body)
    return ast.Program({}, {"main": method})


DEEP_STATEMENTS = _deep_statements()


@pytest.mark.parametrize("x", [-70, 70])
def test_statements_nested_past_the_python_block_limits(x):
    for draws in ([0], [1, 0, 2], [9, 9, 9, 9, 9], [50]):
        for fuel in (50, 400, 5_000, 100_000):
            assert_same(DEEP_STATEMENTS, "main", [x], fuel, draws)


def test_call_depth_cap_is_deterministic():
    assert Interpreter(COUNTDOWN, fuel=10**6).run(
        "f", [MAX_CALL_DEPTH - 1]) == MAX_CALL_DEPTH - 1
    left = []
    for _ in range(2):
        interp = Interpreter(COUNTDOWN, fuel=10**6)
        with pytest.raises(OutOfFuel):
            interp.run("f", [MAX_CALL_DEPTH])
        left.append(interp.fuel)
    assert left[0] == left[1] > 0
