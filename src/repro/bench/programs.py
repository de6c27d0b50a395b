"""The benchmark corpus: four categories mirroring SV-COMP'15 termination.

Each :class:`BenchProgram` carries its ground-truth verdict (``Y`` -- the
entry method terminates for all inputs; ``N`` -- some input diverges),
used by the harness to account soundness exactly as the paper did when it
re-verified every returned specification.

The corpus is a scaled-down analogue of the paper's 338 programs (see
DESIGN.md's substitution table): the ``crafted`` category stresses
conditional termination, ``crafted-lit`` collects classic literature
examples (Ackermann, McCarthy 91, gcd, 3x+1-style phase programs, mutual
recursion), ``numeric`` holds arithmetic loop programs and
``memory-alloca`` holds heap/list programs abstracted via
:mod:`repro.seplog`.
"""

from __future__ import annotations

import pathlib as _pathlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.arith.formula import TRUE, atom_ge, atom_ne
from repro.arith.terms import var
from repro.core.pipeline import Verdict
from repro.lang import parse_program
from repro.lang.ast import Program
from repro.seplog.heap import HeapSpec, PredInst, SymHeap

#: Categories of the paper's fig10/fig11 tables.  The ST controller
#: corpus lives in :data:`ST_CATEGORY`, deliberately outside this tuple
#: so the fig tables reproduce the paper unchanged.
CATEGORIES = ("crafted", "crafted-lit", "numeric", "memory-alloca")

#: Category of the IEC 61131-3 Structured Text example controllers
#: (``examples/st_controllers/``), scored by ``python -m repro.bench corpus``.
ST_CATEGORY = "st-controllers"


@dataclass
class BenchProgram:
    """One benchmark: source text, entry method and ground truth."""

    name: str
    category: str
    source: str
    main: str
    expected: Verdict
    loop_based: bool = False
    builder: Optional[Callable[[], Program]] = None
    language: str = "native"

    def program(self) -> Program:
        if self.builder is not None:
            return self.builder()
        if self.language != "native":
            from repro.lang.frontends import get_frontend

            return get_frontend(self.language).parse(self.source)
        return parse_program(self.source)


_REGISTRY: List[BenchProgram] = []


def _add(name: str, category: str, source: str, main: str, expected: str,
         loop_based: bool = False,
         builder: Optional[Callable[[], Program]] = None,
         language: str = "native") -> None:
    _REGISTRY.append(
        BenchProgram(
            name=name,
            category=category,
            source=source,
            main=main,
            expected=Verdict(expected),
            loop_based=loop_based,
            builder=builder,
            language=language,
        )
    )


def all_programs(category: Optional[str] = None) -> List[BenchProgram]:
    if category is None:
        return list(_REGISTRY)
    return [p for p in _REGISTRY if p.category == category]


def by_name(name: str) -> BenchProgram:
    for p in _REGISTRY:
        if p.name == name:
            return p
    raise KeyError(name)


def st_programs() -> List[BenchProgram]:
    """The labeled IEC 61131-3 Structured Text controller corpus."""
    return all_programs(ST_CATEGORY)


# ---------------------------------------------------------------------------
# crafted -- conditional termination / non-termination
# ---------------------------------------------------------------------------

_add("foo-paper", "crafted", """
void foo(int x, int y)
{ if (x < 0) { return; } else { foo(x + y, y); return; } }
""", "foo", "N")

_add("up-drift", "crafted", """
void main(int x, int y) {
  while (x > 0) { x = x + y; }
}
""", "main", "N", loop_based=True)

_add("down-step", "crafted", """
void main(int x, int y) {
  while (x > 0) { x = x - y; }
}
""", "main", "N", loop_based=True)

_add("even-gap", "crafted", """
void main(int x) {
  while (x != 0) { x = x - 2; }
}
""", "main", "N", loop_based=True)

_add("plain-countdown", "crafted", """
void main(int x) {
  while (x > 0) { x = x - 1; }
}
""", "main", "Y", loop_based=True)

_add("skip-forever", "crafted", """
void main(int x) {
  while (x > 0) { x = x; }
}
""", "main", "N", loop_based=True)

_add("while-true", "crafted", """
void main(int x) {
  while (x >= x) { x = x + 1; }
}
""", "main", "N", loop_based=True)

_add("two-phase", "crafted", """
void main(int x, int y) {
  while (x >= 0) {
    if (y > 0) { x = x + 1; y = y - 1; }
    else { x = x - 1; }
  }
}
""", "main", "Y", loop_based=True)

_add("guarded-growth", "crafted", """
void main(int x, int n) {
  while (x < n) { x = x + 1; }
}
""", "main", "Y", loop_based=True)

_add("cond-rec-sum", "crafted", """
void f(int x, int d)
{ if (x <= 0) { return; } else { f(x + d, d); return; } }
""", "f", "N")

_add("widening-gap", "crafted", """
void main(int i, int j) {
  while (i < j) { i = i + 1; j = j - 1; }
}
""", "main", "Y", loop_based=True)

_add("stuck-parity", "crafted", """
void main(int x, int y) {
  while (x != y) { x = x + 2; y = y + 1; }
}
""", "main", "N", loop_based=True)

_add("nested-dep", "crafted", """
void main(int n, int m) {
  int i = 0;
  while (i < n) {
    int j = 0;
    while (j < m) { j = j + 1; }
    i = i + 1;
  }
}
""", "main", "Y", loop_based=True)

_add("neg-guard-drift", "crafted", """
void main(int x) {
  while (x < 0) { x = x - 1; }
}
""", "main", "N", loop_based=True)

# ---------------------------------------------------------------------------
# crafted-lit -- classic literature examples
# ---------------------------------------------------------------------------

_add("ackermann-spec", "crafted-lit", """
int Ack(int m, int n)
  requires true ensures res >= n + 1;
{
  if (m == 0) { return n + 1; }
  else { if (n == 0) { return Ack(m - 1, 1); }
         else { return Ack(m - 1, Ack(m, n - 1)); } }
}
""", "Ack", "N")  # diverges for m<0 or n<0 (paper Fig. 3 discussion)

_add("mccarthy91-spec", "crafted-lit", """
int Mc91(int n)
  requires true
  ensures n <= 100 && res == 91 || n > 100 && res == n - 10;
{
  if (n > 100) { return n - 10; }
  else { return Mc91(Mc91(n + 11)); }
}
""", "Mc91", "Y")

_add("gcd-sub", "crafted-lit", """
int gcd(int a, int b)
  requires a > 0 && b > 0 ensures res > 0;
{
  if (a == b) { return a; }
  else { if (a > b) { return gcd(a - b, b); }
         else { return gcd(a, b - a); } }
}
""", "gcd", "Y")  # the requires-clause restricts verdicts to a,b > 0

_add("fib-rec", "crafted-lit", """
int fib(int n)
{
  if (n <= 1) { return n; }
  else { return fib(n - 1) + fib(n - 2); }
}
""", "fib", "Y")

_add("sum-rec", "crafted-lit", """
int sum(int n)
{ if (n <= 0) { return 0; } else { return sum(n - 1) + n; } }
""", "sum", "Y")

_add("mult-loop", "crafted-lit", """
int mult(int a, int b) {
  int r = 0;
  int i = 0;
  if (b < 0) { b = 0 - b; }
  while (i < b) { r = r + a; i = i + 1; }
  return r;
}
""", "mult", "Y", loop_based=True)

_add("even-odd-mutual", "crafted-lit", """
int even(int n)
{ if (n == 0) { return 1; } else { return odd(n - 1); } }
int odd(int n)
{ if (n == 0) { return 0; } else { return even(n - 1); } }
""", "even", "N")  # diverges for n < 0

_add("even-odd-guarded", "crafted-lit", """
int even(int n)
  requires n >= 0 ensures true;
{ if (n == 0) { return 1; } else { return odd(n - 1); } }
int odd(int n)
  requires n >= 0 ensures true;
{ if (n == 0) { return 0; } else { return even(n - 1); } }
""", "even", "Y")

_add("loop-lit-terminator1", "crafted-lit", """
void main(int x, int y) {
  while (x > 0 && y > 0) {
    if (nondet() > 0) { x = x - 1; }
    else { y = y - 1; }
  }
}
""", "main", "Y", loop_based=True)

_add("loop-lit-cook", "crafted-lit", """
void main(int x, int y, int n) {
  while (x < n) { x = x + y; }
}
""", "main", "N", loop_based=True)

_add("countup-bounded", "crafted-lit", """
void main(int i, int n) {
  while (i < n) { i = i + 2; }
}
""", "main", "Y", loop_based=True)

_add("trex-ex1", "crafted-lit", """
void main(int x) {
  while (x > 0) {
    if (nondet() > 0) { x = x - 1; }
    else { x = x - 2; }
  }
}
""", "main", "Y", loop_based=True)

_add("nonterm-simple-lit", "crafted-lit", """
void main(int x) {
  while (x > 0) { x = x + 1; }
}
""", "main", "N", loop_based=True)

_add("alternating-drift", "crafted-lit", """
void f(int x)
{ if (x <= 0) { return; } else { f(x - 1); return; } }
void g(int x)
{ if (x <= 0) { return; } else { g(x + 1); return; } }
void main(int a) { f(a); g(a); }
""", "main", "N")

_add("three-way-phase", "crafted-lit", """
void main(int a, int b, int c) {
  while (a > 0 && b > 0 && c > 0) {
    if (nondet() > 0) { a = a - 1; }
    else { if (nondet() > 0) { b = b - 1; } else { c = c - 1; } }
  }
}
""", "main", "Y", loop_based=True)

_add("mc91-no-spec", "crafted-lit", """
int Mc91(int n)
{
  if (n > 100) { return n - 10; }
  else { return Mc91(Mc91(n + 11)); }
}
""", "Mc91", "Y")

_add("double-call-chain", "crafted-lit", """
void h(int n)
{ if (n <= 0) { return; } else { h(n - 1); h(n - 2); return; } }
""", "h", "Y")

_add("sum-down-up", "crafted-lit", """
int f(int n)
  requires true ensures res >= 0;
{ if (n <= 0) { return 0; } else { return f(n - 1) + 1; } }
""", "f", "Y")

_add("lcm-style", "crafted-lit", """
void main(int a, int b) {
  int x = a;
  int y = b;
  while (x != y && x > 0 && y > 0) {
    if (x < y) { x = x + a; } else { y = y + b; }
  }
}
""", "main", "N", loop_based=True)

_add("simple-phase-flag", "crafted-lit", """
void main(int x, int up) {
  while (x >= 0 && x <= 100) {
    if (up > 0) { x = x + 1; } else { x = x - 1; }
  }
}
""", "main", "Y", loop_based=True)

# ---------------------------------------------------------------------------
# numeric -- arithmetic loop programs
# ---------------------------------------------------------------------------

_add("div-by-sub", "numeric", """
int div(int a, int b)
  requires a >= 0 && b > 0 ensures res >= 0;
{
  int q = 0;
  int r = a;
  while (r >= b) { r = r - b; q = q + 1; }
  return q;
}
""", "div", "Y", loop_based=True)

_add("mod-by-sub", "numeric", """
int mod(int a, int b)
  requires a >= 0 && b > 0 ensures res >= 0;
{
  int r = a;
  while (r >= b) { r = r - b; }
  return r;
}
""", "mod", "Y", loop_based=True)

_add("sqrt-count", "numeric", """
int isqrt(int n)
  requires n >= 0 ensures res >= 0;
{
  int r = 0;
  int sq = 1;
  while (sq <= n) { r = r + 1; sq = sq + 2 * r + 1; }
  return r;
}
""", "isqrt", "Y", loop_based=True)

_add("lex-two-counters", "numeric", """
void main(int x, int y) {
  while (x > 0) {
    if (y > 0) { y = y - 1; }
    else { x = x - 1; y = x; }
  }
}
""", "main", "Y", loop_based=True)

_add("triple-nest", "numeric", """
void main(int n) {
  int i = 0;
  while (i < n) {
    int j = i;
    while (j < n) {
      int k = j;
      while (k < n) { k = k + 1; }
      j = j + 1;
    }
    i = i + 1;
  }
}
""", "main", "Y", loop_based=True)

_add("sum-to-zero", "numeric", """
void main(int x, int y) {
  while (x + y > 0) {
    if (x > y) { x = x - 1; } else { y = y - 1; }
  }
}
""", "main", "Y", loop_based=True)

_add("diff-chase", "numeric", """
void main(int x, int y) {
  while (x > y) { x = x - 1; y = y + 1; }
}
""", "main", "Y", loop_based=True)

_add("race-counters", "numeric", """
void main(int x, int y) {
  while (x > y) { x = x + 1; y = y + 2; }
}
""", "main", "Y", loop_based=True)

_add("reverse-race", "numeric", """
void main(int x, int y) {
  while (x > y) { x = x + 2; y = y + 1; }
}
""", "main", "N", loop_based=True)

_add("bounded-wander", "numeric", """
void main(int x, int step) {
  while (x > 0 && x < 1000) { x = x + step; }
}
""", "main", "N", loop_based=True)

_add("collatz-ish-down", "numeric", """
void main(int n) {
  while (n > 1) {
    if (nondet() > 0) { n = n - 1; } else { n = n - 2; }
  }
}
""", "main", "Y", loop_based=True)

_add("zeno-gap", "numeric", """
void main(int a, int b) {
  while (a < b) { a = a + 1; b = b - 1; }
}
""", "main", "Y", loop_based=True)

_add("pulse", "numeric", """
void main(int x, int n) {
  while (0 < x && x < n) {
    x = x + x;
  }
}
""", "main", "Y", loop_based=True)

_add("negative-drain", "numeric", """
void main(int x) {
  while (x != 0) {
    if (x > 0) { x = x - 1; } else { x = x + 1; }
  }
}
""", "main", "Y", loop_based=True)

_add("offset-trap", "numeric", """
void main(int x) {
  while (x != 0) {
    if (x > 0) { x = x - 2; } else { x = x + 2; }
  }
}
""", "main", "N", loop_based=True)

# ---------------------------------------------------------------------------
# memory-alloca -- heap / list programs (built with attached heap specs)
# ---------------------------------------------------------------------------

_HEAP_PRELUDE = "data node { node next; }\n"


def _heap_builder(source: str, specs: Dict[str, List[HeapSpec]]) -> Callable[[], Program]:
    def build() -> Program:
        program = parse_program(source)
        for name, spec_list in specs.items():
            program.methods[name].heap_specs = list(spec_list)
        return program

    return build


def _lseg_null_spec(root: str = "x", size: str = "n",
                    nonempty: bool = False,
                    post: Optional[SymHeap] = None) -> HeapSpec:
    pure = atom_ge(var(size), 1 if nonempty else 0)
    pre = SymHeap(
        chunks=(PredInst("lseg", (root, "null"), var(size)),), pure=pure
    )
    return HeapSpec(pre=pre, post=post or SymHeap(), size_params=(size,))


def _ll_spec(root: str = "x", size: str = "n") -> HeapSpec:
    pre = SymHeap(
        chunks=(PredInst("ll", (root,), var(size)),),
        pure=atom_ge(var(size), 0),
    )
    return HeapSpec(pre=pre, post=SymHeap(), size_params=(size,))


def _cll_spec(root: str = "x", size: str = "n") -> HeapSpec:
    pre = SymHeap(
        chunks=(PredInst("cll", (root,), var(size)),),
        pure=atom_ge(var(size), 1),
    )
    return HeapSpec(pre=pre, post=SymHeap(), size_params=(size,))


_APPEND_SRC = _HEAP_PRELUDE + """
void append(node x, node y)
{
  if (x.next == null) { x.next = y; return; }
  else { append(x.next, y); return; }
}
"""

_add("append-lseg", "memory-alloca", _APPEND_SRC, "append__h0", "Y",
     builder=_heap_builder(
         _APPEND_SRC,
         {"append": [_lseg_null_spec(nonempty=True)]},
     ))

_add("append-cll", "memory-alloca", _APPEND_SRC, "append__h0", "N",
     builder=_heap_builder(
         _APPEND_SRC,
         {"append": [_cll_spec()]},
     ))

_TRAVERSE_SRC = _HEAP_PRELUDE + """
void traverse(node x)
{
  if (x == null) { return; }
  else { traverse(x.next); return; }
}
"""

_add("list-traverse", "memory-alloca", _TRAVERSE_SRC, "traverse__h0", "Y",
     builder=_heap_builder(_TRAVERSE_SRC, {"traverse": [_ll_spec()]}))

_CLL_CHASE_SRC = _HEAP_PRELUDE + """
void chase(node x)
{
  if (x == null) { return; }
  else { chase(x.next); return; }
}
"""


def _cll_chase_builder() -> Program:
    program = parse_program(_CLL_CHASE_SRC)
    pre = SymHeap(
        chunks=(PredInst("cll", ("x",), var("n")),),
        pure=atom_ge(var("n"), 1),
    )
    program.methods["chase"].heap_specs = [
        HeapSpec(pre=pre, post=SymHeap(), size_params=("n",))
    ]
    return program


_add("cll-chase", "memory-alloca", _CLL_CHASE_SRC, "chase__h0", "N",
     builder=_cll_chase_builder)

_LENGTH_SRC = _HEAP_PRELUDE + """
void length(node x, int acc)
{
  if (x == null) { return; }
  else { length(x.next, acc + 1); return; }
}
"""

_add("list-length", "memory-alloca", _LENGTH_SRC, "length__h0", "Y",
     builder=_heap_builder(_LENGTH_SRC, {"length": [_ll_spec()]}))

_DROP_SRC = _HEAP_PRELUDE + """
void drop(node x, int k)
{
  if (x == null) { return; }
  else {
    if (k <= 0) { return; }
    else { drop(x.next, k - 1); return; }
  }
}
"""

_add("list-drop", "memory-alloca", _DROP_SRC, "drop__h0", "Y",
     builder=_heap_builder(_DROP_SRC, {"drop": [_ll_spec()]}))

# Allocation-flavoured numeric programs (SV-COMP memory-alloca style:
# malloc a structure of size n, then iterate over it).  The allocation
# itself is modelled by its size, per the numeric abstraction.

_add("alloca-fill", "memory-alloca", """
void main(int n) {
  int i = 0;
  while (i < n) { i = i + 1; }
}
""", "main", "Y", loop_based=True)

_add("alloca-scan-back", "memory-alloca", """
void main(int n) {
  int i = n;
  while (i > 0) { i = i - 1; }
}
""", "main", "Y", loop_based=True)

_add("alloca-bad-bound", "memory-alloca", """
void main(int n) {
  int i = 0;
  while (i != n) { i = i + 1; }
}
""", "main", "N", loop_based=True)

_add("alloca-two-cursor", "memory-alloca", """
void main(int n) {
  int lo = 0;
  int hi = n;
  while (lo < hi) { lo = lo + 1; hi = hi - 1; }
}
""", "main", "Y", loop_based=True)

# ---------------------------------------------------------------------------
# st-controllers -- IEC 61131-3 Structured Text scan-cycle controllers
# (examples/st_controllers/*.st, analyzed through the 'st' frontend; see
# docs/frontends.md).  Deliberately NOT in CATEGORIES: the fig10/fig11
# paper tables stay exactly as published, and this corpus is scored by
# `python -m repro.bench corpus --dir examples/st_controllers` instead.
# ---------------------------------------------------------------------------

_ST_DIR = _pathlib.Path(__file__).resolve().parents[3] / "examples" / "st_controllers"

#: filename -> (entry method, expected verdict) ground truth.
ST_CONTROLLERS = (
    ("ramp_up.st", "RampUp", "Y"),
    ("bounded_retry.st", "Retry", "Y"),
    ("watchdog_stuck.st", "Watchdog", "N"),
    ("for_scan.st", "ScanMax", "Y"),
    ("settle_wait.st", "SettleWait", "N"),
)

for _fname, _main, _expected in ST_CONTROLLERS:
    _path = _ST_DIR / _fname
    if _path.exists():  # editable checkouts only; wheels may omit examples
        _add(_fname[: -len(".st")], ST_CATEGORY, _path.read_text(),
             _main, _expected, loop_based=True, language="st")
