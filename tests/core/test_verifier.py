"""Tests for assumption generation (paper Section 4)."""

import pytest

from repro.arith.formula import TRUE, atom_ge, atom_lt, conj
from repro.arith.context import SolverContext
from repro.arith.terms import var
from repro.core.assumptions import filter_trivial, PreAssume
from repro.core.predicates import (
    LOOP,
    MAYLOOP,
    MayLoop,
    PostRef,
    PreRef,
    TERM,
    Term,
)
from repro.core.specs import CaseSpec, SpecCase
from repro.core.predicates import POST_FALSE, POST_TRUE
from repro.core.verifier import Verifier, VerifierError
from repro.lang import desugar_program, parse_program

FOO = """
void foo(int x, int y)
{ if (x < 0) { return; } else { foo(x + y, y); return; } }
"""


def collect(source, name, solved=None, pairs=None):
    program = desugar_program(parse_program(source))
    pairs = pairs or {name: f"U0@{name}"}
    v = Verifier(
        program, pairs=pairs, solved=solved or {}, ctx=SolverContext()
    )
    return v.collect(program.method(name))


class TestFooAssumptions:
    """The paper's (a01), (a02), (a03)."""

    def test_counts(self):
        ma = collect(FOO, "foo")
        assert len(ma.pre_assumptions) == 1
        assert len(ma.post_assumptions) == 2

    def test_recursive_pre_assumption(self, ctx):
        ma = collect(FOO, "foo")
        (a,) = ma.pre_assumptions
        assert isinstance(a.lhs, PreRef) and isinstance(a.rhs, PreRef)
        assert a.lhs.args == ("x", "y")
        # context must entail x >= 0 and bind x' = x + y
        assert ctx.entails(a.ctx, atom_ge(var("x"), 0))
        xp, yp = a.rhs.args
        assert ctx.entails(a.ctx, atom_ge(var(xp) - var("x") - var("y"), 0))

    def test_base_post_assumption(self, ctx):
        ma = collect(FOO, "foo")
        base = [t for t in ma.post_assumptions if not t.entries]
        assert len(base) == 1
        assert ctx.equivalent(base[0].ctx, atom_lt(var("x"), 0))

    def test_inductive_post_assumption(self):
        ma = collect(FOO, "foo")
        ind = [t for t in ma.post_assumptions if t.entries]
        assert len(ind) == 1
        ((guard, ref),) = ind[0].entries
        assert guard is TRUE and isinstance(ref, PostRef)


class TestCalleeHandling:
    def test_solved_loop_callee_contributes_false_entry(self):
        src = """
void bad(int n) { }
void caller(int n) { bad(n); }
"""
        spec = CaseSpec(
            method="bad", params=("n",),
            cases=[SpecCase(TRUE, LOOP, POST_FALSE)],
        )
        ma = collect(src, "caller", solved={"bad": spec},
                     pairs={"caller": "U0@caller"})
        (t,) = ma.post_assumptions
        assert any(
            not p.reachable for _g, p in t.entries
            if hasattr(p, "reachable")
        )

    def test_solved_mayloop_callee_emits_demand(self):
        src = """
void maybe(int n) { }
void caller(int n) { maybe(n); }
"""
        spec = CaseSpec(
            method="maybe", params=("n",),
            cases=[SpecCase(TRUE, MAYLOOP, POST_TRUE)],
        )
        ma = collect(src, "caller", solved={"maybe": spec},
                     pairs={"caller": "U0@caller"})
        assert any(isinstance(a.rhs, MayLoop) for a in ma.pre_assumptions)

    def test_solved_term_callee_contributes_nothing(self):
        src = """
void fine(int n) { }
void caller(int n) { fine(n); }
"""
        spec = CaseSpec(
            method="fine", params=("n",),
            cases=[SpecCase(TRUE, TERM, POST_TRUE)],
        )
        ma = collect(src, "caller", solved={"fine": spec},
                     pairs={"caller": "U0@caller"})
        assert ma.pre_assumptions == []

    def test_callee_ensures_constrains_result(self, ctx):
        src = """
int inc(int n) requires true ensures res >= n + 1; { return n + 1; }
int caller(int n) { int r = inc(n); if (r > n) { return 1; } else { return 0; } }
"""
        program = desugar_program(parse_program(src))
        spec = CaseSpec(
            method="inc", params=("n",),
            cases=[SpecCase(TRUE, TERM, POST_TRUE)],
        )
        v = Verifier(program, pairs={"caller": "U0@caller"},
                     solved={"inc": spec}, ctx=ctx)
        ma = v.collect(program.method("caller"))
        # with res >= n+1 the else branch (r <= n) is infeasible:
        # only one exit assumption survives
        assert len(ma.post_assumptions) == 1


class TestPathSensitivity:
    def test_infeasible_branch_pruned(self):
        ma = collect("""
void f(int x) {
  if (x > 0) { if (x < 0) { f(x); } }
}
""", "f")
        assert ma.pre_assumptions == []

    def test_assume_prunes(self):
        ma = collect("""
void f(int x) { assume(x > 0); assume(x < 0); f(x); }
""", "f")
        assert ma.pre_assumptions == []

    def test_nondet_becomes_fresh_var(self):
        ma = collect("""
void f(int x) { if (nondet() > 0) { f(x - 1); } }
""", "f")
        assert len(ma.pre_assumptions) == 1


class TestFilterTrivial:
    def test_loop_lhs_removed(self, ctx):
        a = PreAssume(TRUE, LOOP, PreRef("U", ("x",)))
        assert filter_trivial([a], ctx=ctx) == []

    def test_unsat_ctx_removed(self, ctx):
        pre = conj(atom_ge(var("x"), 1), atom_lt(var("x"), 0))
        a = PreAssume(pre, PreRef("U", ("x",)), PreRef("U", ("x",)))
        assert filter_trivial([a], ctx=ctx) == []

    def test_term_rhs_kept_only_for_mutual(self, ctx):
        a = PreAssume(TRUE, PreRef("U", ("x",)), TERM)
        assert filter_trivial([a], mutually_recursive={"U"}, ctx=ctx) == [a]
        assert filter_trivial([a], mutually_recursive={"V"}, ctx=ctx) == []

    def test_unknown_to_unknown_kept(self, ctx):
        a = PreAssume(TRUE, PreRef("U", ("x",)), PreRef("V", ("y",)))
        assert filter_trivial([a], mutually_recursive={"U", "V"}, ctx=ctx) == [a]


class TestErrors:
    def test_heap_statement_rejected(self):
        with pytest.raises(Exception):
            collect("""
data node { node next; }
void f(node x) { x.next = null; }
""", "f")
