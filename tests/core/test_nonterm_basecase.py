"""Unit tests for base-case inference and non-termination proving."""

from repro.arith.formula import TRUE, atom_eq, atom_ge, atom_lt, conj
from repro.arith.terms import var
from repro.core.assumptions import PostAssume, PreAssume
from repro.core.basecase import refine_base, syn_base
from repro.core.nonterm import (
    abduce_conditions,
    check_unreachable,
    filter_rel,
    prove_nonterm,
)
from repro.core.predicates import (
    POST_FALSE,
    POST_TRUE,
    PostRef,
    PreRef,
    Term,
)
from repro.core.specs import DefStore
from repro.core.verifier import MethodAssumptions

x, y = var("x"), var("y")


def foo_assumptions():
    """Hand-built (a01)-(a03) of the paper's foo."""
    ma = MethodAssumptions(method="foo", pair="U0@foo", params=("x", "y"))
    rec_ctx = conj(
        atom_ge(x, 0), atom_eq(var("x'"), x + y), atom_eq(var("y'"), y)
    )
    ma.pre_assumptions = [
        PreAssume(rec_ctx, PreRef("U0@foo", ("x", "y")),
                  PreRef("U0@foo", ("x'", "y'"))),
    ]
    ma.post_assumptions = [
        PostAssume(atom_lt(x, 0), (), TRUE, PostRef("U0@foo", ("x", "y"))),
        PostAssume(rec_ctx, ((TRUE, PostRef("U0@foo", ("x'", "y'"))),),
                   TRUE, PostRef("U0@foo", ("x", "y"))),
    ]
    return ma


class TestSynBase:
    def test_foo_base_case(self, ctx):
        """syn_base = x<0 /\\ not(x>=0) = x<0 (paper Sec. 5.1)."""
        beta = syn_base(foo_assumptions(), ctx)
        assert ctx.equivalent(beta, atom_lt(x, 0))

    def test_no_exit_means_no_base(self, ctx):
        ma = MethodAssumptions(method="spin", pair="U0@spin", params=("x",))
        ma.pre_assumptions = [
            PreAssume(atom_eq(var("x'"), x), PreRef("U0@spin", ("x",)),
                      PreRef("U0@spin", ("x'",)))
        ]
        ma.post_assumptions = [
            PostAssume(TRUE, ((TRUE, PostRef("U0@spin", ("x'",))),),
                       TRUE, PostRef("U0@spin", ("x",)))
        ]
        assert not ctx.is_sat(syn_base(ma, ctx))

    def test_refine_base_installs_cases(self, ctx):
        store = DefStore()
        store.register_root("U0@foo", ("x", "y"))
        refine_base(store, "U0@foo", atom_lt(x, 0), ctx)
        cases = store.defs["U0@foo"].cases
        term_cases = [c for c in cases if isinstance(c.pre, Term)]
        assert len(term_cases) == 1
        assert ctx.equivalent(term_cases[0].guard, atom_lt(x, 0))
        unknown = [c for c in cases if isinstance(c.pre, str)]
        assert unknown, "the x>=0 region must stay unknown"


class TestCheckUnreachable:
    def test_closed_region_proved(self, ctx):
        """x>=0, y>=0 region of foo: next state stays in the region."""
        pre = conj(
            atom_ge(x, 0), atom_ge(y, 0),
            atom_eq(var("x'"), x + y), atom_eq(var("y'"), y),
        )
        t = PostAssume(
            pre,
            ((conj(atom_ge(var("x'"), 0), atom_ge(var("y'"), 0)),
              PostRef("U2@foo", ("x'", "y'"))),),
            TRUE,
            PostRef("U2@foo", ("x", "y")),
        )
        assert check_unreachable(t, {"U2@foo"}, ("x", "y"), ctx)

    def test_escaping_region_fails(self, ctx):
        pre = conj(atom_ge(x, 0), atom_eq(var("x'"), x + y),
                   atom_eq(var("y'"), y))
        t = PostAssume(
            pre,
            ((atom_ge(var("x'"), 0), PostRef("U1@foo", ("x'", "y'"))),),
            TRUE,
            PostRef("U1@foo", ("x", "y")),
        )
        # without y >= 0 the recursion can escape to x' < 0
        assert not check_unreachable(t, {"U1@foo"}, ("x", "y"), ctx)

    def test_unsat_context_trivially_unreachable(self, ctx):
        t = PostAssume(conj(atom_ge(x, 1), atom_lt(x, 0)), (), TRUE,
                       PostRef("U", ("x",)))
        assert check_unreachable(t, {"U"}, ("x",), ctx)

    def test_false_entry_covering(self, ctx):
        t = PostAssume(
            atom_ge(x, 0), ((atom_ge(x, 0), POST_FALSE),), TRUE,
            PostRef("U", ("x",)),
        )
        assert check_unreachable(t, {"U"}, ("x",), ctx)


class TestAbduction:
    def test_foo_discovers_y_nonneg(self, ctx):
        """The paper's abduced split condition for foo is y >= 0."""
        pre = conj(atom_ge(x, 0), atom_eq(var("x'"), x + y),
                   atom_eq(var("y'"), y))
        t = PostAssume(
            pre,
            ((atom_ge(var("x'"), 0), PostRef("U1@foo", ("x'", "y'"))),),
            TRUE,
            PostRef("U1@foo", ("x", "y")),
        )
        conds = abduce_conditions(t, {"U1@foo"}, ("x", "y"), ctx)
        assert conds
        # some abduced condition must (under the context) imply x' >= 0
        # and be satisfiable; the single-variable template finds y >= 0
        assert any(
            ctx.entails(conj(pre, c), atom_ge(var("x'"), 0)) for c in conds
        )
        assert any(ctx.equivalent(c, atom_ge(y, 0)) for c in conds)

    def test_abduction_requires_consistency(self, ctx):
        # context x = 0 cannot be strengthened towards x >= 5
        pre = atom_eq(x, 0)
        t = PostAssume(
            pre, ((atom_ge(x, 5), PostRef("U", ("x",))),), TRUE,
            PostRef("U", ("x",)),
        )
        conds = abduce_conditions(t, {"U"}, ("x",), ctx)
        assert conds == []


class TestProveNonterm:
    def test_whole_scc_loop(self, ctx):
        store = DefStore()
        store.register_root("U", ("x",))
        pre = conj(atom_ge(x, 0), atom_eq(var("x'"), x + 1))
        t = PostAssume(
            pre, ((atom_ge(var("x'"), 0), PostRef("U", ("x'",))),), TRUE,
            PostRef("U", ("x",)),
        )
        ok, conds = prove_nonterm(["U"], [t], store, ctx)
        assert ok

    def test_failure_returns_conditions(self, ctx):
        store = DefStore()
        store.register_root("U", ("x", "y"))
        pre = conj(atom_ge(x, 0), atom_eq(var("x'"), x + y),
                   atom_eq(var("y'"), y))
        t = PostAssume(
            pre, ((atom_ge(var("x'"), 0), PostRef("U", ("x'", "y'"))),),
            TRUE, PostRef("U", ("x", "y")),
        )
        ok, conds = prove_nonterm(["U"], [t], store, ctx)
        assert not ok
        assert conds["U"], "abduction must supply case-split conditions"
        # conditions are over the pair's formal parameters
        for c in conds["U"]:
            assert c.free_vars() <= {"x", "y"}

    def test_filter_rel(self):
        t1 = PostAssume(TRUE, (), TRUE, PostRef("A", ("x",)))
        t2 = PostAssume(TRUE, (), TRUE, PostRef("B", ("x",)))
        assert filter_rel([t1, t2], "A") == [t1]
