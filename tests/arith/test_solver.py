"""Unit tests for the decision procedures (:class:`SolverContext` methods)."""

from repro.arith.formula import (
    FALSE,
    TRUE,
    atom_eq,
    atom_ge,
    atom_gt,
    atom_le,
    atom_lt,
    atom_ne,
    conj,
    disj,
    exists,
    neg,
)
from repro.arith.terms import var

x, y, z = var("x"), var("y"), var("z")


class TestSat:
    def test_trivial(self, ctx):
        assert ctx.is_sat(TRUE)
        assert ctx.is_unsat(FALSE)

    def test_interval(self, ctx):
        assert ctx.is_sat(conj(atom_ge(x, 0), atom_le(x, 10)))
        assert ctx.is_unsat(conj(atom_ge(x, 1), atom_le(x, 0)))

    def test_equality_chain(self, ctx):
        f = conj(atom_eq(x, y + 1), atom_eq(y, z + 1), atom_eq(x, z))
        assert ctx.is_unsat(f)

    def test_integer_gap(self, ctx):
        # 1 <= 2x <= 1 has no integer solution
        f = conj(atom_le(x.scale(2), 1), atom_ge(x.scale(2), 1))
        assert ctx.is_unsat(f)

    def test_strict_inequality_tightening(self, ctx):
        # x < y and y < x + 2 and x != y - 1 -> unsat over integers
        f = conj(atom_lt(x, y), atom_lt(y, x + 2), atom_ne(x, y - 1))
        assert ctx.is_unsat(f)

    def test_disjunction(self, ctx):
        f = disj(conj(atom_ge(x, 1), atom_le(x, 0)), atom_eq(x, 5))
        assert ctx.is_sat(f)

    def test_foo_nonterm_region(self, ctx):
        # the paper's foo: x>=0, x'=x+y, y'=y, x'<0, y>=0 is infeasible
        xp, yp = var("x'"), var("y'")
        f = conj(
            atom_ge(x, 0),
            atom_eq(xp, x + y),
            atom_eq(yp, y),
            atom_lt(xp, 0),
            atom_ge(y, 0),
        )
        assert ctx.is_unsat(f)


class TestModel:
    def test_model_satisfies(self, ctx):
        f = conj(atom_ge(x, 3), atom_le(x, 7), atom_eq(y, x + 1))
        env = ctx.model(f)
        assert env is not None
        assert f.evaluate(env)

    def test_model_none_for_unsat(self, ctx):
        assert ctx.model(conj(atom_ge(x, 1), atom_le(x, 0))) is None

    def test_model_prefers_integers(self, ctx):
        env = ctx.model(conj(atom_ge(x, 0), atom_le(x, 10)))
        assert env is not None and env["x"].denominator == 1


class TestEntailment:
    def test_basic(self, ctx):
        assert ctx.entails(atom_ge(x, 5), atom_ge(x, 0))
        assert not ctx.entails(atom_ge(x, 0), atom_ge(x, 5))

    def test_with_equalities(self, ctx):
        pre = conj(atom_eq(y, x + 1), atom_ge(x, 0))
        assert ctx.entails(pre, atom_ge(y, 1))

    def test_disjunctive_antecedent(self, ctx):
        f = disj(atom_ge(x, 5), atom_le(x, -5))
        assert ctx.entails(f, atom_ne(x, 0))

    def test_disjunctive_consequent(self, ctx):
        assert ctx.entails(atom_ge(x, 0), disj(atom_ge(x, 0), atom_le(x, -3)))

    def test_exists_consequent(self, ctx):
        # x >= 0  =>  exists y . y = x + 1
        goal = exists(["w"], atom_eq(var("w"), x + 1))
        assert ctx.entails(atom_ge(x, 0), goal)

    def test_equivalent(self, ctx):
        assert ctx.equivalent(atom_lt(x, 5), atom_le(x, 4))
        assert not ctx.equivalent(atom_lt(x, 5), atom_le(x, 5))


class TestValidity:
    def test_excluded_middle(self, ctx):
        assert ctx.is_valid(disj(atom_ge(x, 0), atom_lt(x, 0)))

    def test_non_valid(self, ctx):
        assert not ctx.is_valid(atom_ge(x, 0))


class TestProjection:
    def test_eliminate_equality(self, ctx):
        f = conj(atom_eq(y, x + 1), atom_ge(y, 3))
        g = ctx.project(f, eliminate={"y"})
        assert ctx.equivalent(g, atom_ge(x, 2))

    def test_keep_form(self, ctx):
        f = conj(atom_eq(y, x + 1), atom_ge(y, 3))
        g = ctx.project(f, keep={"x"})
        assert g.free_vars() <= {"x"}
        assert ctx.equivalent(g, atom_ge(x, 2))

    def test_project_disjunction(self, ctx):
        f = disj(
            conj(atom_eq(y, x), atom_ge(y, 0)),
            conj(atom_eq(y, -x), atom_ge(y, 1)),
        )
        g = ctx.project(f, eliminate={"y"})
        assert ctx.equivalent(g, disj(atom_ge(x, 0), atom_le(x, -1)))

    def test_project_drops_unsat_disjunct(self, ctx):
        f = disj(conj(atom_ge(y, 1), atom_le(y, 0)), atom_ge(x, 0))
        g = ctx.project(f, eliminate={"y"})
        assert ctx.equivalent(g, atom_ge(x, 0))

    def test_fm_bound_combination(self, ctx):
        # y <= x, z <= y  =>  (eliminate y)  z <= x
        f = conj(atom_le(y, x), atom_le(z, y))
        g = ctx.project(f, eliminate={"y"})
        assert ctx.equivalent(g, atom_le(z, x))


class TestSimplify:
    def test_drops_redundant_atom(self, ctx):
        f = conj(atom_ge(x, 5), atom_ge(x, 0))
        assert ctx.simplify(f) == atom_ge(x, 5)

    def test_drops_unsat_cube(self, ctx):
        f = disj(conj(atom_ge(x, 1), atom_le(x, 0)), atom_ge(x, 3))
        assert ctx.simplify(f) == atom_ge(x, 3)

    def test_false_result(self, ctx):
        f = conj(atom_ge(x, 1), atom_le(x, 0))
        assert ctx.simplify(f) is FALSE

    def test_subsumed_cube_removed(self, ctx):
        f = disj(atom_ge(x, 5), atom_ge(x, 0))
        assert ctx.equivalent(ctx.simplify(f), atom_ge(x, 0))
