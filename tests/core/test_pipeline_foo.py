"""End-to-end reproduction of the paper's Section 2 worked example."""

import pytest

from repro.arith.formula import atom_ge, atom_lt, conj
from repro.arith.terms import var
from repro.core import Term, Loop, infer_source
from repro.core.pipeline import Verdict
from repro.core.predicates import Loop as LoopPred, Term as TermPred

FOO = """
void foo(int x, int y)
{ if (x < 0) { return; } else { foo(x + y, y); return; } }
"""

x, y = var("x"), var("y")


@pytest.fixture(scope="module")
def foo_result():
    return infer_source(FOO)


def _case_region(spec, pred_type, reachable):
    """Union precondition of cases with the given predicate/post shape."""
    from repro.arith.formula import FALSE, disj

    region = FALSE
    for c in spec.cases:
        if isinstance(c.pred, pred_type) and c.post.reachable == reachable:
            region = disj(region, c.guard)
    return region


class TestFooSummary:
    def test_three_cases(self, foo_result):
        spec = foo_result.specs["foo"]
        assert len(spec.cases) == 3

    def test_base_case_is_x_negative(self, foo_result, ctx):
        spec = foo_result.specs["foo"]
        base = [c for c in spec.cases if isinstance(c.pred, TermPred)
                and not c.pred.measure]
        assert len(base) == 1
        assert ctx.equivalent(base[0].guard, atom_lt(x, 0))

    def test_loop_case_is_x_and_y_nonneg(self, foo_result, ctx):
        spec = foo_result.specs["foo"]
        loops = [c for c in spec.cases if isinstance(c.pred, LoopPred)]
        assert len(loops) == 1
        assert ctx.equivalent(loops[0].guard, conj(atom_ge(x, 0), atom_ge(y, 0)))
        assert not loops[0].post.reachable  # ensures false

    def test_term_case_is_x_nonneg_y_neg(self, foo_result, ctx):
        spec = foo_result.specs["foo"]
        terms = [c for c in spec.cases if isinstance(c.pred, TermPred)
                 and c.pred.measure]
        assert len(terms) == 1
        assert ctx.equivalent(
            terms[0].guard, conj(atom_ge(x, 0), atom_lt(y, 0))
        )

    def test_ranking_function_is_valid(self, foo_result, ctx):
        """The measure must be bounded and decreasing on the recursion
        under the Term case (x>=0, y<0, next call stays in x>=0)."""
        from repro.arith.formula import atom_eq

        spec = foo_result.specs["foo"]
        (case,) = [c for c in spec.cases if isinstance(c.pred, TermPred)
                   and c.pred.measure]
        (rank,) = case.pred.measure
        xp, yp = var("x'"), var("y'")
        edge = conj(
            atom_ge(x, 0), atom_lt(y, 0),
            atom_eq(xp, x + y), atom_eq(yp, y), atom_ge(xp, 0),
        )
        rank_next = rank.substitute({"x": xp, "y": yp})
        assert ctx.entails(edge, atom_ge(rank, 0))
        assert ctx.entails(edge, atom_ge(rank - rank_next, 1))

    def test_guards_are_exclusive_and_exhaustive(self, foo_result, ctx):
        """Paper Definition 2 on the final summary."""
        from repro.arith.formula import FALSE, TRUE, conj as conj_, disj, neg

        spec = foo_result.specs["foo"]
        guards = [c.guard for c in spec.cases]
        for g in guards:
            assert ctx.is_sat(g)  # feasible
        for i in range(len(guards)):
            for j in range(i + 1, len(guards)):
                assert not ctx.is_sat(conj_(guards[i], guards[j]))  # exclusive
        assert ctx.is_valid(disj(*guards))  # exhaustive

    def test_verdict_is_nonterminating(self, foo_result):
        assert foo_result.verdict("foo") is Verdict.NONTERMINATING


class TestFooOracle:
    """Cross-validate the summary against concrete executions."""

    def test_agrees_with_interpreter(self, foo_result):
        from repro.lang import parse_program
        from repro.lang.interp import terminates

        program = parse_program(FOO)
        spec = foo_result.specs["foo"]
        for xv in range(-3, 4):
            for yv in range(-3, 4):
                case = spec.case_for({"x": xv, "y": yv})
                assert case is not None
                actual = terminates(program, "foo", [xv, yv], fuel=5000)
                if isinstance(case.pred, TermPred):
                    assert actual is True, (xv, yv)
                elif isinstance(case.pred, LoopPred):
                    assert actual is False, (xv, yv)
