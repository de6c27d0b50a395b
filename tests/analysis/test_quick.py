"""Quick-verdict certificates and their materialised specs."""

from repro.analysis.quick import (
    build_quick_spec,
    stuck_certificate,
    term_certificate,
)
from repro.analysis import intervals as iv
from repro.arith.context import SolverContext
from repro.core.pipeline import prepare_program
from repro.core.predicates import Loop, Term
from repro.lang.ast import While
from repro.lang.parser import parse_program


def _the_while(source, name="main"):
    program = parse_program(source)
    method = program.methods[name]

    found = []

    def walk(s):
        if isinstance(s, While):
            found.append(s)
        for attr in ("then", "els", "body"):
            sub = getattr(s, attr, None)
            if sub is not None:
                walk(sub)
        for t in getattr(s, "stmts", ()):
            walk(t)

    walk(method.body)
    assert len(found) == 1
    return found[0]


class TestTermCertificate:
    def test_counting_loop(self):
        w = _the_while(
            "void main(int n) { int i = 0; while (i < n) { i = i + 1; } return; }"
        )
        m = term_certificate(w.cond, w.body, {}, ["i", "n"])
        assert m is not None  # measure n - i drops by 1

    def test_drift_needs_head_invariant(self):
        # i grows by i itself: only a lower bound on i makes that a drop
        # of the measure n - i.
        src = "void main(int n) { int i = 1; while (i < n) { i = i + i; } return; }"
        w = _the_while(src)
        assert term_certificate(w.cond, w.body, {}, ["i", "n"]) is None
        inv = {"i": iv.at_least(1)}
        assert term_certificate(w.cond, w.body, inv, ["i", "n"]) is not None

    def test_growing_variable_rejected(self):
        w = _the_while(
            "void main(int n) { int i = 0; while (i < n) { i = i - 1; } return; }"
        )
        assert term_certificate(w.cond, w.body, {}, ["i", "n"]) is None

    def test_call_in_body_bails(self):
        w = _the_while(
            """
            void f() { return; }
            void main(int n) { int i = 0; while (i < n) { i = i + 1; f(); } return; }
            """
        )
        assert term_certificate(w.cond, w.body, {}, ["i", "n"]) is None

    def test_nondet_assignment_bails(self):
        w = _the_while(
            "void main(int n) { int i = 0; while (i < n) { i = nondet(); } return; }"
        )
        assert term_certificate(w.cond, w.body, {}, ["i", "n"]) is None


class TestStuckCertificate:
    def test_guard_untouched(self):
        w = _the_while(
            "void main(int n) { int i = 0; while (n > 0) { i = i + 1; } return; }"
        )
        assert stuck_certificate(w.cond, w.body) is not None

    def test_guard_var_written_bails(self):
        w = _the_while(
            "void main(int n) { while (n > 0) { n = n - 1; } return; }"
        )
        assert stuck_certificate(w.cond, w.body) is None

    def test_assume_in_body_bails(self):
        # a violated assume halts execution: the loop is not stuck
        w = _the_while(
            "void main(int n) { int i = 0; while (n > 0) { assume(i < 5); i = i + 1; } return; }"
        )
        assert stuck_certificate(w.cond, w.body) is None


class TestBuildQuickSpec:
    def _loop_method(self, source, kind):
        pre = prepare_program(parse_program(source))
        (loop_name,) = [n for n, v in pre.quick.items() if v.kind == kind]
        return pre.desugared.methods[loop_name], pre.quick[loop_name]

    def test_term_spec_shape(self):
        method, verdict = self._loop_method(
            "void main(int n) { int i = 0; while (i < n) { i = i + 1; } return; }",
            "term",
        )
        spec = build_quick_spec(method, verdict, SolverContext())
        assert spec is not None and len(spec.cases) == 1
        (case,) = spec.cases
        assert isinstance(case.pred, Term) and case.post.reachable

    def test_stuck_spec_has_loop_case(self):
        method, verdict = self._loop_method(
            "void main(int n) { int i = 0; while (n > 0) { i = i + 1; } return; }",
            "stuck",
        )
        spec = build_quick_spec(method, verdict, SolverContext())
        assert spec is not None
        assert any(isinstance(c.pred, Loop) for c in spec.cases)
        assert any(isinstance(c.pred, Term) for c in spec.cases)

    def test_unsat_requires_yields_none(self):
        method, verdict = self._loop_method(
            "void main(int n) { int i = 0; while (i < n) { i = i + 1; } return; }",
            "term",
        )
        from repro.arith.formula import FALSE

        method.requires = FALSE
        assert build_quick_spec(method, verdict, SolverContext()) is None
