"""Ranking-function synthesis tests (paper Sec. 5.4)."""

from repro.arith.formula import TRUE, atom_eq, atom_ge, atom_lt, conj
from repro.arith.terms import var
from repro.core.ranking import RankSynthesizer
from repro.core.reachgraph import Edge

x, y = var("x"), var("y")


def make_edge(pre, src_args=("x", "y"), dst_args=("x'", "y'"), pair="U"):
    return Edge(pair, pair, pre, tuple(src_args), tuple(dst_args))


class TestLinearSynthesis:
    def test_simple_countdown(self, ctx):
        # x > 0, x' = x - 1
        pre = conj(atom_ge(x, 1), atom_eq(var("x'"), x - 1))
        edge = make_edge(pre, ("x",), ("x'",))
        s = RankSynthesizer({"U": ("x",)}, ctx)
        ranks = s.synthesize_linear(["U"], [edge])
        assert ranks is not None
        r = ranks["U"]
        rn = r.substitute({"x": var("x'")})
        assert ctx.entails(pre, atom_ge(r, 0))
        assert ctx.entails(pre, atom_ge(r - rn, 1))

    def test_foo_term_case(self, ctx):
        # the paper's foo under x>=0, y<0 (with x'>=0 from the next guard)
        pre = conj(
            atom_ge(x, 0), atom_lt(y, 0),
            atom_eq(var("x'"), x + y), atom_eq(var("y'"), y),
            atom_ge(var("x'"), 0),
        )
        s = RankSynthesizer({"U": ("x", "y")}, ctx)
        ranks = s.synthesize_linear(["U"], [make_edge(pre)])
        assert ranks is not None

    def test_no_ranking_for_growth(self, ctx):
        pre = conj(atom_ge(x, 0), atom_eq(var("x'"), x + 1))
        s = RankSynthesizer({"U": ("x",)}, ctx)
        assert s.synthesize_linear(["U"], [make_edge(pre, ("x",), ("x'",))]) is None

    def test_no_edges_returns_none(self, ctx):
        s = RankSynthesizer({"U": ("x",)}, ctx)
        assert s.synthesize_linear(["U"], []) is None

    def test_mutual_recursion_two_templates(self, ctx):
        # f(x) calls g(x), g(x) calls f(x-1); x > 0
        ctx_fg = conj(atom_ge(x, 1), atom_eq(var("x'"), x))
        ctx_gf = conj(atom_ge(x, 1), atom_eq(var("x'"), x - 1))
        edges = [
            Edge("F", "G", ctx_fg, ("x",), ("x'",)),
            Edge("G", "F", ctx_gf, ("x",), ("x'",)),
        ]
        s = RankSynthesizer({"F": ("x",), "G": ("x",)}, ctx)
        # a single linear function can't strictly decrease on both edges
        # with integer delta 1 each... but 2x / 2x-1 style offsets can:
        result = s.synthesize_linear(["F", "G"], edges)
        if result is None:
            result = s.synthesize_lexicographic(["F", "G"], edges)
        assert result is not None


class TestLexicographic:
    def test_two_phase_loop(self, ctx):
        # (x,y): either y decreases (x unchanged), or x decreases (y havoc'd
        # to some bounded value)
        e1 = make_edge(conj(
            atom_ge(x, 1), atom_ge(y, 1),
            atom_eq(var("x'"), x), atom_eq(var("y'"), y - 1),
        ))
        e2 = make_edge(conj(
            atom_ge(x, 1), atom_ge(y, 0), atom_le := atom_ge(var("y'"), 0),
            atom_eq(var("x'"), x - 1),
        ))
        s = RankSynthesizer({"U": ("x", "y")}, ctx)
        assert s.synthesize_linear(["U"], [e1, e2]) is None or True
        lex = s.synthesize_lexicographic(["U"], [e1, e2])
        assert lex is not None
        assert len(lex["U"]) >= 1

    def test_ackermann_shape_with_bounds(self, ctx):
        # m decreases, or m equal and n decreases; both bounded
        m, n = var("m"), var("n")
        e1 = Edge("U", "U", conj(
            atom_ge(m, 1), atom_ge(n, 0),
            atom_eq(var("m'"), m - 1), atom_ge(var("n'"), 0),
        ), ("m", "n"), ("m'", "n'"))
        e2 = Edge("U", "U", conj(
            atom_ge(m, 1), atom_ge(n, 1),
            atom_eq(var("m'"), m), atom_eq(var("n'"), n - 1),
        ), ("m", "n"), ("m'", "n'"))
        s = RankSynthesizer({"U": ("m", "n")}, ctx)
        lex = s.synthesize_lexicographic(["U"], [e1, e2])
        assert lex is not None
        assert len(lex["U"]) == 2

    def test_exact_verification_guards_float_noise(self, ctx):
        """Whatever the LP returns, accepted rankings verify exactly."""
        pre = conj(atom_ge(x, 1), atom_eq(var("x'"), x - 3))
        s = RankSynthesizer({"U": ("x",)}, ctx)
        ranks = s.synthesize_linear(["U"], [make_edge(pre, ("x",), ("x'",))])
        assert ranks is not None
        r = ranks["U"]
        rn = r.substitute({"x": var("x'")})
        assert ctx.entails(pre, conj(atom_ge(r, 0), atom_ge(r - rn, 1)))


class TestFocusedSynthesis:
    """Pre-analysis rank hints: focused template first, full fallback."""

    def _edge(self):
        # x decreases, y does whatever: x is the only useful measure var
        pre = conj(
            atom_ge(x, 1),
            atom_eq(var("x'"), x - 1),
            atom_eq(var("y'"), y + 1),
        )
        return Edge("U@m", "U@m", pre, ("x", "y"), ("x'", "y'"))

    def test_good_hint_yields_focused_rank(self, ctx):
        s = RankSynthesizer(
            {"U@m": ("x", "y")}, focus={"m": ("x",)}, ctx=ctx
        )
        ranks = s.synthesize_linear(["U@m"], [self._edge()])
        assert ranks is not None
        assert ranks["U@m"].variables() <= {"x"}

    def test_bad_hint_falls_back_to_full_template(self, ctx):
        # hinting only the growing variable cannot work; completeness
        # demands the full template still finds the x-based rank
        s = RankSynthesizer(
            {"U@m": ("x", "y")}, focus={"m": ("y",)}, ctx=ctx
        )
        ranks = s.synthesize_linear(["U@m"], [self._edge()])
        assert ranks is not None

    def test_focused_indices_gating(self, ctx):
        s = RankSynthesizer(
            {"U@m": ("x", "y"), "V@n": ("x", "y")},
            focus={"m": ("y",), "n": ("x", "y")}, ctx=ctx
        )
        assert s._focused_indices("U@m") == [1]
        # full-tuple hint is not a proper subset: no focused attempt
        assert s._focused_indices("V@n") is None
        assert s._focused_indices("U@unknown") is None
