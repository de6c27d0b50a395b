"""Unit tests for linear expressions."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.arith.formula import Atom, Rel
from repro.arith.terms import LinExpr, const, linear_combination, to_linexpr, var


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        e = LinExpr({"x": 0, "y": 2})
        assert e.variables() == {"y"}

    def test_constant_expression(self):
        e = const(5)
        assert e.is_constant()
        assert e.constant == 5

    def test_var_expression(self):
        e = var("x")
        assert e.coeff("x") == 1
        assert e.coeff("y") == 0

    def test_fraction_coefficients(self):
        e = LinExpr({"x": Fraction(1, 2)})
        assert e.coeff("x") == Fraction(1, 2)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            LinExpr({"x": 0.5})

    def test_to_linexpr_coercions(self):
        assert to_linexpr(3) == const(3)
        assert to_linexpr("x") == var("x")
        assert to_linexpr(var("x")) == var("x")

    def test_linear_combination(self):
        e = linear_combination([(2, "x"), (3, "y"), (1, "x")], 7)
        assert e.coeff("x") == 3
        assert e.coeff("y") == 3
        assert e.constant == 7


class TestArithmetic:
    def test_addition(self):
        e = var("x") + var("y") + 3
        assert e.coeff("x") == 1 and e.coeff("y") == 1 and e.constant == 3

    def test_subtraction_cancels(self):
        e = var("x") - var("x")
        assert e.is_constant() and e.constant == 0

    def test_radd_rsub(self):
        assert (3 + var("x")) == var("x") + 3
        assert (3 - var("x")) == -var("x") + 3

    def test_scaling(self):
        e = (var("x") + 2).scale(3)
        assert e.coeff("x") == 3 and e.constant == 6

    def test_mul_operator(self):
        assert 2 * var("x") == var("x").scale(2)
        assert var("x") * 2 == var("x").scale(2)

    def test_negation(self):
        e = -(var("x") - 1)
        assert e.coeff("x") == -1 and e.constant == 1


class TestSubstitution:
    def test_substitute_var(self):
        e = var("x") + var("y")
        r = e.substitute({"x": var("a") + 1})
        assert r == var("a") + var("y") + 1

    def test_substitute_scales_coefficient(self):
        e = var("x").scale(3)
        r = e.substitute({"x": var("a") + 1})
        assert r.coeff("a") == 3 and r.constant == 3

    def test_substitute_no_hit_is_identity(self):
        e = var("x") + 1
        assert e.substitute({"z": var("q")}) is e

    def test_rename_merges(self):
        e = var("x") + var("y")
        r = e.rename({"x": "y"})
        assert r == var("y").scale(2)

    def test_evaluate(self):
        e = var("x").scale(2) + var("y") - 3
        assert e.evaluate({"x": 5, "y": 1}) == 8


class TestNormalization:
    def test_normalized_scales_to_integers(self):
        e = LinExpr({"x": Fraction(1, 2), "y": Fraction(1, 3)})
        n = e.normalized()
        assert all(c.denominator == 1 for c in n.coeffs.values())

    def test_normalized_gcd_reduced(self):
        e = LinExpr({"x": 4, "y": 6}, 8)
        n = e.normalized()
        assert n == LinExpr({"x": 2, "y": 3}, 4)

    def test_hash_equality_consistency(self):
        a = var("x") + var("y")
        b = var("y") + var("x")
        assert a == b and hash(a) == hash(b)

    def test_str_roundtrip_sanity(self):
        assert str(var("x") - var("y") + 1) == "x - y + 1"
        assert str(const(0)) == "0"


def stored_values(e: LinExpr):
    return [c for _, c in e._coeffs] + [e._const]


def assert_int_or_fraction(e: LinExpr):
    """Integral stored values are ``int``; the others are ``Fraction``."""
    for c in stored_values(e):
        if Fraction(c).denominator == 1:
            assert type(c) is int, (e, c)
        else:
            assert type(c) is Fraction, (e, c)


VARS = ["x", "y", "z"]
FACTORS = [2, -1, 0, 3, Fraction(1, 2), Fraction(-3, 3), Fraction(2, 3),
           Fraction(4, 2), True]

small = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.builds(Fraction, st.integers(min_value=-6, max_value=6),
              st.integers(min_value=1, max_value=4)),
)


@st.composite
def linexprs(draw):
    coeffs = {v: draw(small) for v in draw(st.sets(st.sampled_from(VARS)))}
    return LinExpr(coeffs, draw(small))


@st.composite
def steps(draw):
    kind = draw(st.sampled_from(
        ["add", "sub", "addk", "scale", "substitute", "rename", "tightened"]))
    if kind in ("add", "sub", "substitute"):
        return kind, draw(linexprs()), draw(st.sampled_from(VARS))
    if kind == "addk":
        return kind, draw(small), None
    if kind == "scale":
        return kind, draw(st.sampled_from(FACTORS)), None
    if kind == "rename":
        return kind, draw(st.sampled_from(VARS)), draw(st.sampled_from(VARS))
    return kind, draw(st.booleans()), None


class TestIntOrFraction:
    @settings(max_examples=200, deadline=None)
    @given(linexprs(), st.lists(steps(), max_size=8))
    def test_operations_keep_the_representation(self, e, ops):
        assert_int_or_fraction(e)
        for kind, a, b in ops:
            if kind == "add":
                e = e + a
            elif kind == "sub":
                e = e - a
            elif kind == "addk":
                e = e + a
            elif kind == "scale":
                e = e.scale(a)
            elif kind == "substitute":
                e = e.substitute({b: a})
            elif kind == "rename":
                e = e.rename({a: b})
            else:
                e = e.tightened(a)
            assert_int_or_fraction(e)

    def test_integral_fractions_intern_as_ints(self):
        e = LinExpr({"x": Fraction(4, 2)}, Fraction(-6, 3))
        assert e is LinExpr({"x": 2}, -2)
        assert type(e.coeff("x")) is int and type(e.constant) is int
        assert str(e) == "2*x - 2"

    def test_scale_by_integral_fraction(self):
        e = (var("x") + 1).scale(Fraction(-3, 3))
        assert e is -var("x") - 1
        assert [type(c) for c in stored_values(e)] == [int, int]

    def test_halving_keeps_fractions_and_doubling_restores_ints(self):
        half = (var("x").scale(3) + 1).scale(Fraction(1, 2))
        assert stored_values(half) == [Fraction(3, 2), Fraction(1, 2)]
        assert [type(c) for c in stored_values(half)] == [Fraction, Fraction]
        assert half.scale(2) is var("x").scale(3) + 1

    def test_zero_defaults_are_ints(self):
        assert type(var("x").coeff("y")) is int
        assert type(const(0).constant) is int
        assert type(linear_combination([(Fraction(2, 2), "x")]).coeff("x")) is int

    def test_bool_is_converted_to_int(self):
        e = LinExpr({"x": True}, False)
        assert e is var("x")
        assert type(e.coeff("x")) is int and type(e.constant) is int

    def test_evaluate_is_exact(self):
        e = var("x").scale(Fraction(1, 3)) + 1
        assert e.evaluate({"x": 2}) == Fraction(5, 3)
        assert type(const(4).evaluate({})) is Fraction

    def test_pickled_fraction_payload_reinterns(self):
        """Store entries written while coefficients were all ``Fraction``
        unpickle to the identical interned node."""
        live = LinExpr({"x": 2, "y": Fraction(1, 2)}, -3)
        atom = Atom(LinExpr({"x": 1}, 4), Rel.LE)

        class OldLinExpr:
            def __init__(self, coeffs, constant):
                self.args = (coeffs, constant)

            def __reduce__(self):
                return (LinExpr, self.args)

        class OldAtom:
            def __reduce__(self):
                old = OldLinExpr((("x", Fraction(1)),), Fraction(4))
                return (Atom, (old, Rel.LE))

        payload = pickle.dumps(
            [OldLinExpr((("x", Fraction(2)), ("y", Fraction(1, 2))),
                        Fraction(-3)), OldAtom()])
        assert b"Fraction" in payload
        loaded, loaded_atom = pickle.loads(payload)
        assert loaded is live
        assert str(loaded) == str(live) == "2*x + 1/2*y - 3"
        assert loaded_atom is atom
        assert repr(loaded_atom) == "(x + 4 <= 0)"
