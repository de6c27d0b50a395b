"""Unit tests for formula construction and normal forms."""

import pytest

from repro.arith import formula
from repro.arith.formula import (
    Atom,
    DNFLimit,
    FALSE,
    Rel,
    TRUE,
    clear_dnf_cache,
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
    to_dnf,
    to_nnf,
)
from repro.arith.terms import var

x, y = var("x"), var("y")


class TestAtoms:
    def test_le_normalisation(self):
        a = atom_le(x, 5)
        assert isinstance(a, Atom) and a.rel is Rel.LE

    def test_lt_integer_tightening(self):
        # x < 5 over ints is x <= 4, i.e. x - 4 <= 0
        a = atom_lt(x, 5)
        assert a == atom_le(x, 4)

    def test_gt_ge_duals(self):
        assert atom_gt(x, 0) == atom_lt(0, x)
        assert atom_ge(x, 0) == atom_le(0, x)

    def test_constant_folding(self):
        assert atom_le(3, 5) is TRUE
        assert atom_le(5, 3) is FALSE
        assert atom_eq(4, 4) is TRUE
        assert atom_eq(4, 5) is FALSE

    def test_ne_expands_to_disjunction(self):
        a = atom_ne(x, 0)
        cubes = to_dnf(a)
        assert len(cubes) == 2

    def test_coefficient_gcd_tightening(self):
        # 2x <= 1 over ints means x <= 0
        assert atom_le(x.scale(2), 1) == atom_le(x, 0)

    def test_atom_evaluate(self):
        a = atom_le(x, 5)
        assert a.evaluate({"x": 5}) and not a.evaluate({"x": 6})

    def test_eq_atom_evaluate(self):
        a = atom_eq(x, y)
        assert a.evaluate({"x": 2, "y": 2})
        assert not a.evaluate({"x": 2, "y": 3})


class TestConnectives:
    def test_conj_unit_laws(self):
        a = atom_le(x, 0)
        assert conj(a, TRUE) == a
        assert conj(a, FALSE) is FALSE
        assert conj() is TRUE

    def test_disj_unit_laws(self):
        a = atom_le(x, 0)
        assert disj(a, FALSE) == a
        assert disj(a, TRUE) is TRUE
        assert disj() is FALSE

    def test_flattening_and_dedup(self):
        a, b = atom_le(x, 0), atom_le(y, 0)
        f = conj(conj(a, b), a)
        assert f == conj(a, b)

    def test_neg_involution(self):
        a = atom_le(x, 0)
        assert neg(neg(a)) == a

    def test_neg_le_atom_integer_exact(self):
        # not(x <= 0) is x >= 1
        assert neg(atom_le(x, 0)) == atom_ge(x, 1)

    def test_neg_eq_atom(self):
        cubes = to_dnf(neg(atom_eq(x, 0)))
        assert len(cubes) == 2


class TestNormalForms:
    def test_nnf_pushes_negation(self):
        f = neg(conj(atom_le(x, 0), atom_le(y, 0)))
        nnf = to_nnf(f)
        cubes = to_dnf(nnf)
        assert len(cubes) == 2

    def test_dnf_distributes(self):
        f = conj(disj(atom_le(x, 0), atom_ge(x, 5)), atom_le(y, 0))
        cubes = to_dnf(f)
        assert len(cubes) == 2
        assert all(len(c) == 2 for c in cubes)

    def test_dnf_true_false(self):
        assert to_dnf(TRUE) == [[]]
        assert to_dnf(FALSE) == []

    def test_dnf_limit(self, monkeypatch):
        big = conj(*(disj(atom_le(var(f"v{i}"), 0), atom_ge(var(f"v{i}"), 5))
                     for i in range(40)))
        monkeypatch.setattr(formula, "DNF_LIMIT", 1000)
        with pytest.raises(DNFLimit):
            to_dnf(big)

    def test_over_cap_dnf_raises_before_building_cubes(self, monkeypatch):
        """The cube count is replayed first: a formula over the cap never
        reaches the materialising conversion."""
        wide = conj(*(disj(atom_le(var(f"w{i}"), 0), atom_ge(var(f"w{i}"), 5))
                      for i in range(11)))  # 2048 cubes
        built = []
        real = formula._dnf
        monkeypatch.setattr(
            formula, "_dnf", lambda p: built.append(p) or real(p))
        monkeypatch.setattr(formula, "DNF_LIMIT", 2047)
        clear_dnf_cache()
        with pytest.raises(DNFLimit):
            to_dnf(wide)
        assert built == []
        monkeypatch.setattr(formula, "DNF_LIMIT", 2048)
        assert len(to_dnf(wide)) == 2048
        assert built  # at the cap, the conversion runs
        clear_dnf_cache()


class TestQuantifiers:
    def test_exists_drops_unused_binder(self):
        a = atom_le(x, 0)
        assert exists(["z"], a) == a

    def test_exists_free_vars(self):
        f = exists(["x"], conj(atom_le(x, y), atom_le(y, x)))
        assert f.free_vars() == {"y"}

    def test_substitute_avoids_capture(self):
        f = exists(["x"], atom_le(x, y))
        g = f.substitute({"y": var("x")})
        # the bound x must have been renamed apart from the substituted x
        assert "x" in g.free_vars()

    def test_rename_avoids_capture(self):
        f = exists(["x"], atom_le(x, y))
        g = f.rename({"y": "x"})
        assert "x" in g.free_vars()


class TestSubstitution:
    def test_formula_substitute(self):
        f = conj(atom_le(x, 0), atom_ge(y, 0))
        g = f.substitute({"x": y + 1})
        assert g == conj(atom_le(y + 1, 0), atom_ge(y, 0))

    def test_formula_rename(self):
        f = atom_le(x, y)
        assert f.rename({"x": "a", "y": "b"}) == atom_le(var("a"), var("b"))

    def test_evaluate_connectives(self):
        f = disj(atom_le(x, 0), atom_ge(y, 5))
        assert f.evaluate({"x": 1, "y": 5})
        assert not f.evaluate({"x": 1, "y": 4})
