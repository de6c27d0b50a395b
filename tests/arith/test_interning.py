"""Property tests for the hash-consed formula core.

Invariants under test:

* **Interning**: building a term/formula structurally equal to a live one
  returns the identical object (``is``), including across argument
  orderings of ``conj``/``disj`` (canonical ordering at build time).
* **Hash stability**: hashes are computed at construction and never
  change; structurally equal nodes hash equal.
* **Semantic transparency**: interning does not change ``is_sat`` /
  ``entails`` answers -- checked on a randomized corpus against a fresh
  (cache-cold) context and against concrete model evaluation.
"""

import random

from repro.arith.context import SolverContext
from repro.arith.formula import (
    And,
    Atom,
    BoolConst,
    Exists,
    FALSE,
    Formula,
    Not,
    Or,
    Rel,
    TRUE,
    atom_eq,
    atom_ge,
    atom_le,
    conj,
    disj,
    exists,
    neg,
)
from repro.arith.terms import LinExpr, var

VARS = ("a", "b", "c", "d")


def random_linexpr(rng: random.Random) -> LinExpr:
    coeffs = {
        v: rng.randint(-3, 3)
        for v in rng.sample(VARS, rng.randint(1, len(VARS)))
    }
    return LinExpr(coeffs, rng.randint(-5, 5))


def random_formula(rng: random.Random, depth: int = 3) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        e = random_linexpr(rng)
        rel = rng.choice(["le", "ge", "eq"])
        if rel == "le":
            return atom_le(e, rng.randint(-4, 4))
        if rel == "ge":
            return atom_ge(e, rng.randint(-4, 4))
        return atom_eq(e, rng.randint(-4, 4))
    kind = rng.random()
    if kind < 0.45:
        return conj(*(random_formula(rng, depth - 1) for _ in range(2)))
    if kind < 0.9:
        return disj(*(random_formula(rng, depth - 1) for _ in range(2)))
    return neg(random_formula(rng, depth - 1))


def rebuild(p: Formula) -> Formula:
    """Reconstruct *p* bottom-up through the public constructors."""
    if isinstance(p, BoolConst):
        return TRUE if p.value else FALSE
    if isinstance(p, Atom):
        return Atom(LinExpr(dict(p.expr.coeffs), p.expr.constant), p.rel)
    if isinstance(p, And):
        return conj(*(rebuild(a) for a in p.args))
    if isinstance(p, Or):
        return disj(*(rebuild(a) for a in p.args))
    if isinstance(p, Not):
        return neg(rebuild(p.arg))
    if isinstance(p, Exists):
        return exists(p.bound, rebuild(p.body))
    raise TypeError(type(p).__name__)


class TestInterning:
    def test_linexpr_interned(self):
        e1 = LinExpr({"x": 1, "y": -2}, 3)
        e2 = LinExpr({"y": -2, "x": 1}, 3)
        assert e1 is e2
        assert var("x") + var("y") is var("y") + var("x")

    def test_atom_interned(self):
        a1 = atom_le(var("x"), 3)
        a2 = atom_le(var("x"), 3)
        assert a1 is a2
        assert Atom(LinExpr({"x": 1}, -3), Rel.LE) is a1

    def test_bool_const_singletons(self):
        assert BoolConst(True) is TRUE
        assert BoolConst(False) is FALSE

    def test_conj_order_canonical(self):
        a = atom_le(var("x"), 0)
        b = atom_ge(var("y"), 2)
        assert conj(a, b) is conj(b, a)
        assert disj(a, b) is disj(b, a)
        # direct N-ary construction canonicalises too
        assert And([a, b]) is And([b, a])
        assert Or([a, b]) is Or([b, a])

    def test_not_and_exists_interned(self):
        p = conj(atom_le(var("x"), 0), atom_ge(var("y"), 1))
        q = disj(p, atom_eq(var("z"), 5))
        assert Not(q) is Not(q)
        assert exists(["x"], p) is exists(["x"], p)
        assert Exists(("x", "y"), p) is Exists(("y", "x"), p)

    def test_randomized_rebuild_identity(self):
        rng = random.Random(20260729)
        for _ in range(60):
            f = random_formula(rng)
            g = rebuild(f)
            assert f is g, (f, g)

    def test_hash_stability(self):
        rng = random.Random(42)
        for _ in range(40):
            f = random_formula(rng)
            h1 = hash(f)
            assert hash(rebuild(f)) == h1
            assert hash(f) == h1  # precomputed, stable across calls


class TestSemanticTransparency:
    def test_sat_answers_preserved(self, ctx):
        """Interned formulas give the same SAT answers through a context
        warmed by earlier queries, a cold context, and concrete
        evaluation."""
        rng = random.Random(987)
        cold = SolverContext()
        for _ in range(40):
            f = random_formula(rng, depth=2)
            warm_answer = ctx.is_sat(f)
            assert cold.is_sat(f) == warm_answer
            if warm_answer:
                env = ctx.model(f)
                assert env is not None
                assert f.evaluate(env)

    def test_entails_answers_preserved(self, ctx):
        rng = random.Random(555)
        cold = SolverContext()
        for _ in range(25):
            f = random_formula(rng, depth=2)
            g = random_formula(rng, depth=2)
            assert ctx.entails(conj(f, g), f)
            assert cold.entails(conj(f, g), f)
            assert ctx.entails(f, g) == cold.entails(f, g)

    def test_substitute_rename_stay_interned(self):
        f = conj(atom_le(var("x"), 0), atom_ge(var("y"), 1))
        r1 = f.rename({"x": "u"})
        r2 = f.rename({"x": "u"})
        assert r1 is r2
        s1 = f.substitute({"y": var("x") + 1})
        s2 = f.substitute({"y": var("x") + 1})
        assert s1 is s2
