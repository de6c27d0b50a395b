"""Property-based tests (hypothesis) for the arithmetic core.

Random small formulas are generated and the decision procedures are
checked against brute-force evaluation over a small integer grid:
a model found by the solver must satisfy the formula; a formula with a
grid witness must be declared satisfiable; entailment must never claim
implications a grid counterexample refutes, etc.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.arith.context import SolverContext
from repro.arith.formula import (
    Formula,
    atom_eq,
    atom_ge,
    atom_le,
    atom_lt,
    conj,
    disj,
    neg,
    to_dnf,
)
from repro.arith.terms import LinExpr, var

VARS = ("x", "y", "z")
GRID = range(-4, 5)


@st.composite
def linexprs(draw):
    coeffs = {
        v: draw(st.integers(min_value=-3, max_value=3)) for v in VARS
    }
    constant = draw(st.integers(min_value=-5, max_value=5))
    return LinExpr(coeffs, constant)


@st.composite
def atoms(draw):
    e = draw(linexprs())
    kind = draw(st.sampled_from(["le", "lt", "eq", "ge"]))
    builder = {"le": atom_le, "lt": atom_lt, "eq": atom_eq, "ge": atom_ge}[kind]
    return builder(e, 0)


@st.composite
def formulas(draw, depth=2):
    if depth == 0:
        return draw(atoms())
    choice = draw(st.integers(min_value=0, max_value=3))
    if choice == 0:
        return draw(atoms())
    if choice == 1:
        return conj(draw(formulas(depth=depth - 1)),
                    draw(formulas(depth=depth - 1)))
    if choice == 2:
        return disj(draw(formulas(depth=depth - 1)),
                    draw(formulas(depth=depth - 1)))
    return neg(draw(formulas(depth=depth - 1)))


def grid_models(f: Formula):
    for values in itertools.product(GRID, repeat=len(VARS)):
        env = dict(zip(VARS, values))
        try:
            if f.evaluate(env):
                yield env
        except ValueError:
            return


@settings(max_examples=120, deadline=None)
@given(formulas())
def test_grid_witness_implies_sat(f):
    ctx = SolverContext()
    for env in grid_models(f):
        assert ctx.is_sat(f), f"grid model {env} exists but solver says UNSAT"
        break


@settings(max_examples=120, deadline=None)
@given(formulas())
def test_model_satisfies_formula(f):
    ctx = SolverContext()
    env = ctx.model(f)
    if env is not None:
        full = {v: env.get(v, 0) for v in VARS}
        # rationals from the model must actually satisfy the formula
        assert f.evaluate(full)


@settings(max_examples=80, deadline=None)
@given(formulas(), formulas())
def test_entailment_respects_grid(a, b):
    ctx = SolverContext()
    if ctx.entails(a, b):
        for env in grid_models(a):
            assert b.evaluate(env), (
                f"claimed {a!r} => {b!r} but {env} is a counterexample"
            )


@settings(max_examples=80, deadline=None)
@given(formulas())
def test_simplify_preserves_grid_semantics(f):
    ctx = SolverContext()
    g = ctx.simplify(f)
    for values in itertools.product(range(-3, 4), repeat=len(VARS)):
        env = dict(zip(VARS, values))
        assert f.evaluate(env) == g.evaluate(env)


@settings(max_examples=80, deadline=None)
@given(formulas())
def test_dnf_preserves_grid_semantics(f):
    cubes = to_dnf(f)
    for values in itertools.product(range(-2, 3), repeat=len(VARS)):
        env = dict(zip(VARS, values))
        dnf_value = any(all(a.evaluate(env) for a in cube) for cube in cubes)
        assert f.evaluate(env) == dnf_value


@settings(max_examples=60, deadline=None)
@given(formulas())
def test_projection_is_sound_overapproximation(f):
    ctx = SolverContext()
    g = ctx.project(f, eliminate={"z"})
    assert g.free_vars() <= {"x", "y"}
    # every grid model of f must satisfy the projection
    for env in grid_models(f):
        assert g.evaluate({"x": env["x"], "y": env["y"]})

