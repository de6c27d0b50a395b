"""The plain-row Farkas builder and the direct HiGHS call against the
``LinExpr`` builder and the ``linprog`` path they replaced.

:mod:`farkas_reference` is the former builder and solver front end,
verbatim.  On every LP the registry programs build (:mod:`lp_traffic`)
and on hand-made edge cases, the new code must build the same LP -- the
same columns in the same order, the same rows, the same non-negative
unknowns -- and give the same answer as ``linprog(method="highs")``: the
same success flag, a bit-identical solution vector and the same
rationalised assignment.
"""

from fractions import Fraction
from typing import Dict, Optional

import farkas_reference as ref
import numpy as np
import pytest
from lp_traffic import abduction_calls, registry_lps

from repro.arith import farkas
from repro.arith.formula import atom_eq, atom_ge, atom_le
from repro.arith.terms import LinExpr, var
from repro.core import nonterm


def _linexpr(affine) -> LinExpr:
    coeffs, constant = affine
    return LinExpr(coeffs, constant)


def replay(captured) -> ref.LPProblem:
    """The reference builder fed the builder calls of a captured LP."""
    lp = ref.LPProblem()
    for kind, args in captured.calls:
        if kind == "abs_objective":
            lp.abs_objective(args)
            continue
        (cube, xs, target_coeffs, target_const, *rest), kwargs = args
        ref.add_implication(
            lp, cube, xs,
            {x: _linexpr(g) for x, g in target_coeffs.items()},
            _linexpr(target_const), *rest, **kwargs,
        )
    return lp


def _rows(rows):
    return [(dict(coeffs), Fraction(constant)) for coeffs, constant in rows]


def _ref_rows(rows):
    return [(e.coeffs, e.constant) for e in rows]


def assert_same_lp(new: farkas.LPProblem, old: ref.LPProblem) -> None:
    assert new.variables == old.variables
    assert _rows(new._le_rows) == _ref_rows(old._le_rows)
    assert _rows(new._eq_rows) == _ref_rows(old._eq_rows)
    assert new._nonneg == old._nonneg


def linprog_answer(old: ref.LPProblem, objective, bound, monkeypatch):
    """``old.solve``'s rationalised answer and the raw ``linprog`` result
    behind it (``None`` when the LP has no unknowns)."""
    seen = []

    def recording_linprog(*args, **kwargs):
        seen.append(ref_linprog(*args, **kwargs))
        return seen[-1]

    ref_linprog = ref.linprog
    monkeypatch.setattr(ref, "linprog", recording_linprog)
    answer = old.solve(
        objective=None if objective is None else LinExpr(objective), bound=bound
    )
    monkeypatch.setattr(ref, "linprog", ref_linprog)
    return answer, (seen[0] if seen else None)


def assert_same_answer(
    new: farkas.LPProblem,
    old: ref.LPProblem,
    monkeypatch,
    objective: Optional[Dict[str, object]] = None,
    bound: int = 1000,
) -> Optional[Dict[str, Fraction]]:
    answer, res = linprog_answer(old, objective, bound, monkeypatch)
    if res is not None:
        x = new.optimum(objective, bound)
        assert (x is not None) == res.success
        if x is not None:
            assert np.array(x).tobytes() == res.x.tobytes()
    assert new.solve(objective, bound) == answer
    return answer


# ---------------------------------------------------------------------------
# Registry traffic
# ---------------------------------------------------------------------------


def test_registry_traffic_covers_ranking_and_abduction():
    lps = registry_lps()
    assert len(lps) > 100
    assert sum(c.abduction for c in lps) > 0
    assert any(len(c.lp.variables) > 100 for c in lps)


def test_registry_lps_are_built_alike():
    for captured in registry_lps():
        assert_same_lp(captured.lp, replay(captured))


def test_registry_lps_get_linprog_answers(monkeypatch):
    outcomes = set()
    for captured in registry_lps():
        answer = assert_same_answer(
            captured.lp, replay(captured), monkeypatch,
            captured.objective, captured.bound,
        )
        outcomes.add(answer is not None)
    assert outcomes == {True, False}


def test_template_abduction_matches_the_hand_built_lp(monkeypatch, ctx):
    """The abduction now encodes its lemma through ``add_implication``:
    the LP and the abduced condition equal the hand-copied loop's."""
    built = {}

    def capture(cls, key):
        real = cls.solve

        def solve(self, *args, **kwargs):
            built[key] = self
            return real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "solve", solve)

    capture(farkas.LPProblem, "new")
    capture(ref.LPProblem, "old")
    calls = abduction_calls()
    assert calls
    for context, beta, subset in calls:
        built.clear()
        got = nonterm._template_abduction(context, beta, subset, ctx)
        want = ref.template_abduction(context, beta, subset, ctx)
        assert got == want
        assert built.keys() in ({"new", "old"}, set())
        if built:
            assert_same_lp(built["new"], built["old"])


# ---------------------------------------------------------------------------
# Hand-made cases
# ---------------------------------------------------------------------------


def both(*rows):
    """The same ``(kind, coeffs, constant)`` rows in both builders."""
    new, old = farkas.LPProblem(), ref.LPProblem()
    for kind, coeffs, constant in rows:
        if kind == "nonneg":
            new.set_nonneg(coeffs)
            old.set_nonneg(coeffs)
            continue
        getattr(new, f"add_{kind}")(coeffs, constant)
        getattr(old, f"add_{kind}")(LinExpr(coeffs, constant))
    assert_same_lp(new, old)
    return new, old


def test_empty_lp(monkeypatch):
    new, old = both()
    assert assert_same_answer(new, old, monkeypatch) == {}


def test_infeasible_lp(monkeypatch):
    # x >= 1 and x <= -1
    new, old = both(("le", {"x": -1}, 1), ("le", {"x": 1}, 1))
    assert assert_same_answer(new, old, monkeypatch) is None


def test_equality_only_lp(monkeypatch):
    # 2x + 3y = 7, x - y = 1  ->  x = 2, y = 1
    new, old = both(("eq", {"x": 2, "y": 3}, -7), ("eq", {"x": 1, "y": -1}, -1))
    answer = assert_same_answer(new, old, monkeypatch)
    assert answer == {"x": 2, "y": 1}


def test_optimum_on_the_box_bound(monkeypatch):
    # maximise x + y subject to x - y <= 3 and y >= 0: both hit the box
    new, old = both(("nonneg", "y", 0), ("le", {"x": 1, "y": -1}, -3))
    answer = assert_same_answer(
        new, old, monkeypatch, objective={"x": -1, "y": -1}, bound=50
    )
    assert answer == {"y": 50, "x": 50}


def test_abs_objective_lp(monkeypatch):
    # a + 2b >= 3 with minimal |a| + |b|
    new, old = both(("le", {"a": -1, "b": -2}, 3))
    objective = new.abs_objective(["a", "b"])
    old_objective = old.abs_objective(["a", "b"])
    assert LinExpr(objective) is old_objective
    assert_same_lp(new, old)
    answer = assert_same_answer(new, old, monkeypatch, objective, bound=100)
    assert answer["a"] == 0 and answer["b"] == Fraction(3, 2)


def test_implication_with_cancelling_and_unused_targets(monkeypatch):
    """A target coefficient that cancels (a self-loop's ``-c + c``), one
    over a variable outside the cube and *xs* (ignored), and a constant."""
    x, y = var("x"), var("y")
    cube = [atom_ge(x, 1), atom_le(x + y, 4), atom_eq(y - x, 0)]
    targets = {
        "x": ({"c.x": -1, "c.y": 1}, 0),
        "y": ({"c.y": 1}, Fraction(1, 2)),
        "z": ({"c.z": 1}, 5),
        "w": ({"c.x": 1, "c.w": -1}, 0),
    }
    targets["x"][0]["c.y"] -= 1  # cancels to 0
    const = ({"c0": 1, "c1": -1}, -1)
    new, old = farkas.LPProblem(), ref.LPProblem()
    farkas.add_implication(new, cube, ["x", "y", "w"], targets, const, "p")
    ref.add_implication(
        old, cube, ["x", "y", "w"],
        {k: _linexpr(g) for k, g in targets.items()}, _linexpr(const), "p",
    )
    assert_same_lp(new, old)
    assert "c.z" not in new.variables
    assert_same_answer(new, old, monkeypatch)


@pytest.mark.parametrize("coeffs", [{"x": 0}, {"x": 0, "y": Fraction(0)}])
def test_zero_coefficients_are_not_stored(coeffs, monkeypatch):
    new, old = both(("le", dict(coeffs, z=1), -2))
    assert new._le_rows == [({"z": 1}, -2)]
    assert_same_answer(new, old, monkeypatch)
