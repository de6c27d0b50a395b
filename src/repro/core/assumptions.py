r"""Relational assumptions over unknown temporal predicates (paper Sec. 3-4).

Two families are collected by the Hoare-style verification:

* **Pre-assumptions** (set ``S``), from proving preconditions at call
  sites::

      rho /\ theta_a  =>  theta_c

  where ``theta_a`` is the caller's pre-predicate occurrence and
  ``theta_c`` the callee's (or a known predicate after specialisation).

* **Post-assumptions** (set ``T``), from proving postconditions at method
  exits::

      rho /\ /\(eta_i => false) /\ /\(mu_j => U^j_po(v_j))  =>  (mu => U_po(v))

  The left conjunct list records the post-predicates accumulated from the
  calls on the path (resolved ``false`` entries come from callees already
  proven non-terminating).

The ``filter`` function removes the trivial assumptions enumerated in the
paper's [TNT-CALL] discussion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

from repro.arith.formula import Formula, TRUE, conj
from repro.arith.context import SolverContext
from repro.core.predicates import (
    Loop,
    MayLoop,
    PostRef,
    PostVal,
    PreRef,
    TempPred,
    Term,
)

# A left-hand-side post entry: (guard, PostRef) for unknown callees or
# (guard, PostVal(false)) for callees already proven non-terminating.
PostEntry = Tuple[Formula, Union[PostRef, PostVal]]


@dataclass(frozen=True)
class PreAssume:
    """``ctx /\\ lhs => rhs`` over pre-predicates."""

    ctx: Formula
    lhs: Union[TempPred, PreRef]
    rhs: Union[TempPred, PreRef]

    def __repr__(self) -> str:
        return f"[{self.ctx!r} /\\ {self.lhs!r} => {self.rhs!r}]"


@dataclass(frozen=True)
class PostAssume:
    """``ctx /\\ /\\(entries) => (guard => rhs)`` over post-predicates."""

    ctx: Formula
    entries: Tuple[PostEntry, ...]
    guard: Formula
    rhs: PostRef

    def __repr__(self) -> str:
        es = " /\\ ".join(f"({g!r} => {p!r})" for g, p in self.entries)
        lhs = f"{self.ctx!r}" + (f" /\\ {es}" if es else "")
        return f"[{lhs} => ({self.guard!r} => {self.rhs!r})]"


Assumption = Union[PreAssume, PostAssume]


def filter_trivial(
    assumptions: Sequence[PreAssume],
    mutually_recursive: Optional[set] = None,
    *,
    ctx: SolverContext,
) -> List[PreAssume]:
    """Remove trivial pre-assumptions (paper's ``filter`` in [TNT-CALL]).

    1. unsatisfiable context;
    2. ``Loop`` or ``MayLoop`` on the left (they accept any constraint);
    3. ``... => Term M`` when caller and callee are not mutually recursive
       (*mutually_recursive*, when given, is the set of pair names in the
       caller's SCC: a Term-RHS assumption is kept only if its LHS pair
       belongs to it -- those are base-case-reachability edges).
    """
    out: List[PreAssume] = []
    for a in assumptions:
        if isinstance(a.lhs, (Loop, MayLoop)):
            continue
        if isinstance(a.rhs, Term) and isinstance(a.lhs, Term):
            continue
        if (
            isinstance(a.rhs, Term)
            and mutually_recursive is not None
            and (not isinstance(a.lhs, PreRef) or a.lhs.name not in mutually_recursive)
        ):
            continue
        if not ctx.is_sat(a.ctx):
            continue
        out.append(a)
    return out


def filter_post(
    assumptions: Sequence[PostAssume],
    ctx: SolverContext,
) -> List[PostAssume]:
    """Drop post-assumptions with unsatisfiable contexts."""
    return [a for a in assumptions if ctx.is_sat(conj(a.ctx, a.guard))]
