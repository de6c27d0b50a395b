"""Unknown-predicate definitions (the store Theta) and case-form summaries.

Paper Definition 2: during inference, the pair of unknown predicates of a
method has definitions of the form ::

    Upr(v)  ==  \\/ (pi_i /\\ theta_i_pr)
    Upo(v)  ==  /\\ (pi_i => theta_i_po)

with feasible, exclusive and exhaustive guards ``pi_i``.  Here the two
definitions share the guard list, so we store one :class:`PredDef` per
unknown *pair* whose cases carry both the pre and the post status.  A case
status is either resolved (a known :class:`TempPred` / :class:`PostVal`)
or a reference to a fresh child pair -- giving a refinement tree whose
flattening (:meth:`DefStore.flatten`) produces the final
:class:`CaseSpec`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.arith.formula import Formula, TRUE, conj
from repro.arith.context import SolverContext
from repro.core.predicates import (
    MAYLOOP,
    POST_TRUE,
    PostVal,
    TempPred,
    Term,
)

PreStatus = Union[TempPred, str]   # known predicate, or child pair name
PostStatus = Union[PostVal, str]   # resolved reachability, or child pair name


@dataclass
class Case:
    """One guarded scenario of an unknown pair's definition."""

    guard: Formula
    pre: PreStatus
    post: PostStatus

    def is_resolved(self) -> bool:
        return not isinstance(self.pre, str) and not isinstance(self.post, str)


@dataclass
class PredDef:
    """Definition of an unknown pair over formal argument variables."""

    name: str
    args: Tuple[str, ...]
    cases: List[Case] = field(default_factory=list)


@dataclass(frozen=True)
class SpecCase:
    """One row of a final summary: ``guard -> requires pred ensures post``."""

    guard: Formula
    pred: TempPred
    post: PostVal

    def __repr__(self) -> str:
        return f"{self.guard!r} -> requires {self.pred!r} ensures {self.post!r}"


@dataclass
class CaseSpec:
    """A method's inferred termination/non-termination summary."""

    method: str
    params: Tuple[str, ...]
    cases: List[SpecCase]

    def pretty(self) -> str:
        lines = [f"case spec for {self.method}({', '.join(self.params)}):"]
        for c in self.cases:
            lines.append(
                f"  {c.guard!r} -> requires {c.pred!r} ensures {c.post!r}"
            )
        return "\n".join(lines)

    def case_for(self, env: Dict[str, int]) -> Optional[SpecCase]:
        """The unique case whose guard holds for a concrete input."""
        for c in self.cases:
            try:
                if c.guard.evaluate(env):
                    return c
            except ValueError:
                return None
        return None


class DefStore:
    """The store Theta of unknown-pair definitions.

    A pair name not present in :attr:`defs` is *unresolved* (its definition
    is still "itself", the initial form of paper Definition 2).
    """

    def __init__(self) -> None:
        self.defs: Dict[str, PredDef] = {}
        self.pair_args: Dict[str, Tuple[str, ...]] = {}
        self._fresh = itertools.count(1)

    # -- pair management ------------------------------------------------------

    def new_pair(self, base: str, args: Tuple[str, ...]) -> str:
        """Register a fresh unknown pair (e.g. ``U1@foo``)."""
        name = f"U{next(self._fresh)}@{base}"
        self.pair_args[name] = args
        return name

    def register_root(self, name: str, args: Tuple[str, ...]) -> None:
        self.pair_args[name] = args

    def is_resolved(self, name: str) -> bool:
        """Whether every leaf under *name* is a known predicate."""
        d = self.defs.get(name)
        if d is None:
            return False
        return all(
            (not isinstance(c.pre, str) or self.is_resolved(c.pre))
            and (not isinstance(c.post, str) or self.is_resolved(c.post))
            for c in d.cases
        )

    def unresolved_leaves(self, name: str) -> List[str]:
        """Unresolved descendant pair names (including *name* itself when it
        has no definition yet)."""
        d = self.defs.get(name)
        if d is None:
            return [name]
        out: List[str] = []
        for c in d.cases:
            if isinstance(c.pre, str):
                out.extend(self.unresolved_leaves(c.pre))
        return out

    def define(self, name: str, cases: List[Case]) -> None:
        """Install (or overwrite -- the paper's ``Theta (+)`` update) a
        definition for *name*."""
        args = self.pair_args[name]
        self.defs[name] = PredDef(name=name, args=args, cases=cases)

    def resolve_leaf(self, name: str, pre: TempPred, post: PostVal) -> None:
        """Resolve an (unresolved) pair to a single known case."""
        self.define(name, [Case(TRUE, pre, post)])

    # -- flattening -----------------------------------------------------------

    def flatten(
        self,
        name: str,
        context: Formula = TRUE,
        *,
        ctx: SolverContext,
    ) -> List[SpecCase]:
        """All resolved leaves under *name* with their accumulated guards.

        Unresolved leaves flatten to ``MayLoop`` / reachable -- matching the
        paper's ``finalize`` treatment.
        """
        d = self.defs.get(name)
        if d is None:
            return [SpecCase(ctx.simplify(context), MAYLOOP, POST_TRUE)]
        out: List[SpecCase] = []
        for c in d.cases:
            guard = conj(context, c.guard)
            if not ctx.is_sat(guard):
                continue
            if isinstance(c.pre, str):
                out.extend(self.flatten(c.pre, guard, ctx=ctx))
            else:
                post = c.post if isinstance(c.post, PostVal) else POST_TRUE
                out.append(SpecCase(ctx.simplify(guard), c.pre, post))
        return out

    def case_spec(
        self,
        name: str,
        method: str,
        params: Tuple[str, ...],
        context: Formula = TRUE,
        *,
        ctx: SolverContext,
    ) -> CaseSpec:
        """Final summary; *context* (usually the method's ``requires``)
        restricts the reported cases to inputs the contract admits."""
        return CaseSpec(
            method=method, params=params,
            cases=self.flatten(name, context, ctx=ctx),
        )

    # -- lookups used by specialisation ---------------------------------------

    def leaf_cases(self, name: str, context: Formula = TRUE) -> List[Tuple[Formula, PreStatus, PostStatus]]:
        """The current *leaf* scenarios of a pair: guard (cumulative),
        pre-status, post-status; unresolved leaves appear as pair names."""
        d = self.defs.get(name)
        if d is None:
            return [(context, name, name)]
        out: List[Tuple[Formula, PreStatus, PostStatus]] = []
        for c in d.cases:
            guard = conj(context, c.guard)
            if isinstance(c.pre, str):
                out.extend(self.leaf_cases(c.pre, guard))
            else:
                out.append((guard, c.pre, c.post))
        return out
