"""Symbolic heap formulas and the standard list predicates (paper Fig. 4).

A symbolic heap is a separating conjunction of *chunks* (points-to facts
and inductive predicate instances) together with a pure arithmetic part.
Pointer values are symbolic names; ``"null"`` is the distinguished null
name.  Sizes are arithmetic variables shared with the pure part, which is
what the numeric abstraction ultimately extracts.

The three predicates of the paper are built in::

    ll(root, n)      ==  root = null /\\ n = 0
                         \\/  root |-> node(p) * ll(p, n-1)
    lseg(root, q, n) ==  root = q /\\ n = 0
                         \\/  root |-> node(p) * lseg(p, q, n-1)
    cll(root, n)     ==  root |-> node(p) * lseg(p, root, n-1)
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arith.formula import Formula, TRUE, atom_eq, atom_ge, conj
from repro.arith.context import SolverContext
from repro.arith.terms import LinExpr, var

NULL = "null"


@dataclass(frozen=True)
class Emp:
    """The empty heap."""

    def __repr__(self) -> str:
        return "emp"


@dataclass(frozen=True)
class PointsTo:
    """``loc |-> type(field_values...)`` -- field values are pointer names."""

    loc: str
    type_name: str
    fields: Tuple[Tuple[str, str], ...]

    def field(self, name: str) -> str:
        for k, v in self.fields:
            if k == name:
                return v
        raise KeyError(name)

    def with_field(self, name: str, value: str) -> "PointsTo":
        fields = tuple(
            (k, value if k == name else v) for k, v in self.fields
        )
        return PointsTo(self.loc, self.type_name, fields)

    def __repr__(self) -> str:
        fs = ", ".join(f"{k}={v}" for k, v in self.fields)
        return f"{self.loc}|->{self.type_name}({fs})"


@dataclass(frozen=True)
class PredInst:
    """``pred(ptr_args...; size)`` -- an inductive predicate instance.

    ``ptr_args`` are pointer names; ``size`` is an arithmetic expression
    (usually a variable) counting the cells the instance owns.
    """

    pred: str
    ptr_args: Tuple[str, ...]
    size: LinExpr

    def __repr__(self) -> str:
        return f"{self.pred}({', '.join(self.ptr_args)}; {self.size})"


Chunk = object  # PointsTo | PredInst


@dataclass(frozen=True)
class SymHeap:
    """A symbolic heap: chunks joined by ``*`` plus a pure formula."""

    chunks: Tuple[Chunk, ...] = ()
    pure: Formula = TRUE

    def star(self, chunk: Chunk) -> "SymHeap":
        return replace(self, chunks=self.chunks + (chunk,))

    def assume(self, p: Formula) -> "SymHeap":
        return replace(self, pure=conj(self.pure, p))

    def without(self, chunk: Chunk) -> "SymHeap":
        chunks = list(self.chunks)
        chunks.remove(chunk)
        return replace(self, chunks=tuple(chunks))

    def consistent(self, ctx: SolverContext) -> bool:
        return ctx.is_sat(self.pure)

    def find_points_to(self, loc: str, aliases: Dict[str, str]) -> Optional[PointsTo]:
        canon = aliases.get(loc, loc)
        for c in self.chunks:
            if isinstance(c, PointsTo) and aliases.get(c.loc, c.loc) == canon:
                return c
        return None

    def find_pred(self, root: str, aliases: Dict[str, str]) -> Optional[PredInst]:
        canon = aliases.get(root, root)
        for c in self.chunks:
            if isinstance(c, PredInst) and aliases.get(
                c.ptr_args[0], c.ptr_args[0]
            ) == canon:
                return c
        return None

    def __repr__(self) -> str:
        if not self.chunks:
            return f"emp /\\ {self.pure!r}"
        body = " * ".join(repr(c) for c in self.chunks)
        return f"{body} /\\ {self.pure!r}"


@dataclass(frozen=True)
class PredDefn:
    """Metadata driving unfolding of an inductive list predicate.

    * ``ptr_arity`` -- number of pointer arguments (root first);
    * ``empty_when`` -- 'root_is_null' (``ll``) or 'root_eq_second'
      (``lseg``) or None (``cll`` has no empty case);
    * ``next_field`` -- the link field of the unfolded cell;
    * ``tail_pred`` -- predicate of the remainder after unfolding.
    """

    name: str
    ptr_arity: int
    empty_when: Optional[str]
    next_field: str
    tail_pred: str
    node_type: str = "node"


STANDARD_PREDS: Dict[str, PredDefn] = {
    "ll": PredDefn("ll", 1, "root_is_null", "next", "ll"),
    "lseg": PredDefn("lseg", 2, "root_eq_second", "next", "lseg"),
    "cll": PredDefn("cll", 1, None, "next", "lseg"),
}


@dataclass(frozen=True)
class HeapSpec:
    """One separation-logic specification case of a method.

    ``pre``/``post`` are symbolic heaps over the method's pointer
    parameters and fresh size variables; ``size_params`` lists the size
    variables (they become the parameters of the abstracted method).
    """

    pre: SymHeap
    post: SymHeap
    size_params: Tuple[str, ...]

    def __repr__(self) -> str:
        return f"requires {self.pre!r} ensures {self.post!r}"


# Context-local like the formula fresh-name counter (see
# repro.arith.formula._FRESH_COUNTER for the concurrency rationale).
_FRESH_PTR: contextvars.ContextVar[int] = contextvars.ContextVar(
    "repro-fresh-ptr-counter", default=0
)


def fresh_ptr(base: str = "p") -> str:
    n = _FRESH_PTR.get()
    _FRESH_PTR.set(n + 1)
    return f"{base}%{n}"


def reset_fresh_ptrs() -> None:
    """Restart the fresh-pointer counter in the current context (bench
    cold-start protocol; see
    :func:`repro.arith.formula.reset_fresh_names`)."""
    _FRESH_PTR.set(0)


def fresh_ptr_scope() -> contextvars.Token:
    """Enter a zero-based fresh-pointer scope; see
    :func:`repro.arith.formula.fresh_scope`."""
    return _FRESH_PTR.set(0)


def exit_fresh_ptr_scope(token: contextvars.Token) -> None:
    _FRESH_PTR.reset(token)


def unfold(
    heap: SymHeap,
    inst: PredInst,
    aliases: Dict[str, str],
    ctx: SolverContext,
) -> List[Tuple[SymHeap, Dict[str, str]]]:
    """Unfold one predicate instance into its (consistent) case heaps.

    Returns ``(heap, aliases)`` pairs; the empty case may record a new
    pointer aliasing (``root = q`` for lseg) and the pure fact
    ``size = 0``; the nonempty case materialises the head cell and the
    tail instance with ``size - 1``.
    """
    defn = STANDARD_PREDS[inst.pred]
    out: List[Tuple[SymHeap, Dict[str, str]]] = []
    base = heap.without(inst)
    root = inst.ptr_args[0]
    # empty case
    if defn.empty_when == "root_is_null":
        empty = base.assume(atom_eq(inst.size, 0))
        new_aliases = dict(aliases)
        new_aliases[root] = NULL
        if empty.consistent(ctx):
            out.append((empty, new_aliases))
    elif defn.empty_when == "root_eq_second":
        q = inst.ptr_args[1]
        empty = base.assume(atom_eq(inst.size, 0))
        new_aliases = dict(aliases)
        new_aliases[root] = aliases.get(q, q)
        if empty.consistent(ctx):
            out.append((empty, new_aliases))
    # non-empty case
    nxt = fresh_ptr("nx")
    cell = PointsTo(root, defn.node_type, (("next", nxt),))
    if inst.pred == "cll":
        tail = PredInst("lseg", (nxt, root), inst.size - 1)
        nonempty = base.star(cell).star(tail).assume(atom_ge(inst.size, 1))
    elif inst.pred == "lseg":
        tail = PredInst("lseg", (nxt, inst.ptr_args[1]), inst.size - 1)
        nonempty = base.star(cell).star(tail).assume(atom_ge(inst.size, 1))
    else:  # ll
        tail = PredInst("ll", (nxt,), inst.size - 1)
        nonempty = base.star(cell).star(tail).assume(atom_ge(inst.size, 1))
    if nonempty.consistent(ctx):
        out.append((nonempty, dict(aliases)))
    return out
