"""Entailment with frame for the list fragment, with lemma support.

The abstraction engine needs to answer goals of the form ::

    SymHeap  |-  pred(args) * frame

carving a predicate instance out of the current symbolic heap, leaving a
frame, and *computing* the arithmetic size of the carved instance in terms
of the heap's size variables.  The matcher works recursively with the
standard list lemmas (all are HIP-style user lemmas in the original
system):

* empty segment:     ``emp |- lseg(a, a; 0)`` and ``emp |- ll(null; 0)``
* head cons:         ``a |-> node(c) * lseg(c, t; m)  |-  lseg(a, t; m+1)``
* concatenation:     ``lseg(a, b; m1) * lseg(b, t; m2) |- lseg(a, t; m1+m2)``
* circular fold:     ``root |-> node(c) * lseg(c, root; m) |- cll(root; m+1)``
  (together with concatenation this yields the paper's rotation lemma:
  a circular list may be entered at any of its cells).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.arith.terms import LinExpr, const
from repro.seplog.heap import NULL, PointsTo, PredInst, SymHeap

MAX_DEPTH = 12


@dataclass(frozen=True)
class MatchResult:
    """Outcome of carving a predicate instance out of a heap."""

    frame: SymHeap
    size: LinExpr  # the carved instance's size in heap size variables


def _canon(name: str, aliases: Dict[str, str]) -> str:
    seen = set()
    while name in aliases and name not in seen:
        seen.add(name)
        name = aliases[name]
    return name


def match_instance(
    heap: SymHeap,
    pred: str,
    ptr_args: Tuple[str, ...],
    aliases: Dict[str, str],
    depth: int = MAX_DEPTH,
) -> Optional[MatchResult]:
    """Establish ``heap |- pred(ptr_args; size) * frame``; compute size.

    Matching is purely structural: it asks the arithmetic solver
    nothing, so it takes no solver context.
    """
    if depth <= 0:
        return None
    if pred == "cll":
        return _match_cll(heap, ptr_args[0], aliases, depth)
    if pred in ("ll", "lseg"):
        return _match_segment(heap, pred, ptr_args, aliases, depth)
    return None


def _is_target(pred: str, ptr_args: Tuple[str, ...], root: str,
               aliases: Dict[str, str]) -> bool:
    if pred == "ll":
        return _canon(root, aliases) == NULL
    return _canon(root, aliases) == _canon(ptr_args[1], aliases)


def _match_segment(
    heap: SymHeap,
    pred: str,
    ptr_args: Tuple[str, ...],
    aliases: Dict[str, str],
    depth: int,
) -> Optional[MatchResult]:
    root = ptr_args[0]
    # empty instance
    if _is_target(pred, ptr_args, root, aliases):
        return MatchResult(frame=heap, size=const(0))
    canon_root = _canon(root, aliases)
    # direct chunk at the root: same predicate kind (ll matches ll,
    # lseg matches lseg) -- possibly followed by concatenation
    for chunk in heap.chunks:
        if not isinstance(chunk, PredInst) or chunk.pred != pred:
            continue
        if _canon(chunk.ptr_args[0], aliases) != canon_root:
            continue
        rest = heap.without(chunk)
        if pred == "ll":
            return MatchResult(frame=rest, size=chunk.size)
        # lseg(root, q; m): done if q is the target, else concatenate
        q = chunk.ptr_args[1]
        if _canon(q, aliases) == _canon(ptr_args[1], aliases):
            return MatchResult(frame=rest, size=chunk.size)
        sub = _match_segment(
            rest, pred, (q,) + ptr_args[1:], aliases, depth - 1
        )
        if sub is not None:
            return MatchResult(frame=sub.frame, size=chunk.size + sub.size)
        continue
    # head cons: a |-> node(c) * P(c, ...; m)  =>  P(a, ...; m+1)
    cell = heap.find_points_to(canon_root, aliases)
    if cell is not None:
        try:
            nxt = cell.field("next")
        except KeyError:
            return None
        rest = heap.without(cell)
        sub = _match_segment(
            rest, pred, (nxt,) + ptr_args[1:], aliases, depth - 1
        )
        if sub is not None:
            return MatchResult(frame=sub.frame, size=sub.size + 1)
    return None


def _match_cll(
    heap: SymHeap,
    root: str,
    aliases: Dict[str, str],
    depth: int,
) -> Optional[MatchResult]:
    """``root |-> node(c) * lseg(c, root; m)  |-  cll(root; m+1)``.

    With segment concatenation in :func:`_match_segment` this subsumes the
    paper's rotation lemma: a cll viewed from any cell on the cycle.
    """
    canon_root = _canon(root, aliases)
    # direct chunk
    for chunk in heap.chunks:
        if isinstance(chunk, PredInst) and chunk.pred == "cll":
            if _canon(chunk.ptr_args[0], aliases) == canon_root:
                return MatchResult(frame=heap.without(chunk), size=chunk.size)
    cell = heap.find_points_to(canon_root, aliases)
    if cell is not None:
        try:
            nxt = cell.field("next")
        except KeyError:
            return None
        rest = heap.without(cell)
        sub = _match_segment(
            rest, "lseg", (nxt, canon_root), aliases, depth - 1
        )
        if sub is not None:
            return MatchResult(frame=sub.frame, size=sub.size + 1)
        return None
    # Closing-cell rotation: lseg(root, b; m) * b |-> node(root)
    # (plus any intermediate segments via concatenation)  |-  cll(root; m+1)
    for chunk in heap.chunks:
        if not isinstance(chunk, PointsTo):
            continue
        try:
            nxt = chunk.field("next")
        except KeyError:
            continue
        if _canon(nxt, aliases) != canon_root:
            continue
        rest = heap.without(chunk)
        sub = _match_segment(
            rest, "lseg", (canon_root, chunk.loc), aliases, depth - 1
        )
        if sub is not None:
            return MatchResult(frame=sub.frame, size=sub.size + 1)
    return None
