"""Case-splitting on abduced conditions (paper Sec. 5.6).

``split`` partitions a set of (possibly overlapping) conditions into
mutually exclusive, satisfiable regions covering their disjunction;
``subst_unk`` installs the refined definition: one fresh unknown pair per
region plus the complement region, so the resulting guard family is
feasible, exclusive and exhaustive (paper Definition 2).

Dead splits -- abduced conditions that are unsatisfiable, or valid (their
complement is empty, so splitting on them changes nothing) -- are filtered
out *before* any definition is installed: installing one would trigger a
restart of the core iteration that re-derives the exact same state,
silently burning a ``MAX_ITER`` budget slot (twice, counting the restart
sweep) without refining anything.  Dropped conditions are logged at debug
level.
"""

from __future__ import annotations

import logging
from typing import List

from repro.arith.context import SolverContext
from repro.arith.formula import FALSE, Formula, TRUE, conj, disj, neg
from repro.core.specs import Case, DefStore

logger = logging.getLogger(__name__)


def split(conditions: List[Formula], ctx: SolverContext) -> List[Formula]:
    """Partition overlapping conditions into exclusive regions.

    The regions are the satisfiable cells of the boolean algebra generated
    by the conditions, restricted to the union of the conditions; their
    disjunction is equivalent to ``\\/ conditions``.
    """
    if not conditions:
        return []
    cells: List[Formula] = [TRUE]
    for c in conditions:
        new_cells: List[Formula] = []
        for cell in cells:
            inside = conj(cell, c)
            if ctx.is_sat(inside):
                new_cells.append(inside)
            outside = conj(cell, neg(c))
            if ctx.is_sat(outside):
                new_cells.append(outside)
        cells = new_cells
    union = disj(*conditions)
    out: List[Formula] = []
    for cell in cells:
        if ctx.is_sat(conj(cell, union)):
            inside = conj(cell, union)
            out.append(ctx.simplify(inside))
    # Dedup identical regions (simplify is canonical enough in practice;
    # structural equality is a safe approximation).
    seen = set()
    unique: List[Formula] = []
    for r in out:
        if r not in seen:
            seen.add(r)
            unique.append(r)
    return unique


def _live_conditions(
    conditions: List[Formula], pair: str, ctx: SolverContext
) -> List[Formula]:
    """Filter out dead split conditions (unsat, or valid == empty
    complement): they cannot refine the pair, and installing them would
    waste a whole solve iteration on a no-op restart."""
    live: List[Formula] = []
    for c in conditions:
        if not ctx.is_sat(c):
            logger.debug(
                "dropping unsat case-split condition %r for %s", c, pair
            )
            continue
        if not ctx.is_sat(neg(c)):
            logger.debug(
                "dropping valid (complement-empty) case-split condition "
                "%r for %s", c, pair
            )
            continue
        live.append(c)
    return live


def subst_unk(
    store: DefStore,
    pair: str,
    conditions: List[Formula],
    ctx: SolverContext,
) -> bool:
    """Refine an unknown pair along *conditions* plus their complement.

    Returns ``False`` (no refinement possible) when the conditions are
    empty, dead (unsatisfiable or valid), or the split would not change
    anything -- the caller then marks the pair ``MayLoop`` via
    ``finalize`` instead of burning an iteration on a no-op restart.
    """
    conditions = _live_conditions(conditions, pair, ctx)
    regions = split(conditions, ctx=ctx)
    if not regions:
        return False
    complement = ctx.simplify(conj(*(neg(c) for c in conditions)))
    if ctx.is_sat(complement):
        regions = regions + [complement]
    if len(regions) <= 1:
        return False
    args = store.pair_args[pair]
    base = pair.split("@", 1)[-1]
    cases: List[Case] = []
    for region in regions:
        child = store.new_pair(base, args)
        cases.append(Case(region, child, child))
    store.define(pair, cases)
    return True
