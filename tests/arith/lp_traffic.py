"""The Farkas LPs the registry programs build, captured for the LP tests.

:func:`registry_lps` runs every registry program except ``offset-trap``
(whose peeling makes it the one slow program) the way the benchmark
tables do, and records each LP at
:meth:`LPProblem.solve`, together with the builder calls that produced it,
so a test can replay them into another builder.  :func:`abduction_calls`
records the arguments of every template abduction of the same run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arith import farkas
from repro.bench.programs import all_programs
from repro.bench.runner import HipTNTPlus, run_tool
from repro.core import nonterm, ranking

SKIPPED = ("offset-trap",)


@dataclass
class CapturedLP:
    lp: farkas.LPProblem
    objective: Optional[Dict[str, object]] = None
    bound: int = 1000
    #: ``("implication", args)`` / ``("abs_objective", names)``, in order.
    calls: List[Tuple[str, tuple]] = field(default_factory=list)

    @property
    def abduction(self) -> bool:
        return self.objective is not None


@functools.lru_cache(maxsize=None)
def _capture() -> Tuple[Tuple[CapturedLP, ...], Tuple[tuple, ...]]:
    by_lp: Dict[int, CapturedLP] = {}
    solved: List[CapturedLP] = []
    abductions: List[tuple] = []

    def entry(lp):
        return by_lp.setdefault(id(lp), CapturedLP(lp))

    real_impl = farkas.add_implication
    real_abs = farkas.LPProblem.abs_objective
    real_solve = farkas.LPProblem.solve
    real_abduction = nonterm._template_abduction

    def add_implication(lp, *args, **kwargs):
        entry(lp).calls.append(("implication", (args, kwargs)))
        return real_impl(lp, *args, **kwargs)

    def abs_objective(self, names):
        entry(self).calls.append(("abs_objective", tuple(names)))
        return real_abs(self, names)

    def solve(self, objective=None, bound=1000, **kwargs):
        captured = entry(self)
        captured.objective, captured.bound = objective, bound
        solved.append(captured)
        return real_solve(self, objective, bound, **kwargs)

    def template_abduction(context, beta, subset, ctx):
        abductions.append((context, beta, subset))
        return real_abduction(context, beta, subset, ctx)

    patches = [
        (ranking, "add_implication", add_implication),
        (nonterm, "add_implication", add_implication),
        (farkas.LPProblem, "abs_objective", abs_objective),
        (farkas.LPProblem, "solve", solve),
        (nonterm, "_template_abduction", template_abduction),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, fn in patches:
            setattr(owner, name, fn)
        for bench in all_programs():
            if bench.name not in SKIPPED:
                run_tool(HipTNTPlus(bench.main), bench, timeout=30.0)
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
    return tuple(solved), tuple(abductions)


def registry_lps() -> Tuple[CapturedLP, ...]:
    return _capture()[0]


def abduction_calls() -> Tuple[tuple, ...]:
    return _capture()[1]
