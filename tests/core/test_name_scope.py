"""``infer_program`` scopes its fresh names to the call.

Every call runs with private zero-based fresh-name counters (formula
variables, nondet names, fresh pointers), so it leaves the caller's
counters as it found them and two back-to-back calls produce identical
specs with no cold-start reset in between.
"""

import contextvars

import pytest

from repro.arith import formula
from repro.bench.programs import by_name
from repro.core.pipeline import infer_program
from repro.lang import to_arith
from repro.seplog import heap

COUNTERS = (formula._FRESH_COUNTER, to_arith._FRESH, heap._FRESH_PTR)

#: a heap program (fresh pointers from the numeric abstraction) and a loop
#: program (desugared into a tail-recursive method)
PROGRAMS = ("append-lseg", "up-drift")


def _in_private_context(fn):
    # the counters are ContextVars: run in a copy so the values this test
    # sets never leak into other tests
    return contextvars.copy_context().run(fn)


@pytest.mark.parametrize("name", PROGRAMS)
def test_call_leaves_caller_counters_unchanged(name):
    bench = by_name(name)

    def run():
        for i, counter in enumerate(COUNTERS):
            counter.set(1000 + i)
        infer_program(bench.program())
        return [counter.get() for counter in COUNTERS]

    assert _in_private_context(run) == [1000, 1001, 1002]


@pytest.mark.parametrize("name", PROGRAMS)
def test_back_to_back_calls_agree_without_cold_start(name):
    bench = by_name(name)

    def run():
        first = infer_program(bench.program())
        second = infer_program(bench.program())
        return first, second

    first, second = _in_private_context(run)
    assert first.pretty() == second.pretty()
    assert {m: first.verdict(m) for m in first.specs} == {
        m: second.verdict(m) for m in second.specs
    }
