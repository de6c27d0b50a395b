"""``InferenceResult`` classifies every method in the SCC context it was
resolved with, whichever rung of ``resolve_scc`` resolved it.

A cold run against a fresh store resolves the loop by its pre-analysis
certificate and the two recursive SCCs by full analysis; the warm rerun
replays those two from the store.  In both runs every summarised method
has a context, and every verdict is counted in the run's statistics, so
no method classifies in a throwaway context outside ``solver_stats``.
"""

import dataclasses

from repro.core import infer_source
from repro.core.pipeline import Verdict, infer_program
from repro.lang import parse_program

#: ``main``'s counting loop carries a quick termination certificate;
#: ``dec`` and ``main`` itself go through the TNT solver.
PROGRAM = """
int dec(int n) { if (n <= 0) { return 0; } else { return dec(n - 1); } }
void main(int n) { int i = 0; while (i < n) { i = i + 1; } int r = dec(n); return; }
"""


def _check_contexts(result):
    assert set(result.contexts) == set(result.specs)
    for method in result.specs:
        before = result.solver_stats.queries
        result.verdict(method)
        assert result.solver_stats.queries > before, method


def test_every_rung_classifies_in_its_counted_context(tmp_path):
    store = str(tmp_path / "store")
    cold = infer_source(PROGRAM, store=store)
    assert cold.solver_stats.pre_quick == 1
    assert cold.solver_stats.store_misses == 2
    assert cold.solver_stats.store_hits == 0
    _check_contexts(cold)

    warm = infer_source(PROGRAM, store=store)
    assert warm.solver_stats.pre_quick == 1
    assert warm.solver_stats.store_hits == 2
    assert warm.solver_stats.store_misses == 0
    _check_contexts(warm)
    assert warm.pretty() == cold.pretty()


def test_bodyless_group_gets_no_summary_and_no_context():
    """The first rung: an extern-only SCC has nothing to summarise."""
    program = parse_program(
        "void g(int x) { if (x > 0) { g(x - 1); return; } else { return; } }"
    )
    program.methods["ext"] = dataclasses.replace(
        program.methods["g"], name="ext", body=None
    )
    result = infer_program(program)
    assert list(result.specs) == ["g"]
    assert result.verdict("g") is Verdict.TERMINATING
    _check_contexts(result)
