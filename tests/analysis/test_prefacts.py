"""Pre-analysis front end + pipeline integration."""

import pytest

from repro.core import infer_source
from repro.core.pipeline import Verdict, infer_program, prepare_program
from repro.lang.desugar import desugar_program
from repro.lang.parser import parse_program

COUNT_UP = """
void main(int n) { int i = 0; while (i < n) { i = i + 1; } return; }
"""

STUCK = """
void main(int n) { int i = 0; while (n > 0) { i = i + 1; } return; }
"""

DEAD_LOOP = """
void main() { int i = 5; while (i < 0) { i = i + 1; } return; }
"""

RECURSIVE = """
int dec(int n) { if (n <= 0) { return 0; } else { return dec(n - 1); } }
"""


def _reference(source):
    """The un-pre-analysed reference: desugared input skips the front end."""
    return infer_program(
        desugar_program(parse_program(source)), desugared=True
    )


class TestPreFacts:
    def test_seeding_strengthens_loop_contract(self):
        pre = prepare_program(parse_program(COUNT_UP))
        (loop_name,) = pre.origins
        assert loop_name in pre.seeded
        req = pre.desugared.methods[loop_name].requires
        assert req is not None  # carries i >= 0 from the head invariant

    def test_rank_hints_are_proper_subset(self):
        pre = prepare_program(parse_program(COUNT_UP))
        (loop_name,) = pre.origins
        carried = set(pre.origins[loop_name].carried)
        hint = pre.hints.get(loop_name)
        if hint is not None:
            assert set(hint) < carried
            assert pre.desugared.methods[loop_name].rank_hints == hint

    def test_quick_verdicts_recorded(self):
        pre = prepare_program(parse_program(COUNT_UP))
        assert [v.kind for v in pre.quick.values()] == ["term"]
        pre = prepare_program(parse_program(STUCK))
        assert [v.kind for v in pre.quick.values()] == ["stuck"]

    def test_dead_loop_pruned_with_warning(self):
        pre = prepare_program(parse_program(DEAD_LOOP))
        assert pre.pruned == ["main"]
        assert not pre.origins  # the only loop is gone
        assert any(d.code == "dead-loop" for d in pre.diagnostics)
        from repro.lang.ast import While

        def has_while(s):
            subs = list(getattr(s, "stmts", ()))
            for attr in ("then", "els", "body"):
                if getattr(s, attr, None) is not None:
                    subs.append(getattr(s, attr))
            return isinstance(s, While) or any(has_while(t) for t in subs)

        assert not has_while(pre.source.methods["main"].body)


class TestPipelineIntegration:
    @pytest.mark.parametrize(
        "source,expected",
        [(COUNT_UP, Verdict.TERMINATING), (STUCK, Verdict.NONTERMINATING),
         (DEAD_LOOP, Verdict.TERMINATING)],
    )
    def test_preanalysis_verdicts_match_ground_truth(self, source, expected):
        assert infer_source(source).verdict("main") is expected
        assert _reference(source).verdict("main") is expected

    def test_quick_short_circuit_counted(self):
        result = infer_source(COUNT_UP)
        assert result.solver_stats.pre_quick == 1
        assert result.solver_stats.pre_seeded >= 1

    def test_plain_run_reports_no_pre_counters(self):
        # a loop-free program has nothing to seed or certify
        result = infer_source(RECURSIVE)
        assert result.solver_stats.pre_quick == 0
        assert result.solver_stats.pre_seeded == 0

    def test_source_and_desugared_reference_agree(self):
        for source in (COUNT_UP, STUCK, DEAD_LOOP, RECURSIVE):
            pre = infer_source(source)
            ref = _reference(source)
            shared = [m for m in ref.specs if m in pre.specs]
            assert shared
            assert [pre.verdict(m) for m in shared] == [
                ref.verdict(m) for m in shared
            ], source

    def test_desugared_input_ignores_preanalysis(self):
        # pre-analysis needs source loops; already-desugared input is
        # analyzed as given
        result = _reference(COUNT_UP)
        assert result.verdict("main") is Verdict.TERMINATING
        assert result.solver_stats.pre_quick == 0
        assert result.solver_stats.pre_seeded == 0
