"""The labeled ST controller corpus and its bench wiring.

Every controller in ``examples/st_controllers/`` gets its expected
verdict both through the in-process corpus harness (``run_corpus`` over
the directory's ``labels.json``) and through the ``python -m
repro.bench`` CLI (``corpus --dir`` and ``analyze`` subcommands)."""

import pathlib
import subprocess
import sys

import pytest

from repro.bench.programs import (
    CATEGORIES,
    ST_CATEGORY,
    all_programs,
    st_programs,
)
from repro.core.pipeline import Verdict, infer_program
from repro.corpus import DirectoryBenchmark, run_corpus
from repro.corpus.benchmark import verdict_to_label
from repro.lang import desugar_program

REPO = pathlib.Path(__file__).resolve().parents[2]
ST_DIR = REPO / "examples" / "st_controllers"

EXPECTED = {
    "ramp_up": ("RampUp", "Y"),
    "bounded_retry": ("Retry", "Y"),
    "watchdog_stuck": ("Watchdog", "N"),
    "for_scan": ("ScanMax", "Y"),
    "settle_wait": ("SettleWait", "N"),
}


def bench_cli(*argv, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "repro.bench", *argv],
        capture_output=True, text=True, cwd=REPO, timeout=timeout,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )


class TestCorpus:
    def test_five_controllers_registered(self):
        corpus = st_programs()
        assert {p.name for p in corpus} == set(EXPECTED)
        for p in corpus:
            assert p.language == "st"
            assert p.category == ST_CATEGORY
            assert (p.main, str(p.expected)) == EXPECTED[p.name]

    def test_st_category_stays_out_of_the_paper_tables(self):
        # fig10/fig11 reproduce the paper's tables; the ST corpus is a
        # frontend smoke corpus, not part of them.  fig10 scopes to
        # CATEGORIES and fig11 additionally filters on the three integer
        # categories, so keeping ST_CATEGORY out of CATEGORIES keeps
        # both tables byte-identical to the pre-frontend ones.
        assert ST_CATEGORY not in CATEGORIES
        for category in CATEGORIES:
            assert all(p.language == "native"
                       for p in all_programs(category))
        assert all(p.category == ST_CATEGORY
                   for p in all_programs() if p.language == "st")

    def test_example_files_exist(self):
        for name in EXPECTED:
            assert (ST_DIR / f"{name}.st").is_file()

    def test_controllers_parse_and_build(self):
        for p in st_programs():
            program = p.program()
            assert p.main in program.methods

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_expected_verdicts_via_direct_inference(self, name):
        p = next(q for q in st_programs() if q.name == name)
        result = infer_program(desugar_program(p.program()),
                               time_budget=15.0, language="st")
        assert result.verdict(p.main) is p.expected
        assert isinstance(p.expected, Verdict)


class TestHarness:
    def test_corpus_reports_full_agreement(self):
        result = run_corpus(DirectoryBenchmark(ST_DIR), timeout=60.0)
        assert result.ok, result.render()
        assert "corpus st-controllers: 5 instances" in result.render()
        # exact agreement, not just soundness: an imprecise UNKNOWN on a
        # labeled controller is a failure here
        assert [verdict_to_label(o.verdict) for o in result.outcomes] == [
            inst.label for inst in result.instances
        ]


class TestCLI:
    def test_bench_corpus_dir_exits_zero(self):
        proc = bench_cli(
            "corpus", "--dir", str(ST_DIR), "--timeout", "60", timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        assert "corpus st-controllers: 5 instances" in proc.stdout
        assert "result: OK (5 instances)" in proc.stdout

    def test_analyze_sniffs_st_extension(self):
        proc = bench_cli("analyze", str(ST_DIR / "ramp_up.st"))
        assert proc.returncode == 0, proc.stderr
        assert "[st]" in proc.stdout
        assert "RampUp: Y" in proc.stdout

    def test_analyze_parse_failure_exits_two(self, tmp_path):
        bad = tmp_path / "bad.st"
        bad.write_text("FUNCTION F : INT\n  F := ;\nEND_FUNCTION\n")
        proc = bench_cli("analyze", str(bad))
        assert proc.returncode == 2
        assert "line 2" in proc.stderr

    def test_language_flag_rejected_outside_analyze(self):
        proc = bench_cli("fig10", "--language", "st")
        assert proc.returncode == 2
        assert "--language" in proc.stderr


NATIVE_TERM = """\
void main(int n)
{
  int i = 0;
  while ((i < 4)) {
    i = (i + 1);
  }
}
"""


class TestAnalyzeNativeAndMixed:
    """``analyze`` beyond ST files: native inputs and mixed invocations."""

    def test_analyze_native_file(self, tmp_path):
        prog = tmp_path / "count.imp"
        prog.write_text(NATIVE_TERM)
        proc = bench_cli("analyze", str(prog))
        assert proc.returncode == 0, proc.stderr
        assert "[native]" in proc.stdout
        assert "main: Y" in proc.stdout

    def test_analyze_mixed_languages_in_one_invocation(self, tmp_path):
        prog = tmp_path / "count.imp"
        prog.write_text(NATIVE_TERM)
        proc = bench_cli(
            "analyze", str(ST_DIR / "ramp_up.st"), str(prog)
        )
        assert proc.returncode == 0, proc.stderr
        # one block per file, each through its sniffed frontend
        assert "[st]" in proc.stdout and "[native]" in proc.stdout
        assert "RampUp: Y" in proc.stdout
        assert "main: Y" in proc.stdout

    def test_analyze_mixed_keeps_good_file_on_bad_file(self, tmp_path):
        good = tmp_path / "count.imp"
        good.write_text(NATIVE_TERM)
        bad = tmp_path / "bad.imp"
        bad.write_text("void main( {\n")
        proc = bench_cli("analyze", str(good), str(bad))
        assert proc.returncode == 2
        assert "main: Y" in proc.stdout  # the good file still reports
        assert "bad.imp" in proc.stderr  # with a rendered diagnostic

    def test_analyze_native_parse_failure_renders_position(self, tmp_path):
        bad = tmp_path / "bad.imp"
        bad.write_text("void main() {\n  int x = ;\n}\n")
        proc = bench_cli("analyze", str(bad))
        assert proc.returncode == 2
        assert "line 2" in proc.stderr

    def test_analyze_language_flag_forces_frontend(self, tmp_path):
        # an .imp file forced through the ST frontend must fail to parse,
        # proving --language overrides extension sniffing
        prog = tmp_path / "count.imp"
        prog.write_text(NATIVE_TERM)
        proc = bench_cli("analyze", "--language", "st", str(prog))
        assert proc.returncode == 2
        assert "[st]" in proc.stderr

    def test_analyze_rejects_jobs(self, tmp_path):
        # one program is analyzed in one process; only the table and
        # corpus sweeps fan out to worker processes
        prog = tmp_path / "count.imp"
        prog.write_text(NATIVE_TERM)
        proc = bench_cli("analyze", "--jobs", "2", str(prog))
        assert proc.returncode == 2
        assert "'analyze' takes no --jobs" in proc.stderr
        assert proc.stdout == ""

    def test_analyze_unknown_extension(self, tmp_path):
        prog = tmp_path / "count.xyz"
        prog.write_text(NATIVE_TERM)
        proc = bench_cli("analyze", str(prog))
        assert proc.returncode == 2
        # forcing the frontend rescues the same file
        proc = bench_cli("analyze", "--language", "native", str(prog))
        assert proc.returncode == 0, proc.stderr
        assert "main: Y" in proc.stdout
