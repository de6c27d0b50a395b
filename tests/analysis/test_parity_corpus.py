"""Pre-analysis parity: full corpora differential + interpreter oracle.

Every source program goes through the pre-analysis front end
(:func:`repro.core.pipeline.prepare_program`); already-desugared input
skips it, which makes ``infer_program(desugar_program(p),
desugared=True)`` the un-pre-analysed reference.  Three layers of
evidence that the front end never changes what the pipeline *claims* (it
may only resolve U to a correct definite answer):

* the complete fig10/fig11 benchmark corpora, compared method by method
  against the reference;
* randomly generated (seeded, deterministic) loop programs analyzed both
  ways, every definite verdict cross-checked against actually *running*
  the program on the concrete interpreter
  (:func:`repro.lang.interp.terminates`), the ground-truth oracle;
* :func:`repro.core.reverify.reverify` re-checks the summaries of every
  quick-certified loop method.
"""

import random

from repro.bench.programs import all_programs
from repro.core.pipeline import Verdict, infer_program, prepare_program
from repro.core.reverify import reverify
from repro.lang.desugar import desugar_program
from repro.lang.interp import terminates
from repro.lang.parser import parse_program

_FIG11_CATEGORIES = ("crafted", "crafted-lit", "numeric")


def _verdicts(result):
    """Verdict strings of the source (non-loop) methods of *result*."""
    return {
        name: str(result.verdict(name))
        for name in result.specs
        if not result.program.methods[name].source_loop
    }


def _divergences(bench, time_budget=5.0):
    """Method-level differences between the pre-analysed run and the
    desugared reference that are not sound refinements.

    A *conflict* -- both definite, different answers -- is always a bug.
    A *refinement* -- exactly one side says ``U`` -- is by design (seeded
    invariants and quick certificates prove loops the linear-template
    search cannot), but a definite answer on the entry method must then
    match the benchmark's ground truth.  Runs that exhaust the solver's
    DNF limit on either side are incomparable and yield nothing.
    """
    program = bench.program()
    try:
        pre = _verdicts(infer_program(program, time_budget=time_budget))
        ref = _verdicts(infer_program(
            desugar_program(program), desugared=True, time_budget=time_budget,
        ))
    except MemoryError:
        return []
    found = []
    for name in sorted(set(pre) & set(ref)):
        a, b = pre[name], ref[name]
        if a == b:
            continue
        if "U" not in (a, b):
            found.append(f"{bench.name}.{name}: {a} vs reference {b}")
        elif name == bench.main and a != "U" and a != str(bench.expected):
            found.append(
                f"{bench.name}.{name}: {a} vs ground truth {bench.expected}"
            )
    return found


def _fig11(bench):
    return bench.loop_based and bench.category in _FIG11_CATEGORIES


class TestCorpusDifferential:
    """Complete-corpus differential checks (the slow, load-bearing ones)."""

    def test_fig11_corpus_no_divergence(self):
        found = [
            d for p in all_programs() if _fig11(p) for d in _divergences(p)
        ]
        assert found == []

    def test_fig10_remainder_no_divergence(self):
        # everything fig11 does not cover: recursive programs and the
        # memory-alloca category (heap methods are ineligible for
        # interval facts, so this mostly exercises the "pre-analysis
        # must not disturb them" direction)
        found = [
            d for p in all_programs() if not _fig11(p) for d in _divergences(p)
        ]
        assert found == []


# ---------------------------------------------------------------------------
# Random-program generator: deterministic, parameterless, call-free loop
# programs, so a pipeline verdict is checkable by simply running them.
# ---------------------------------------------------------------------------


def _gen_program(rng: random.Random) -> str:
    names = ["a", "b", "c"]
    decls = "".join(
        f"  int {n} = {rng.randint(-3, 8)};\n" for n in names
    )

    def atom():
        left = rng.choice(names)
        right = rng.choice([str(rng.randint(-2, 12)), rng.choice(names)])
        op = rng.choice(["<", "<=", ">", ">="])
        return f"{left} {op} {right}"

    def update():
        tgt = rng.choice(names)
        src = rng.choice(names)
        k = rng.randint(-2, 3)
        form = rng.choice(
            [f"{tgt} + {k}", f"{src} + {k}", f"{tgt} - 1", f"{k}"]
        )
        return f"    {tgt} = {form};\n"

    guard = atom() if rng.random() < 0.7 else f"{atom()} && {atom()}"
    body = "".join(update() for _ in range(rng.randint(1, 3)))
    if rng.random() < 0.4:
        body += f"    if ({atom()}) {{\n  {update()}    }} else {{\n  {update()}    }}\n"
    return (
        "void main() {\n"
        + decls
        + f"  while ({guard}) {{\n{body}  }}\n  return;\n}}\n"
    )


class TestRandomProgramsAgainstInterpreter:
    def test_verdicts_sound_with_and_without_preanalysis(self):
        rng = random.Random(20260808)
        checked_definite = 0
        for _ in range(30):
            source = _gen_program(rng)
            program = parse_program(source)
            # ground truth by execution: deterministic + parameterless,
            # so one run decides (fuel exhaustion == divergence here:
            # the state space of 3 bounded-update ints loops quickly)
            truth = terminates(parse_program(source), "main", [], fuel=200_000)
            runs = {
                "pre-analysed": infer_program(program, time_budget=5.0),
                "desugared reference": infer_program(
                    desugar_program(program), desugared=True, time_budget=5.0,
                ),
            }
            for label, result in runs.items():
                verdict = result.verdict("main")
                label = f"{source}\n({label})"
                if verdict is Verdict.TERMINATING:
                    assert truth is True, label
                    checked_definite += 1
                elif verdict is Verdict.NONTERMINATING:
                    assert truth is False, label
                    checked_definite += 1
        # the generator must actually exercise the oracle, not emit 30
        # programs the pipeline punts on
        assert checked_definite >= 20


# ---------------------------------------------------------------------------
# Re-verification of quick-certified loop methods
# ---------------------------------------------------------------------------

#: Registry programs left out of the reverify sweep: the three whose
#: analysis runs to the solver budget (~15 s each).
_SLOW = {"offset-trap", "ackermann-spec", "even-gap"}


def test_quick_certified_loops_reverify():
    from repro.corpus.generate import GeneratedBenchmark

    programs = [
        (p.name, p.program()) for p in all_programs() if p.name not in _SLOW
    ] + [
        (inst.id, inst.program())
        for inst in GeneratedBenchmark(40, seed="reverify")
    ]
    certified = 0
    failures = []
    for name, program in programs:
        quick = set(prepare_program(program).quick)
        if not quick:
            continue
        try:
            result = infer_program(program)
        except MemoryError:  # DNF limit (lcm-style): no summaries to check
            continue
        certified += result.solver_stats.pre_quick
        failures += [
            f"{name}: {f}" for f in reverify(result)
            if any(f.startswith(f"{method}:") for method in quick)
        ]
    assert failures == []
    assert certified >= 40  # the sweep must actually meet quick certificates
