"""Corpus execution: sweep, oracle cross-check, scoring, minimization.

:func:`run_corpus` is the harness behind ``python -m repro.bench corpus``:

1. every instance of a :class:`~repro.corpus.benchmark.Benchmark` runs
   through the full inference pipeline via the sharded bench runner
   (timeouts, cold-start protocol, ``--jobs`` fan-out all inherited);
2. generated (and witness-carrying) instances are first **cross-checked
   against the concrete interpreter**: a NONTERM instance's divergence
   witness must exhaust fuel, a TERM instance must halt on a deterministic
   input sample -- any disagreement means the *corpus construction* is
   wrong, independent of the analyzer;
3. verdicts are scored against labels (:mod:`repro.corpus.score`); every
   soundness violation and every oracle disagreement is shrunk
   (:mod:`repro.corpus.shrink`) to a minimized reproducer and reported.

Reports carry no wall-clock data, so a seeded rerun of a generated corpus
is byte-identical.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.bench.runner import BenchOutcome, HipTNTPlus, run_tools_sharded
from repro.corpus.benchmark import (
    Benchmark,
    CorpusInstance,
    Label,
    label_to_verdict,
)
from repro.corpus.score import ScoreReport, score
from repro.corpus.shrink import shrink_program
from repro.lang.interp import Outcome, observe
from repro.lang.pretty import pretty_program

#: Oracle budgets: generated TERM programs halt within a few thousand
#: steps by construction, so 60k steps of fuel (with a wall-clock belt)
#: separates "halts" from "still running" with a wide margin.
DEFAULT_FUEL = 60_000
_ORACLE_WALL_CLOCK = 5.0
#: Extra random input vectors sampled per TERM instance, beyond all-zeros
#: (and the recorded witness, when one exists).
_N_SAMPLES = 3
_SAMPLE_SPAN = 6
#: Shrink budgets: oracle predicates run the interpreter (cheap), verdict
#: predicates run the full analyzer (expensive).
_SHRINK_ORACLE_CALLS = 200
_SHRINK_VERDICT_CALLS = 48
_SHRINK_TIME_BUDGET = 3.0


@dataclass
class Disagreement:
    """A reproducer: the corpus and an oracle (or the tool) disagree.

    *kind* is ``"oracle"`` (the concrete interpreter contradicts the
    ground-truth label -- the corpus construction itself is wrong) or
    ``"verdict"`` (the tool gave an unsound definite answer).
    """

    instance_id: str
    kind: str
    detail: str
    origin: str = ""
    minimized: str = ""

    def render(self) -> str:
        lines = [
            f"DISAGREEMENT ({self.kind}): {self.instance_id}: {self.detail}"
        ]
        if self.origin:
            lines.append(f"  origin: {self.origin}")
        if self.minimized:
            lines.append("  minimized reproducer:")
            lines.extend(
                "    " + ln for ln in self.minimized.rstrip().splitlines()
            )
        return "\n".join(lines)


def inject_flip(
    instances: Sequence[CorpusInstance], instance_id: str
) -> List[CorpusInstance]:
    """*instances* with one ground-truth label deliberately flipped
    (TERM <-> NONTERM; UNKNOWN becomes TERM).

    A harness self-test, exposed as ``--inject-flip ID``: the flipped
    instance must come back as a caught, minimized soundness failure --
    if it doesn't, the harness could not have caught a real one either.
    """
    flipped = {
        Label.TERM: Label.NONTERM,
        Label.NONTERM: Label.TERM,
        Label.UNKNOWN: Label.TERM,
    }
    out, hit = [], False
    for inst in instances:
        if inst.id == instance_id:
            hit = True
            inst = dataclasses.replace(
                inst,
                label=flipped[inst.label],
                origin=(inst.origin + " [label flipped]").strip(),
            )
        out.append(inst)
    if not hit:
        raise KeyError(f"no instance with id {instance_id!r} to flip")
    return out


def _entry_arity(program, entry: str) -> int:
    return len(program.method(entry).params)


def _term_samples(inst: CorpusInstance, arity: int) -> List[Tuple[int, ...]]:
    """Deterministic input vectors a TERM-labeled instance must halt on."""
    rng = random.Random(f"repro-corpus-crosscheck:{inst.id}")
    vectors = [tuple([0] * arity)]
    if inst.witness is not None and len(inst.witness) == arity:
        vectors.append(tuple(inst.witness))
    for _ in range(_N_SAMPLES):
        vectors.append(
            tuple(
                rng.randint(-_SAMPLE_SPAN, _SAMPLE_SPAN) for _ in range(arity)
            )
        )
    seen, out = set(), []
    for vec in vectors:
        if vec not in seen:
            seen.add(vec)
            out.append(vec)
    return out


def wants_crosscheck(inst: CorpusInstance) -> bool:
    """Auto mode: cross-check generated instances (labels claimed by
    construction) and any instance shipping a divergence witness."""
    return inst.origin.startswith("generate(") or inst.witness is not None


def crosscheck_instance(
    inst: CorpusInstance,
    fuel: int = DEFAULT_FUEL,
    shrink: bool = True,
) -> Optional[Disagreement]:
    """Check *inst*'s label against the concrete interpreter.

    NONTERM: the recorded witness must still be running after *fuel*
    steps.  TERM: every sample vector must halt.  A disagreement is
    shrunk (preserving the contradicting observation) before reporting.
    """
    try:
        program = inst.program()
    except Exception as exc:
        return Disagreement(
            inst.id, "oracle", f"source does not parse: {exc}", inst.origin
        )
    arity = _entry_arity(program, inst.entry)

    def run(prog, vec) -> Outcome:
        return observe(
            prog, inst.entry, list(vec), fuel=fuel,
            wall_clock=_ORACLE_WALL_CLOCK,
        )

    if inst.label is Label.NONTERM:
        if inst.witness is None or len(inst.witness) != arity:
            return None  # nothing falsifiable to check
        witness = tuple(inst.witness)
        if run(program, witness) is not Outcome.HALTED:
            return None
        detail = (
            f"divergence witness {witness} HALTED under the oracle "
            f"(label NONTERM)"
        )
        predicate = lambda p: run(p, witness) is Outcome.HALTED  # noqa: E731
        sample: Tuple[int, ...] = witness
    elif inst.label is Label.TERM:
        bad = None
        for vec in _term_samples(inst, arity):
            if run(program, vec) is Outcome.FUEL_OUT:
                bad = vec
                break
        if bad is None:
            return None
        detail = (
            f"TERM-labeled but input {bad} still running after "
            f"{fuel} steps"
        )
        predicate = lambda p: run(p, bad) is Outcome.FUEL_OUT  # noqa: E731
        sample = bad
    else:
        return None

    minimized = ""
    if shrink:
        shrunk, _ = shrink_program(
            program, inst.entry, predicate, max_calls=_SHRINK_ORACLE_CALLS
        )
        minimized = (
            f"// {inst.id}: oracle disagreement on input {sample}\n"
            + pretty_program(shrunk)
        )
    return Disagreement(inst.id, "oracle", detail, inst.origin, minimized)


def minimize_violation(
    inst: CorpusInstance,
    predicted: Label,
    time_budget: float = _SHRINK_TIME_BUDGET,
    store: Optional[str] = None,
) -> str:
    """The smallest deletion-reachable program on which the tool still
    returns the unsound verdict *predicted* -- the reproducer attached to
    a soundness violation."""
    from repro.core.pipeline import infer_program

    program = inst.program()
    want = label_to_verdict(predicted)

    def predicate(candidate) -> bool:
        result = infer_program(candidate, time_budget=time_budget, store=store)
        return result.verdict(inst.entry) is want

    shrunk, _ = shrink_program(
        program, inst.entry, predicate, max_calls=_SHRINK_VERDICT_CALLS
    )
    return (
        f"// {inst.id}: tool says {want} against label {inst.label}\n"
        + pretty_program(shrunk)
    )


@dataclass
class CorpusResult:
    """Everything one corpus sweep produced."""

    benchmark: str
    instances: List[CorpusInstance]
    outcomes: List[BenchOutcome]
    report: ScoreReport
    disagreements: List[Disagreement]

    @property
    def ok(self) -> bool:
        return self.report.ok and not self.disagreements

    def render(self) -> str:
        parts = [self.report.render()]
        parts.extend(d.render() for d in self.disagreements)
        if self.ok:
            parts.append(f"result: OK ({len(self.instances)} instances)")
        else:
            oracle = sum(1 for d in self.disagreements if d.kind == "oracle")
            parts.append(
                f"result: FAILURES ({len(self.report.violations)} soundness "
                f"violations, {oracle} oracle disagreements)"
            )
        return "\n\n".join(parts)


def run_corpus(
    benchmark: Benchmark,
    timeout: float = 60.0,
    jobs: int = 1,
    store: Optional[str] = None,
    time_budget: float = 15.0,
    fuel: int = DEFAULT_FUEL,
    crosscheck: Optional[bool] = None,
    shrink: bool = True,
    flip: Optional[str] = None,
) -> CorpusResult:
    """Sweep *benchmark* and score it; see the module docstring.

    *crosscheck* -- ``True``: oracle-check every instance, ``False``:
    none, ``None`` (default): auto (:func:`wants_crosscheck`).  *flip*
    injects a deliberate label flip on the named instance (self-test).
    """
    instances = benchmark.instances()
    if flip is not None:
        instances = inject_flip(instances, flip)

    disagreements: List[Disagreement] = []
    if crosscheck is not False:
        for inst in instances:
            if crosscheck is None and not wants_crosscheck(inst):
                continue
            found = crosscheck_instance(inst, fuel=fuel, shrink=shrink)
            if found is not None:
                disagreements.append(found)

    pairs = [
        (
            HipTNTPlus(inst.entry, time_budget=time_budget, store=store),
            inst.to_bench(),
        )
        for inst in instances
    ]
    outcomes = run_tools_sharded(pairs, timeout=timeout, jobs=jobs)
    report = score(
        benchmark.name, instances, [o.verdict for o in outcomes]
    )
    if shrink:
        by_id = {inst.id: inst for inst in instances}
        for violation in report.violations:
            inst = by_id[violation.instance_id]
            try:
                minimized = minimize_violation(
                    inst, violation.predicted, store=store
                )
            except Exception as exc:  # reproducer is best-effort
                minimized = f"// minimization failed: {exc!r}"
            disagreements.append(
                Disagreement(
                    inst.id,
                    "verdict",
                    f"tool says {violation.predicted} but ground truth "
                    f"is {violation.label}",
                    inst.origin,
                    minimized,
                )
            )
    return CorpusResult(
        benchmark=benchmark.name,
        instances=instances,
        outcomes=outcomes,
        report=report,
        disagreements=disagreements,
    )
