"""Seeded workload inputs: every function here is a pure function of the seed.

The program under test only ever sees what these functions generate:
a permutation of the labeled registry (``registry``), a generated corpus
with a fixed composition (``corpus-gen``) and a stream of ``POST /analyze``
bodies (``service-mix``).  README.md records why each was chosen.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
from typing import List, Optional

#: Per-program wall limit on ``registry``.  The three tail programs need
#: at least 6 s (``even-gap``), 13 s (``ackermann-spec``) and over 15 s
#: (``offset-trap``), so they end T/O on every pass; every other program
#: answers within 0.8 s untraced, a margin of 3x at this limit.
REGISTRY_WALL_LIMIT = 2.5
#: The registry's three tail programs (~90% of a full-budget sweep).
TAILS = ("even-gap", "ackermann-spec", "offset-trap")

#: ``corpus-gen`` composition: the first ``CORPUS_FAST`` instances of the
#: generator's pool without a parity-stuck loop and the first
#: ``CORPUS_SLOW`` with exactly one.  Each such loop costs ~5 s and a fixed
#: amount of FM work, so a free draw would make run time a binomial of the
#: pool.  The pool's generator seed is fixed: redrawing the corpus per run
#: seed moved per-program latency percentiles by 13-28% (see README.md);
#: the run seed permutes the order.
CORPUS_GENERATOR_SEED = "perfbench"
CORPUS_POOL = 200
CORPUS_FAST = 50
CORPUS_SLOW = 1
#: Per-program wall limit on ``corpus-gen``: 3x the slow instance's time.
CORPUS_WALL_LIMIT = 15.0
#: The generator's parity-stuck loop, as its pretty-printer emits it.
PARITY_LOOP = re.compile(r"(d\d+) = \(\1 - 2\);")

#: Registry programs kept out of ``service-mix`` besides the tails:
#: ``lcm-style`` leaks a MemoryError (HTTP 500), and the others cost far
#: more in a warm daemon than cold, by an amount that depends on what was
#: analysed before (ROADMAP item 3): ``sqrt-count`` runs to its 15 s
#: per-SCC budget twice, the rest take 1.4-4x their cold time.  With
#: them, the service figures were a function of request order.
SERVICE_EXCLUDED = TAILS + (
    "lcm-style", "sqrt-count", "simple-phase-flag", "bounded-wander",
    "mc91-no-spec",
)
#: ``service-mix`` split: 50/20/10/20 of the stream.  With 30% of requests
#: answered from the dedup cache, latency p50 falls inside the cluster of
#: analyses.  Cache hits take 2-15 ms depending on whether an analysis
#: holds the interpreter lock meanwhile; at 40/30/15/15 and 30/40/20/10
#: p50 sat in that mixture and moved by 22% from seed to seed.
SERVICE_SPLIT = (("fresh", 5), ("repeat", 2), ("layout", 1), ("edit", 2))
#: Each eligible program is submitted fresh this many times per pass
#: (under new method names each time).
SERVICE_CYCLES = 2


def registry_order(seed: int) -> List[str]:
    """All registry program names, permuted by *seed*."""
    from repro.bench.programs import all_programs

    names = [p.name for p in all_programs()]
    random.Random(f"perfbench-registry:{seed}").shuffle(names)
    return names


def corpus_benchmark(seed: int):
    """The ``corpus-gen`` corpus, in *seed*'s order, as a ``repro.corpus``
    benchmark."""
    from repro.corpus.benchmark import Benchmark
    from repro.corpus.generate import GeneratedBenchmark

    class Selected(Benchmark):
        def __init__(self, name, instances):
            super().__init__(name)
            self._instances = instances

    pool = GeneratedBenchmark(CORPUS_POOL, seed=CORPUS_GENERATOR_SEED)
    fast = [i for i in pool if not PARITY_LOOP.search(i.source)][:CORPUS_FAST]
    slow = [i for i in pool if len(PARITY_LOOP.findall(i.source)) == 1][:CORPUS_SLOW]
    chosen = fast + slow
    random.Random(f"perfbench-corpus:{seed}").shuffle(chosen)
    return Selected(f"corpus-gen(seed={seed})", chosen)


@dataclasses.dataclass(frozen=True)
class Request:
    """One ``POST /analyze`` of the ``service-mix`` stream."""

    kind: str  # fresh | repeat | layout | edit
    body: bytes
    group: int  # index of the fresh submission this request derives from
    program: str  # registry name
    language: str
    entry: str  # method whose verdict is checked
    expected: str  # "Y" or "N"


def _rename(source: str, methods, suffix: str) -> str:
    for name in methods:
        source = re.sub(rf"\b{re.escape(name)}\b", name + suffix, source)
    return source


def _edit(source: str, entry: str, pad: int) -> str:
    """*source* with a dead local declared first in *entry*'s body: the
    verdict is unchanged, and only the entry method's SCC gets a new key."""
    from repro.lang import parse_program
    from repro.lang.ast import INT, IntLit, Program, VarDecl, seq
    from repro.lang.pretty import pretty_program

    program = parse_program(source)
    method = program.methods[entry]
    body = seq(VarDecl(INT, f"zpad{pad}", IntLit(pad)), method.body)
    methods = dict(program.methods)
    methods[entry] = dataclasses.replace(method, body=body)
    return pretty_program(Program(data_decls=program.data_decls, methods=methods)) + "\n"


def _body(source: str, language: str) -> bytes:
    payload = {"source": source}
    if language != "native":
        payload["language"] = language
    return json.dumps(payload, sort_keys=True).encode()


def service_stream(seed: int) -> List[Request]:
    """The ``service-mix`` request stream for *seed*.

    Every eligible registry program is submitted fresh
    :data:`SERVICE_CYCLES` times (its methods renamed, so each fresh body
    is new to the store), so only the order, and which earlier submission
    a repeat, layout change or edit reuses, depend on the seed.  Kinds
    follow :data:`SERVICE_SPLIT` in a seeded shuffle; a reuse that comes
    before any submission it could reuse waits until the next fresh one.
    """
    from repro.bench.programs import all_programs
    from repro.lang.frontends import get_frontend

    rng = random.Random(f"perfbench-service:{seed}")
    programs = [
        p for p in all_programs()
        if p.builder is None and p.name not in SERVICE_EXCLUDED
    ]
    programs = [
        p for _ in range(SERVICE_CYCLES)
        for p in rng.sample(programs, len(programs))
    ]
    per_fresh = len(programs) / SERVICE_SPLIT[0][1]
    kinds = [
        kind for kind, n in SERVICE_SPLIT for _ in range(round(n * per_fresh))
    ]
    rng.shuffle(kinds)

    fresh: List[Request] = []
    sources: List[str] = []
    out: List[Request] = []
    pending: List[str] = []

    def reuse(kind: str) -> Optional[Request]:
        # edits parse and pretty-print natively, so they reuse native programs
        candidates = [
            r for r in fresh if kind != "edit" or r.language == "native"
        ]
        if not candidates:
            return None
        base = rng.choice(candidates)
        if kind == "repeat":
            return dataclasses.replace(base, kind=kind)
        source = sources[base.group]
        if kind == "layout":
            source = "\n" + source.replace("\n", "\n\n")
        else:
            source = _edit(source, base.entry, len(out))
        return dataclasses.replace(
            base, kind=kind, body=_body(source, base.language)
        )

    next_program = iter(programs)
    for kind in kinds:
        if kind != "fresh":
            req = reuse(kind)
            if req is None:
                pending.append(kind)
            else:
                out.append(req)
            continue
        bench = next(next_program)
        methods = sorted(get_frontend(bench.language).parse(bench.source).methods)
        suffix = f"_v{len(fresh)}"
        source = _rename(bench.source, methods, suffix)
        req = Request(
            kind="fresh", body=_body(source, bench.language), group=len(fresh),
            program=bench.name, language=bench.language,
            entry=bench.main + suffix, expected=bench.expected.value,
        )
        fresh.append(req)
        sources.append(source)
        out.append(req)
        still = []
        for waiting in pending:
            ready = reuse(waiting)
            if ready is None:
                still.append(waiting)
            else:
                out.append(ready)
        pending = still
    if pending:
        raise ValueError(f"seed {seed}: unplaced requests {pending}")
    return out
