"""Fig. 10- and Fig. 11-shaped result tables, plus solver statistics.

``fig10_table`` runs {AProVE-like, ULTIMATE-like, HIPTNT+} over the four
benchmark categories and prints Y/N/U/T-O/time per (tool, category) --
the exact row/column structure of paper Fig. 10.  ``fig11_table`` compares
HIPTNT+ against the T2-like baseline on the loop-based integer programs of
the first three categories, mirroring paper Fig. 11 (the paper restricted
the T2 comparison to 221 loop-based programs because its C frontend could
not handle recursion or pointers).

Both tables accept ``store=`` (a persistent spec-store directory, see
``docs/store.md``): the HIPTNT+ runs then read/populate the store and an
extra ``HIPTNT+ (warm)`` row re-runs the same programs against the
now-populated store -- the cold-vs-warm comparison, with store
hit/miss/invalidation counters on the ``↳ solver`` summary lines.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.baselines import (
    AProVELikeAnalyzer,
    T2LikeAnalyzer,
    UltimateLikeAnalyzer,
)
from repro.bench.programs import (
    BenchProgram,
    CATEGORIES,
    all_programs,
    st_programs,
)
from repro.bench.runner import (
    BenchOutcome,
    HipTNTPlus,
    run_tools_sharded,
    tally,
    tally_solver_stats,
)


class _HipWrapper:
    """Adapter giving HipTNT+ the same analyze(program) interface.

    *name* distinguishes the cold and warm sweeps in store-enabled
    tables; *store* (a directory path, picklable) is forwarded to the
    wrapped :class:`~repro.bench.runner.HipTNTPlus`.
    """

    def __init__(self, name: str = "HIPTNT+",
                 store: Optional[str] = None) -> None:
        self.name = name
        self._main: Optional[str] = None
        self._store = store
        self.last_stats = None  # forwarded from the wrapped tool

    def bind(self, main: str) -> "_HipWrapper":
        self._main = main
        return self

    def analyze(self, program):
        assert self._main is not None
        tool = HipTNTPlus(self._main, store=self._store)
        try:
            return tool.analyze(program)
        finally:
            self.last_stats = tool.last_stats


_FIG10_TOOLS = ("AProVE-like", "ULTIMATE-like", "HIPTNT+")

#: Row label of the repeat HIPTNT+ sweep in store-enabled tables.
HIP_WARM = "HIPTNT+ (warm)"


def _make_tool(name: str, main: str, store: Optional[str] = None):
    """A fresh analyzer instance for one (tool, program) task.

    Fresh per task (rather than shared across the sweep) so a task is
    self-contained and picklable for sharded execution; the analyzers are
    stateless per run, so sequential results are unchanged.  *store*
    only affects the HIPTNT+ rows -- the baselines have no summary reuse
    to cache.
    """
    if name == "AProVE-like":
        return AProVELikeAnalyzer()
    if name == "ULTIMATE-like":
        return UltimateLikeAnalyzer()
    if name == "T2-like":
        return T2LikeAnalyzer()
    if name in ("HIPTNT+", HIP_WARM):
        return _HipWrapper(name, store=store).bind(main)
    raise KeyError(name)


def run_fig10(
    timeout: float = 60.0,
    categories: Sequence[str] = CATEGORIES,
    programs: Optional[List[BenchProgram]] = None,
    jobs: int = 1,
    store: Optional[str] = None,
) -> Dict[str, Dict[str, List[BenchOutcome]]]:
    """All Fig. 10 outcomes: tool -> category -> outcome list.

    With ``jobs > 1`` the (tool, program) runs are farmed to worker
    processes (:func:`repro.bench.runner.run_tools_sharded`); outcomes are
    slotted back by task index, so the table is deterministic and
    identical to a sequential run regardless of completion order.

    With a *store* directory, the HIPTNT+ runs read and populate the
    persistent spec store, and a second HIPTNT+ sweep (row ``HIPTNT+
    (warm)``) runs *after* the first completes -- its rows measure warm
    re-analysis against whatever the first sweep cached, the
    cold-vs-warm comparison of ``docs/store.md``.
    """
    corpus = programs if programs is not None else all_programs()
    in_scope = [b for b in corpus if b.category in categories]
    tool_names = list(_FIG10_TOOLS) + ([HIP_WARM] if store else [])
    results: Dict[str, Dict[str, List[BenchOutcome]]] = {
        name: {c: [] for c in categories} for name in tool_names
    }

    def sweep(names: Sequence[str]) -> None:
        pairs = []
        keys: List[tuple] = []
        for bench in in_scope:
            for name in names:
                pairs.append((_make_tool(name, bench.main, store), bench))
                keys.append((name, bench.category))
        outcomes = run_tools_sharded(pairs, timeout=timeout, jobs=jobs)
        for (name, category), outcome in zip(keys, outcomes):
            results[name][category].append(outcome)

    sweep(_FIG10_TOOLS)
    if store:
        # The warm sweep must start only after every cold HIPTNT+ run has
        # written back, so it is a separate sharded batch.
        sweep([HIP_WARM])
    return results


def fig10_table(
    timeout: float = 60.0,
    categories: Sequence[str] = CATEGORIES,
    programs: Optional[List[BenchProgram]] = None,
    jobs: int = 1,
    store: Optional[str] = None,
) -> str:
    """The Fig. 10 table as formatted text (plus, with *store*, a
    ``HIPTNT+ (warm)`` row re-running against the populated store)."""
    results = run_fig10(timeout=timeout, categories=categories,
                        programs=programs, jobs=jobs, store=store)
    header = f"{'Tool':<16}"
    for c in categories:
        header += f"| {c:^26} "
    header += f"| {'Total':^26}"
    sub = f"{'':<16}"
    for _ in (*categories, "total"):
        sub += f"| {'Y':>4} {'N':>4} {'U':>4} {'T/O':>4} {'Time':>6} "
    lines = [header, sub, "-" * len(sub)]
    for tool, per_cat in results.items():
        row = f"{tool:<16}"
        total: List[BenchOutcome] = []
        for c in categories:
            outcomes = per_cat[c]
            total.extend(outcomes)
            t = tally(outcomes)
            row += (
                f"| {t['Y']:>4} {t['N']:>4} {t['U']:>4} {t['T/O']:>4} "
                f"{t['time']:>6.1f} "
            )
        t = tally(total)
        row += (
            f"| {t['Y']:>4} {t['N']:>4} {t['U']:>4} {t['T/O']:>4} "
            f"{t['time']:>6.1f}"
        )
        lines.append(row)
        solver_line = _solver_summary(total)
        if solver_line:
            lines.append(solver_line)
    return "\n".join(lines)


def _solver_summary(outcomes: List[BenchOutcome]) -> str:
    """One line of aggregated solver-cache statistics, or '' when no run
    reported any (only HipTNT+ sets ``last_stats``; the baselines also do
    arithmetic, but through the default context, and report nothing)."""
    s = tally_solver_stats(outcomes)
    if not s["runs_reporting"]:
        return ""
    line = (
        f"  \u21b3 solver: {s['queries']} queries, "
        f"{100.0 * s['hit_rate']:.1f}% cache hits, "
        f"{s['evictions']} evictions, "
        f"{s['fm_eliminations']} FM eliminations"
    )
    if s["store_hits"] or s["store_misses"] or s["store_invalidations"]:
        line += (
            f"; store: {s['store_hits']} hits / {s['store_misses']} misses"
            f" / {s['store_invalidations']} invalidations"
        )
    if s["pre_quick"] or s["pre_seeded"]:
        line += (
            f"; pre: {s['pre_quick']} quick / {s['pre_seeded']} seeded"
        )
    return line


def run_st(
    timeout: float = 60.0,
    jobs: int = 1,
    store: Optional[str] = None,
) -> List[BenchOutcome]:
    """HIPTNT+ outcomes over the ST controller corpus, in corpus order.

    The programs come from ``examples/st_controllers/`` and are parsed
    through the ``st`` frontend (``BenchProgram.language``); the sweep
    itself is the plain HIPTNT+ configuration of the fig tables.
    """
    pairs = [
        (_HipWrapper("HIPTNT+", store=store).bind(bench.main), bench)
        for bench in st_programs()
    ]
    return run_tools_sharded(pairs, timeout=timeout, jobs=jobs)


def st_table(
    timeout: float = 60.0,
    jobs: int = 1,
    store: Optional[str] = None,
) -> str:
    """The labeled ST controller corpus as a per-program table.

    Unlike the aggregated fig tables this is a ground-truth check, one
    row per controller: expected vs inferred verdict and an ``ok``
    column, with a match-count footer (``matched k/n``).  Used by the
    frontend smoke CI job; callers can grep the footer for
    ``all verdicts match``.
    """
    corpus = st_programs()
    outcomes = run_st(timeout=timeout, jobs=jobs, store=store)
    lines = [
        f"{'Program':<16}{'Entry':<12}{'Expected':>9}{'Got':>5}{'Time':>8}  ok",
        "-" * 56,
    ]
    matched = 0
    for bench, outcome in zip(corpus, outcomes):
        got = "T/O" if outcome.timed_out else str(outcome.verdict)
        ok = got == str(bench.expected)
        matched += ok
        lines.append(
            f"{bench.name:<16}{bench.main:<12}{str(bench.expected):>9}"
            f"{got:>5}{outcome.seconds:>8.2f}  {'yes' if ok else 'NO'}"
        )
    verdict = (
        "all verdicts match ground truth"
        if matched == len(corpus)
        else "VERDICT MISMATCH against ground truth"
    )
    lines.append(
        f"  ↳ st-controllers: matched {matched}/{len(corpus)}; {verdict}"
    )
    return "\n".join(lines)


def run_fig11(
    timeout: float = 60.0,
    programs: Optional[List[BenchProgram]] = None,
    jobs: int = 1,
    store: Optional[str] = None,
) -> Dict[str, List[BenchOutcome]]:
    """Fig. 11 outcomes: loop-based integer programs, T2-like vs HIPTNT+.

    With a *store* directory a ``HIPTNT+ (warm)`` sweep is appended after
    the cold one, exactly as in :func:`run_fig10`.
    """
    corpus = programs if programs is not None else all_programs()
    loop_programs = [
        p
        for p in corpus
        if p.loop_based and p.category in ("crafted", "crafted-lit", "numeric")
    ]
    tool_names = ["T2-like", "HIPTNT+"] + ([HIP_WARM] if store else [])
    results: Dict[str, List[BenchOutcome]] = {n: [] for n in tool_names}

    def sweep(names: Sequence[str]) -> None:
        pairs = []
        keys: List[str] = []
        for bench in loop_programs:
            for name in names:
                pairs.append((_make_tool(name, bench.main, store), bench))
                keys.append(name)
        outcomes = run_tools_sharded(pairs, timeout=timeout, jobs=jobs)
        for name, outcome in zip(keys, outcomes):
            results[name].append(outcome)

    sweep(["T2-like", "HIPTNT+"])
    if store:
        sweep([HIP_WARM])
    return results


def fig11_table(
    timeout: float = 60.0,
    programs: Optional[List[BenchProgram]] = None,
    jobs: int = 1,
    store: Optional[str] = None,
) -> str:
    """The Fig. 11 table as formatted text (plus, with *store*, a
    ``HIPTNT+ (warm)`` row)."""
    results = run_fig11(timeout=timeout, programs=programs, jobs=jobs,
                        store=store)
    lines = [
        f"{'Tool':<16}{'Total':>6}{'Y':>5}{'N':>5}{'U':>5}{'T/O':>5}{'Time':>8}"
    ]
    for tool, outcomes in results.items():
        t = tally(outcomes)
        lines.append(
            f"{tool:<16}{len(outcomes):>6}{t['Y']:>5}{t['N']:>5}"
            f"{t['U']:>5}{t['T/O']:>5}{t['time']:>8.1f}"
        )
        solver_line = _solver_summary(outcomes)
        if solver_line:
            lines.append(solver_line)
    return "\n".join(lines)
