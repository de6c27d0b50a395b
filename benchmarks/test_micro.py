"""Micro-benchmarks of the analysis primitives.

Not a paper table; these time the substrate pieces (entailment, ranking
synthesis, full worked-example inference) so performance regressions in
the core are visible independently of the Fig. 10/11 sweeps.

The ``perf_guard``-marked test is a functional cache-regression guard: it
runs the same workload twice against one :class:`SolverContext` and
asserts the warm run performs strictly fewer raw Fourier-Motzkin
eliminations than the cold run, so a broken cache (e.g. one that silently
stops admitting entries) fails tier-1 instead of only showing up as a
slowdown.
"""

import pytest

from repro.arith.context import SolverContext
from repro.arith.formula import atom_eq, atom_ge, atom_lt, conj
from repro.arith.solver import clear_caches
from repro.arith.terms import var
from repro.core import infer_source
from repro.core.ranking import RankSynthesizer
from repro.core.reachgraph import Edge

FOO = """
void foo(int x, int y)
{ if (x < 0) { return; } else { foo(x + y, y); return; } }
"""

GCD = """
int gcd(int a, int b)
  requires a > 0 && b > 0 ensures res > 0;
{
  if (a == b) { return a; }
  else { if (a > b) { return gcd(a - b, b); }
         else { return gcd(a, b - a); } }
}
"""

x, y = var("x"), var("y")


def test_bench_entailment(benchmark):
    pre = conj(
        atom_ge(x, 0), atom_lt(y, 0),
        atom_eq(var("x'"), x + y), atom_eq(var("y'"), y),
    )
    goal = atom_lt(var("x'"), x)

    def run():
        clear_caches()
        return SolverContext().entails(pre, goal)

    assert benchmark(run)


def test_bench_sat_disjunctive(benchmark):
    from repro.arith.formula import disj

    f = conj(
        disj(atom_ge(x, 0), atom_lt(x, -5)),
        disj(atom_ge(y, 3), atom_lt(y, 0)),
        atom_eq(var("z"), x + y),
    )

    def run():
        clear_caches()
        return SolverContext().is_sat(f)

    assert benchmark(run)


def test_bench_ranking_synthesis(benchmark):
    pre = conj(
        atom_ge(x, 0), atom_lt(y, 0),
        atom_eq(var("x'"), x + y), atom_eq(var("y'"), y),
        atom_ge(var("x'"), 0),
    )
    edge = Edge("U", "U", pre, ("x", "y"), ("x'", "y'"))
    ctx = SolverContext()

    def run():
        s = RankSynthesizer({"U": ("x", "y")}, ctx)
        return s.synthesize_linear(["U"], [edge])

    assert benchmark(run) is not None


def test_bench_full_foo_inference(benchmark):
    def run():
        clear_caches()
        return infer_source(FOO)

    result = benchmark(run)
    assert len(result.specs["foo"].cases) == 3


def test_bench_full_gcd_inference(benchmark):
    def run():
        clear_caches()
        return infer_source(GCD)

    result = benchmark(run)
    assert result.specs["gcd"] is not None


# ---------------------------------------------------------------------------
# Warm-context benchmarks and the cache-regression guard
# ---------------------------------------------------------------------------

def _guard_workload(ctx):
    """A batch of entailment/sat queries shaped like the inference's VCs
    (distinct variable names keep it out of other tests' cache entries)."""
    a, b, a2, b2 = var("pg_a"), var("pg_b"), var("pg_a'"), var("pg_b'")
    answers = []
    for k in range(6):
        step = conj(
            atom_ge(a, k), atom_ge(b, 1),
            atom_eq(a2, a - b), atom_eq(b2, b),
        )
        answers.append(ctx.entails(step, atom_lt(a2, a)))
        answers.append(ctx.is_sat(conj(step, atom_ge(a2, k))))
        answers.append(ctx.is_sat(conj(step, atom_lt(a2, -10 - k))))
    return answers


def test_bench_warm_context_entailment(benchmark):
    """The warm-context fast path: repeated queries against one shared
    context are answered from its caches (compare with
    test_bench_entailment, which clears all caches per round)."""
    ctx = SolverContext()
    _guard_workload(ctx)  # prime

    def run():
        return _guard_workload(ctx)

    assert benchmark(run)


# ---------------------------------------------------------------------------
# FM cube satisfiability micro benchmarks
# ---------------------------------------------------------------------------


def _micro_cubes():
    """A deterministic batch of ~60 raw-atom cubes over four variables,
    mixing satisfiable and contradictory systems (seeded, so every run
    times the identical workload)."""
    import random

    from fractions import Fraction

    from repro.arith.formula import Atom, Rel
    from repro.arith.terms import LinExpr

    rng = random.Random(7)
    names = ["m", "n", "p", "q"]
    cubes = []
    for _ in range(60):
        atoms = []
        for _ in range(rng.randint(3, 7)):
            coeffs = {
                v: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
                for v in rng.sample(names, rng.randint(1, 3))
            }
            rel = Rel.LT if rng.random() < 0.2 else Rel.LE
            atoms.append(
                Atom(LinExpr(coeffs, Fraction(rng.randint(-6, 6))), rel)
            )
        cubes.append(atoms)
    return cubes


def _dense_cubes():
    """Three dense 18-atom cubes over five variables: the quadratic FM
    pairing dominates here (the small-cube workload above is
    overhead-bound)."""
    import random

    from fractions import Fraction

    from repro.arith.formula import Atom, Rel
    from repro.arith.terms import LinExpr

    rng = random.Random(3)
    names = [f"v{i}" for i in range(5)]
    cubes = []
    for _ in range(3):
        atoms = []
        for _ in range(18):
            coeffs = {
                v: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
                for v in rng.sample(names, rng.randint(2, 3))
            }
            atoms.append(
                Atom(LinExpr(coeffs, Fraction(rng.randint(-8, 8))), Rel.LE)
            )
        cubes.append(atoms)
    return cubes


def _bench_cold_cube_sat(benchmark, cubes):
    from repro.arith import fm

    def run():
        fm.clear_fm_caches()
        return [fm.cube_is_sat(c) for c in cubes]

    got = benchmark(run)
    fm.clear_fm_caches()
    assert got == [fm._cube_is_sat(c) for c in cubes]
    return got


def test_bench_fm_cube_sat(benchmark):
    got = _bench_cold_cube_sat(benchmark, _micro_cubes())
    assert True in got and False in got  # both outcomes are exercised


def test_bench_fm_dense_cube_sat(benchmark):
    _bench_cold_cube_sat(benchmark, _dense_cubes())


# ---------------------------------------------------------------------------
# Elimination-ordering perf guard
# ---------------------------------------------------------------------------

# A cube (found by randomized search, then frozen) where ranking all
# variables up front against the *original* atoms -- the historical
# ``_elimination_order`` behaviour -- steers the quadratic FM pairing into
# roughly twice the work of the interleaved cheapest-first heuristic.
_STALE_PESSIMAL_CUBE = [
    {"b": 2, "c": -1, "d": -1, "": -4},
    {"a": -2, "b": -1, "": -2},
    {"b": 1, "c": 1, "": -2},
    {"a": 2, "c": -2, "d": 2, "": 2},
    {"a": -2, "b": 1, "d": 1, "": -1},
    {"a": 1, "": -4},
    {"b": 1, "c": 1, "d": -2, "": -4},
    {"a": 2, "b": -1, "c": 1, "": -1},
    {"a": 2, "c": 1, "d": 2, "": -2},
]


def _stale_order_eliminate(rows, targets):
    """Replay of the pre-fix ordering: every variable is scored once
    against the ORIGINAL rows (greedy re-selection over a never-updated
    ``current``), then eliminated in that fixed order."""
    from repro.arith import fm

    order = sorted(
        targets,
        key=lambda i: (
            (lambda lo, up, _r: len(lo) * len(up))(*fm._partition(rows, i)),
            i,
        ),
    )
    current = list(rows)
    for i in order:
        current = fm._eliminate_var(current, i)
    return current


@pytest.mark.perf_guard
def test_perf_guard_interleaved_ordering_beats_stale_ordering():
    """Ordering-regression guard for :func:`fm._eliminate_all`.

    The cheapest-first heuristic must be re-scored against the current
    (partially eliminated) rows each round.  The historical bug ranked all
    variables once against the original cube; on this fixture that stale
    order does about twice the elimination work.  If the interleaving
    regresses, the work counts converge and this fails."""
    from fractions import Fraction

    from repro.arith import fm
    from repro.arith.formula import Atom, Rel
    from repro.arith.terms import LinExpr

    atoms = [
        Atom(
            LinExpr(
                {k: Fraction(v) for k, v in row.items() if k},
                Fraction(row[""]),
            ),
            Rel.LE,
        )
        for row in _STALE_PESSIMAL_CUBE
    ]
    names, cons = fm._rows(atoms)
    assert names == ["a", "b", "c", "d"]
    rows = [(row, False) for row, _ in cons]
    targets = set(range(len(names)))

    before = fm.elimination_count()
    interleaved_out = fm._eliminate_all(list(rows), set(targets))
    interleaved = fm.elimination_count() - before

    before = fm.elimination_count()
    stale_out = _stale_order_eliminate(rows, targets)
    stale = fm.elimination_count() - before

    # Both orders are sound projections: here both reach the same (empty,
    # satisfiable) residue -- only the work to get there differs.
    assert interleaved_out == stale_out == []
    assert interleaved > 0 and stale > 0
    assert interleaved < stale, (
        f"interleaved ordering did {interleaved} FM work units vs "
        f"{stale} for the stale up-front ordering: the cheapest-first "
        "re-scoring has regressed"
    )


@pytest.mark.perf_guard
def test_perf_guard_fm_builds_no_intermediate_linexpr(monkeypatch):
    """Allocation guard for the integer-row FM engine.

    A real FM run works on integer rows from the cube's conversion on, so
    it constructs no :class:`LinExpr` at all, even when it substitutes by
    an equality whose pivot coefficient is not a unit and eliminates
    several variables.  A projection builds at most one per atom it
    returns.  An engine that round-trips intermediate constraints through
    interned expressions fails this."""
    from repro.arith import fm
    from repro.arith.formula import atom_eq, atom_le
    from repro.arith.terms import LinExpr

    a, b, c, d = (var(n) for n in "abcd")
    cube = [
        atom_eq(a.scale(3) + b.scale(2), c.scale(-2) + 7),
        atom_le(b - c, 4), atom_le(c.scale(2) - d, 1), atom_le(d, a + 3),
        atom_le(-d, 5), atom_le(a - b, 2), atom_le(b + d, 9),
    ]
    made = []
    real_new = LinExpr.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(LinExpr, "__new__", staticmethod(counting_new))
    before = fm.elimination_count()
    assert fm._cube_is_sat(cube) is True
    assert fm.elimination_count() - before > len(cube)
    assert made == []
    for keep in ({"a"}, {"a", "d"}, {"b", "c", "d"}):
        made.clear()
        projected = fm.project_cube(cube, keep=keep)
        assert projected and len(made) <= len(projected)


@pytest.mark.perf_guard
def test_perf_guard_farkas_rows_intern_no_linexpr():
    """Counted, not timed: the Farkas encoding builds its LP rows as plain
    dicts, so encoding an implication over a cube interns no
    :class:`LinExpr`, however many dimensions and multipliers it has."""
    from repro.arith.farkas import LPProblem, add_implication
    from repro.arith.formula import atom_eq, atom_le
    from repro.arith.terms import LinExpr

    a, b, c = (var(n) for n in "abc")
    cube = [
        atom_le(a.scale(2) - b, 3), atom_le(b + c, 5),
        atom_eq(a - c, 1), atom_le(-a, 0),
    ]
    target = {"a": ({"t.a": 1}, 0), "b": ({"t.b": -1}, 2)}
    before = len(LinExpr._intern)
    lp = LPProblem()
    add_implication(lp, cube, ["a", "b", "c"], target, ({"t.0": 1}, -1), "g")
    assert len(lp.variables) == 8  # 5 multipliers, 3 template unknowns
    assert len(LinExpr._intern) == before


@pytest.mark.perf_guard
def test_perf_guard_warm_context_fewer_fm_eliminations():
    """Cache-regression guard: a second (warm-context) run of the same
    workload must issue strictly fewer raw FM eliminations than the first.

    If context caching regresses (entries silently stop being admitted,
    keys stop matching after interning changes, ...), the warm run redoes
    the eliminations and this fails fast in tier-1."""
    clear_caches()
    ctx = SolverContext()

    cold_answers = _guard_workload(ctx)
    cold = ctx.stats.fm_eliminations
    assert cold > 0, "workload is expected to exercise raw FM elimination"

    warm_answers = _guard_workload(ctx)
    warm = ctx.stats.fm_eliminations - cold

    assert warm_answers == cold_answers
    assert warm < cold, (
        f"warm-context run did {warm} FM eliminations, cold run did {cold}: "
        "the solver context caches are not being reused"
    )
    # The warm run should in fact be answered entirely from the caches.
    assert warm == 0
    assert ctx.stats.hits > 0


# ---------------------------------------------------------------------------
# Tail-program guard: the refutation in front of FM
# ---------------------------------------------------------------------------

#: Ceilings, about twice what the bounds pre-pass plus the pruned cube
#: enumeration leave, as ``(FM work units, bounds_unsat)``.  The work
#: units are 25,711 and 6,615 (eager DNF expansion with FM on every cube
#: did 647,155 and 153,800).  ``bounds_unsat`` is 5,252 and 155: the
#: walk hands ``fm.cube_is_sat`` no leaf its pre-pass refutes, so only
#: ``simplify`` and assumption-prefix checks count there.  Without the
#: walk's pruning the FM work is the same but ``bounds_unsat`` is 40,707
#: and 43,226, since every pruned leaf is then refuted in the pre-pass.
_TAIL_CEILINGS = (
    ("even-gap", 60_000, 10_500),
    ("ackermann-spec", 15_000, 310),
)


@pytest.mark.perf_guard
@pytest.mark.parametrize("name,fm_ceiling,refuted_ceiling", _TAIL_CEILINGS)
def test_perf_guard_tail_programs_fm_work(name, fm_ceiling, refuted_ceiling):
    """The registry's two cube-heavy tail programs answer N at the default
    budget with bounded work, counted deterministically rather than
    timed.  If the pre-pass stops refuting, the FM work units climb back
    towards the eager figures; if the enumeration stops pruning, the
    pruned leaves reach ``fm.cube_is_sat`` and ``bounds_unsat`` climbs."""
    from repro.arith import fm
    from repro.bench.programs import by_name
    from repro.core.pipeline import Verdict, infer_program

    clear_caches()
    bench = by_name(name)
    result = infer_program(bench.program())
    assert result.verdict(bench.main) is Verdict.NONTERMINATING
    work = fm.fm_cache_stats()
    assert result.solver_stats.fm_eliminations <= work["eliminations"]
    assert work["eliminations"] <= fm_ceiling, (
        f"{name}: {work['eliminations']} FM work units, ceiling {fm_ceiling}"
    )
    assert 0 < work["bounds_unsat"] <= refuted_ceiling, (
        f"{name}: {work['bounds_unsat']} cubes refuted by the pre-pass, "
        f"ceiling {refuted_ceiling}"
    )


# ---------------------------------------------------------------------------
# Cold-start guard: the collector skips the import graph
# ---------------------------------------------------------------------------

#: After the one-time freeze, the cold start's full collection walks only
#: what analyses allocated (under 1k objects); without it, the scipy/numpy
#: import graph alone is ~71k tracked objects.
_COLD_START_TRACKED_CEILING = 5_000


@pytest.mark.perf_guard
def test_perf_guard_cold_start_collects_only_the_analysis_heap():
    """Counted, not timed: run in a fresh interpreter, since the freeze is
    once per process and pytest's history would decide it."""
    import pathlib
    import subprocess
    import sys

    repo = pathlib.Path(__file__).resolve().parents[1]
    script = (
        "import gc\n"
        "from repro.bench.programs import by_name\n"
        "from repro.bench.runner import HipTNTPlus, _cold_start, run_tool\n"
        "for name in ('foo-paper', 'mccarthy91-spec'):\n"
        "    bench = by_name(name)\n"
        "    run_tool(HipTNTPlus(bench.main), bench)\n"
        "_cold_start()\n"
        "print(len(gc.get_objects()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        cwd=repo, timeout=300,
        env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    tracked = int(proc.stdout)
    assert tracked < _COLD_START_TRACKED_CEILING, (
        f"{tracked} objects tracked after cold start: the import graph "
        "is no longer frozen out of the collection"
    )
