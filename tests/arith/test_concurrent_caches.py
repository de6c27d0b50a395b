"""Long-lived-process concurrency: solver caches under concurrent
readers and cache clears, Farkas LP solves from two threads at once, and
the telemetry surface the serve daemon exposes.

These are the satellite regressions for the analysis daemon: its worker
threads hammer the shared caches while (in tooling or tests)
``clear_caches()`` may run concurrently.  The contract (documented on
:func:`repro.arith.solver.clear_caches`) is swap-clear: in-flight
readers finish against the stale-but-valid cache generation; no reader
ever observes a half-cleared structure or a wrong answer."""

import sys
import threading

from repro.arith.formula import atom_ge, atom_le, atom_lt, conj, disj
from repro.arith.context import SolverContext
from repro.arith.solver import cache_telemetry, clear_caches
from repro.arith.terms import LinExpr, var

x, y = var("x"), var("y")

#: (formula, expected satisfiability) -- a mix that exercises the DNF
#: memo, the FM memo, and the context sat cache.
CASES = [
    (conj(atom_ge(x, 0), atom_le(x, 10)), True),
    (conj(atom_ge(x, 1), atom_le(x, 0)), False),
    (conj(atom_lt(x, y), atom_lt(y, x)), False),
    (disj(conj(atom_ge(x, 5), atom_le(x, 3)), atom_ge(y, 0)), True),
    (conj(atom_le(x.scale(2), 1), atom_ge(x.scale(2), 1)), False),
]


class TestConcurrentClear:
    def test_readers_survive_concurrent_clears(self):
        """8 reader threads querying in a loop while the main thread
        clears all caches repeatedly: every answer stays correct and no
        thread dies."""
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                # a fresh context per sweep, as each SCC of a daemon
                # request gets, so every sweep reaches the process-wide
                # memos that the clears swap out
                ctx = SolverContext()
                for formula, expected in CASES:
                    try:
                        got = ctx.is_sat(formula)
                    except Exception as exc:  # noqa: BLE001
                        failures.append(repr(exc))
                        return
                    if got is not expected:
                        failures.append(f"{formula}: {got} != {expected}")
                        return

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        try:
            for _ in range(200):
                clear_caches()
        finally:
            stop.set()
            for t in threads:
                t.join(30.0)
        assert not failures, failures[:5]

    def test_concurrent_clears_do_not_interleave(self):
        """clear_caches() from many threads at once is serialized (the
        _CLEAR_LOCK): no exceptions, caches empty afterwards."""
        barrier = threading.Barrier(6)
        failures = []

        def clearer():
            barrier.wait()
            try:
                for _ in range(50):
                    clear_caches()
            except Exception as exc:  # noqa: BLE001
                failures.append(repr(exc))

        threads = [threading.Thread(target=clearer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not failures


class TestConcurrentInterning:
    def test_threads_building_the_same_nodes_get_the_same_objects(self):
        """Four threads build the same never-seen terms, atoms and
        conjunctions at once, switching as often as the interpreter
        allows: every thread gets the same objects."""
        workers, n = 4, 300
        for r in range(3):
            barrier = threading.Barrier(workers)
            built = [None] * workers

            def build(slot, r=r):
                barrier.wait()
                out = []
                for i in range(n):
                    e = LinExpr({f"intern{r}_{i}": 1, "intern_y": i % 5 + 1}, i)
                    le = atom_le(e, 0)
                    out.append((e, le, conj(le, atom_ge(var("intern_y"), i))))
                built[slot] = out

            threads = [threading.Thread(target=build, args=(k,))
                       for k in range(workers)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            for other in built[1:]:
                for mine, theirs in zip(built[0], other):
                    assert all(a is b for a, b in zip(mine, theirs)), mine


class TestConcurrentLPSolves:
    def test_two_threads_solving_get_the_sequential_answers(self):
        """The daemon's two analysis threads solve Farkas LPs at once:
        each solve owns its HiGHS instance, and the shared options object
        is only read, so every answer equals the sequential one."""
        from lp_traffic import registry_lps

        from repro.arith import farkas

        def options():
            return [getattr(farkas._OPTIONS, name)
                    for name in ("presolve", "simplex_strategy", "output_flag")]

        lps = registry_lps()
        expected = [c.lp.solve(c.objective, c.bound) for c in lps]
        before = options()
        barrier = threading.Barrier(2)
        results = {}

        def solver(key, order):
            barrier.wait()
            results[key] = {i: lps[i].lp.solve(lps[i].objective, lps[i].bound)
                            for i in order}

        order = list(range(len(lps)))
        threads = [
            threading.Thread(target=solver, args=("forward", order)),
            threading.Thread(target=solver, args=("backward", order[::-1])),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for key in ("forward", "backward"):
            assert [results[key][i] for i in order] == expected, key
        assert options() == before


class TestTelemetry:
    def test_cache_telemetry_shape(self, ctx):
        for formula, _ in CASES:
            ctx.is_sat(formula)
        telemetry = cache_telemetry()
        assert set(telemetry) == {"dnf", "fm", "interned_formulas"}
        assert telemetry["interned_formulas"] > 0
