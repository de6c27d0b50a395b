"""Long-lived-process concurrency: solver caches under concurrent
readers and cache clears, the thread-safe default context, and the
telemetry surface the serve daemon exposes.

These are the satellite regressions for the analysis daemon: its worker
threads hammer the shared caches while (in tooling or tests)
``clear_caches()`` may run concurrently.  The contract (documented on
:func:`repro.arith.solver.clear_caches`) is swap-clear: in-flight
readers finish against the stale-but-valid cache generation; no reader
ever observes a half-cleared structure or a wrong answer."""

import threading

from repro.arith.formula import atom_ge, atom_le, atom_lt, conj, disj
from repro.arith.solver import cache_telemetry, clear_caches, is_sat
from repro.arith.terms import var

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
                for formula, expected in CASES:
                    try:
                        got = is_sat(formula)
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


class TestDefaultContextRace:
    def test_single_instance_under_concurrent_first_use(self):
        """default_context() double-checked locking: N threads racing the
        first call all get the same instance."""
        import repro.arith.context as context_module

        with context_module._DEFAULT_CONTEXT_LOCK:
            saved = context_module._DEFAULT_CONTEXT
            context_module._DEFAULT_CONTEXT = None
        try:
            barrier = threading.Barrier(8)
            seen = []

            def grab():
                barrier.wait()
                seen.append(context_module.default_context())

            threads = [threading.Thread(target=grab) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10.0)
            assert len(seen) == 8
            assert len({id(ctx) for ctx in seen}) == 1
        finally:
            with context_module._DEFAULT_CONTEXT_LOCK:
                context_module._DEFAULT_CONTEXT = saved


class TestTelemetry:
    def test_cache_telemetry_shape(self):
        for formula, _ in CASES:
            is_sat(formula)
        telemetry = cache_telemetry()
        assert set(telemetry) == {
            "default_context", "dnf", "fm", "interned_formulas",
        }
        assert telemetry["interned_formulas"] > 0
        assert telemetry["default_context"]["sat"] >= 1
