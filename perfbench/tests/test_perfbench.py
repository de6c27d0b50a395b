"""Tests of the benchmark's own machinery: span arithmetic, wrapper
restoration, and seed-determined inputs.  Run with ``src`` on the path:
``PYTHONPATH=src python -m pytest perfbench/tests``."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    leaf = tracer.wrap("leaf", lambda: clock.advance(2.0))

    def mid_body():
        clock.advance(1.0)
        leaf()
        clock.advance(0.5)
        leaf()

    mid = tracer.wrap("mid", mid_body)

    def outer_body():
        clock.advance(3.0)
        mid()

    tracer.wrap("outer", outer_body)()
    report = tracer.report()
    assert report["self_s"] == {"leaf": 4.0, "mid": 1.5, "outer": 3.0}
    assert report["calls"] == {"leaf": 2, "mid": 1, "outer": 1}
    assert report["roots"] == [(0.0, 8.5)]


def test_raising_span_is_recorded_and_unwinds_the_stack():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    inner = tracer.wrap("inner", boom)

    def outer_body():
        try:
            inner()
        except ValueError:
            clock.advance(0.25)

    tracer.wrap("outer", outer_body)()
    tracer.wrap("outer", lambda: clock.advance(1.0))()
    report = tracer.report()
    assert report["self_s"] == {"inner": 1.0, "outer": 1.25}
    assert report["roots"] == [(0.0, 1.25), (1.25, 2.25)]


def test_outcome_counter_and_covered_union():
    tracer = spans.Tracer()
    found = tracer.wrap("rank", lambda x: x, outcome=("found", lambda r: r is not None))
    for value in (1, None, 2):
        found(value)
    assert tracer.report()["outcomes"] == {"rank.found": 2}
    assert spans.covered([(0, 2), (1, 3), (5, 6), (9, 12)], 1, 10) == 4


def test_wrappers_are_restored_after_a_traced_run():
    points = [pt for _, pts, _ in spans.LAYERS for pt in pts]
    points += [pt for _, pt, _ in spans.COUNTERS]
    before = {}
    for module, path in points:
        owner, attr = spans._resolve(module, path)
        before[(module, path)] = vars(owner)[attr]

    tracer = spans.Tracer()
    tracer.install()
    try:
        from repro.core.pipeline import infer_source

        result = infer_source(
            "void main(int x) { while (x > 0) { x = x - 1; } }"
        )
        assert str(result.verdict("main")) == "Y"
    finally:
        tracer.uninstall()

    calls = tracer.report()["calls"]
    for layer in ("lang.parse", "core.pipeline", "arith.cube_sat"):
        assert calls[layer] >= 1
    for (module, path), original in before.items():
        owner, attr = spans._resolve(module, path)
        assert vars(owner)[attr] is original, f"{module}.{path} not restored"


def test_hd_quantile():
    assert abs(run.hd_quantile([5.0] * 40, 0.9) - 5.0) < 1e-9
    assert abs(run.hd_quantile(range(1, 102), 0.5) - 51.0) < 1e-6
    values = list(range(1, 129))
    p90 = run.hd_quantile(values, 0.9)
    assert run.hd_quantile(values, 0.5) < p90 < values[-1]
    assert abs(p90 - 0.9 * 129) < 1.0


def test_scaling_leaves_wall_limits_and_reference_time_out():
    # the reference loop ran at twice its nominal time: machine time halves
    slow = 2 * speed.NOMINAL_S
    rows = [
        {"seconds": 1.0, "verdict": "Y", "expected": "Y", "refs": [slow, slow]},
        {"seconds": 2.5, "verdict": "T/O", "expected": "N", "refs": [slow, slow]},
    ]
    batch = {"rows": rows, "start": 0.0, "end": 5.0 + 4 * slow,
             "ref_samples": [slow] * 4}
    result = {"setups": [1.0, 3.0, 2.0], "setup_scales": [0.5, 1.0, 1.0],
              "ref_samples": [slow] * 4}
    raw = run.timings(result, [batch], scaled=False)
    assert abs(raw["sweep_s"] - 5.0) < 1e-9 and raw["setup_s"] == 2.0
    scaled = run.timings(result, [batch], scaled=True)
    # 1.5 s outside the programs and 1 s of analysis halve; the T/O does not
    assert abs(scaled["sweep_s"] - (0.75 + 0.5 + 2.5)) < 1e-9
    assert scaled["setup_s"] == 2.0  # median of 0.5, 3.0 and 2.0

    service = {"rows": [{"seconds": 0.2, "verdict": "Y"}], "start": 0.0,
               "end": 3.0, "refs": [slow] * 3}
    scaled = run.timings(result, [service], scaled=True)
    assert abs(scaled["sweep_s"] - 1.5) < 1e-9
    assert abs(scaled["latency_ms_p50"] - 100.0) < 1e-9


def test_after_count_grows_with_run_time():
    assert speed.after_count(0.01) == 1
    assert speed.after_count(1.0) == 1 + int(1.0 / speed.SAMPLE_EVERY_S)
    assert speed.after_count(1e6) == speed.MAX_AFTER


def test_registry_order_is_a_function_of_the_seed():
    from repro.bench.programs import all_programs

    first = inputs.registry_order(3)
    assert first == inputs.registry_order(3)
    assert first != inputs.registry_order(4)
    assert sorted(first) == sorted(p.name for p in all_programs())


def test_corpus_order_is_a_function_of_the_seed():
    bench = inputs.corpus_benchmark(3)
    ids = [i.id for i in bench]
    assert ids == [i.id for i in inputs.corpus_benchmark(3)]
    other = [i.id for i in inputs.corpus_benchmark(4)]
    assert ids != other and sorted(ids) == sorted(other)
    slow = [i for i in bench if inputs.PARITY_LOOP.search(i.source)]
    assert len(ids) == inputs.CORPUS_FAST + inputs.CORPUS_SLOW
    assert len(slow) == inputs.CORPUS_SLOW


def test_service_stream_is_a_function_of_the_seed():
    from repro.lang.frontends import get_frontend
    from repro.serve.dedup import request_fingerprint

    stream = inputs.service_stream(3)
    assert stream == inputs.service_stream(3)
    assert [r.body for r in stream] != [r.body for r in inputs.service_stream(4)]

    kinds = [r.kind for r in stream]
    fresh = kinds.count("fresh")
    for kind, share in inputs.SERVICE_SPLIT:
        assert kinds.count(kind) == round(share * fresh / inputs.SERVICE_SPLIT[0][1])

    def fingerprint(req):
        payload = json.loads(req.body)
        program = get_frontend(payload.get("language")).parse(payload["source"])
        return request_fingerprint(program, {})

    seen = {}
    for req in stream:
        if req.kind == "fresh":
            seen[req.group] = fingerprint(req)
            continue
        assert req.group in seen, "a reuse must follow its fresh submission"
        same = fingerprint(req) == seen[req.group]
        assert same == (req.kind in ("repeat", "layout")), req
