"""End-to-end daemon tests over real sockets: routing, dedup under
genuine concurrency, resident-cache warm-up, error mapping.

All tests drive :class:`repro.serve.server.AnalysisService` with a
minimal asyncio HTTP client on the same event loop -- connections are
truly concurrent (the analyses run in worker threads), with no external
HTTP dependencies."""

import asyncio
import json
import time

from repro.lang.parser import parse_program
from repro.serve.dedup import CachedResponse, request_fingerprint
from repro.serve.server import AnalysisService, ServiceConfig
from repro.store.specstore import SpecStore

#: A fig.11-style micro benchmark: structurally decreasing recursion,
#: provably terminating -- small enough that a cold analysis is fast,
#: real enough that it exercises the full pipeline.
MICRO = """
int dec(int n) { if (n <= 0) { return 0; } else { return dec(n - 1); } }
"""

MICRO_REFORMATTED = """
int dec(int n)
{
    if (n <= 0) {
        return 0;
    } else {
        return dec(n - 1);
    }
}
"""


async def request(port, method, path, body=None):
    """One HTTP/1.1 exchange against localhost:*port*; returns
    ``(status, headers, body_bytes)``."""
    payload = b"" if body is None else json.dumps(body).encode()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    response_body = await reader.readexactly(int(headers["content-length"]))
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass
    return status, headers, response_body


async def analyze(port, source, **knobs):
    return await request(port, "POST", "/analyze",
                         {"source": source, **knobs})


def run(coro):
    return asyncio.run(coro)


async def started(config=None):
    service = AnalysisService(config or ServiceConfig(port=0, workers=2))
    _, port = await service.start()
    return service, port


class TestRoutes:
    def test_healthz_stats_schema_and_errors(self):
        async def scenario():
            service, port = await started()
            try:
                status, _, body = await request(port, "GET", "/healthz")
                assert status == 200
                assert json.loads(body)["status"] == "ok"

                status, _, body = await request(port, "GET", "/schema")
                assert status == 200
                schema = json.loads(body)["analyze_request"]
                assert schema["required"] == ["source"]

                status, _, body = await request(port, "GET", "/stats")
                assert status == 200
                stats = json.loads(body)
                assert stats["dedup"]["leaders"] == 0
                assert set(stats["caches"]) >= {
                    "default_context", "dnf", "fm", "interned_formulas",
                }

                status, _, _ = await request(port, "GET", "/nope")
                assert status == 404
                status, headers, _ = await request(port, "GET", "/analyze")
                assert status == 405
                assert headers["allow"] == "POST"
            finally:
                await service.shutdown()
        run(scenario())

    def test_analyze_error_mapping(self):
        async def scenario():
            service, port = await started()
            try:
                status, _, body = await analyze(port, "", max_iter=0)
                assert status == 400
                assert json.loads(body)["error"] == "invalid-request"

                status, _, body = await analyze(port, "int f( {{{")
                assert status == 400
                payload = json.loads(body)
                assert payload["error"] == "parse-error"
                # satellite of the frontends PR: parse failures are
                # structured 400s carrying position-bearing diagnostics
                assert any("line 1" in d for d in payload["diagnostics"])

                # lexer failures must map the same way, not fall through
                # to a 500 internal error
                status, _, body = await analyze(port, "int f() { $ }")
                assert status == 400
                payload = json.loads(body)
                assert payload["error"] == "parse-error"
                assert any("unexpected character" in d
                           for d in payload["diagnostics"])

                # the removed engine knob is an unknown field like any other
                status, _, body = await analyze(port, MICRO, backend="matrix")
                assert status == 400
                payload = json.loads(body)
                assert payload["error"] == "invalid-request"
                assert payload["diagnostics"] == ["unknown field(s): backend"]

                status, _, body = await request(port, "POST", "/analyze")
                assert status == 400  # empty body is not JSON
            finally:
                await service.shutdown()
        run(scenario())

    def test_oversized_body_rejected(self):
        async def scenario():
            service, port = await started(
                ServiceConfig(port=0, workers=1, max_body_bytes=64)
            )
            try:
                status, _, body = await analyze(port, "x" * 128)
                assert status == 413
                assert json.loads(body)["error"] == "too-large"
            finally:
                await service.shutdown()
        run(scenario())


class TestDedup:
    def test_sequential_repeat_is_a_cache_hit(self):
        async def scenario():
            service, port = await started()
            try:
                status, headers, body = await analyze(port, MICRO)
                assert status == 200
                assert headers["x-repro-dedup"] == "leader"
                assert json.loads(body)["verdicts"] == {"dec": "Y"}

                status, headers, repeat = await analyze(port, MICRO)
                assert status == 200
                assert headers["x-repro-dedup"] == "hit"
                assert repeat == body  # byte-identical
                assert service.dedup.stats()["hits"] == 1
                assert service.analyses.started == 1
            finally:
                await service.shutdown()
        run(scenario())

    def test_reformatted_source_shares_the_analysis(self):
        """Near-identical (layout-only edit) submissions dedup: the
        fingerprint is structural, not textual."""
        async def scenario():
            service, port = await started()
            try:
                _, _, body = await analyze(port, MICRO)
                status, headers, variant = await analyze(
                    port, MICRO_REFORMATTED
                )
                assert status == 200
                assert headers["x-repro-dedup"] == "hit"
                assert variant == body
                assert service.analyses.started == 1
            finally:
                await service.shutdown()
        run(scenario())

    def test_fifty_concurrent_identical_submissions(self, tmp_path):
        """The acceptance demo: 50 concurrent identical submissions cost
        exactly one analysis; the other 49 join it; every response is
        byte-identical; the store gains exactly one entry."""
        async def scenario():
            service, port = await started(ServiceConfig(
                port=0, workers=2, store=str(tmp_path / "store"),
            ))
            try:
                results = await asyncio.gather(
                    *(analyze(port, MICRO) for _ in range(50))
                )
                statuses = {status for status, _, _ in results}
                assert statuses == {200}
                bodies = {body for _, _, body in results}
                assert len(bodies) == 1  # byte-identical across all 50
                roles = sorted(h["x-repro-dedup"] for _, h, _ in results)
                assert roles.count("leader") == 1
                assert roles.count("join") == 49

                _, _, raw = await request(port, "GET", "/stats")
                stats = json.loads(raw)
                assert stats["dedup"]["leaders"] == 1
                assert stats["dedup"]["joins"] == 49
                assert stats["analyses"]["started"] == 1
                assert stats["analyses"]["completed"] == 1
                # one analysis of a one-SCC program -> one store entry,
                # even under 50-way submission races
                assert stats["store"]["entries"] == 1
            finally:
                await service.shutdown()
            assert len(SpecStore(tmp_path / "store")) == 1
        run(scenario())

    def test_warm_repeat_is_10x_faster_than_cold(self):
        # A program no other test analyzes, so its cold run really is
        # cold even though tests share one process (and its caches).
        source = """
int hail(int n, int k) {
  if (n <= 1) { return k; }
  else { return hail(n - 3, k + 2); }
}
"""
        async def scenario():
            service, port = await started()
            try:
                t0 = time.monotonic()
                status, _, _ = await analyze(port, source)
                cold = time.monotonic() - t0
                assert status == 200

                t0 = time.monotonic()
                status, headers, _ = await analyze(port, source)
                warm = time.monotonic() - t0
                assert status == 200
                assert headers["x-repro-dedup"] == "hit"
                assert warm < cold / 10, (cold, warm)
            finally:
                await service.shutdown()
        run(scenario())

    def test_distinct_programs_do_not_dedup(self):
        async def scenario():
            service, port = await started()
            try:
                _, h1, _ = await analyze(port, MICRO)
                _, h2, _ = await analyze(
                    port, MICRO.replace("n - 1", "n - 2")
                )
                assert h1["x-repro-dedup"] == "leader"
                assert h2["x-repro-dedup"] == "leader"
                assert service.analyses.started == 2
            finally:
                await service.shutdown()
        run(scenario())


class TestQueue:
    def test_queue_full_rejects_new_leaders_not_joiners(self):
        """With every admission slot held, a *distinct* program gets 503
        but an identical one still joins (joins hold no pool slot).

        The slow leader is simulated (gauge + parked in-flight future) so
        the test is deterministic regardless of analysis speed."""
        async def scenario():
            service, port = await started(ServiceConfig(
                port=0, workers=1, queue_limit=1,
            ))
            try:
                program = parse_program(MICRO)
                knobs = {"language": "native", "max_iter": 8,
                         "time_budget": 15.0, "validate": True}
                fingerprint = request_fingerprint(program, knobs)
                service.dedup.begin(fingerprint)
                service._pending = 1

                status, _, body = await analyze(
                    port, MICRO.replace("n - 1", "n - 2")
                )
                assert status == 503
                assert json.loads(body)["error"] == "queue-full"
                assert service.queue_rejected == 1

                join_task = asyncio.ensure_future(analyze(port, MICRO))
                await asyncio.sleep(0.05)
                assert not join_task.done()  # parked on the leader
                canned = CachedResponse(200, b'{"ok": true}')
                service.dedup.finish(fingerprint, canned, cacheable=False)
                status, headers, body = await join_task
                assert status == 200
                assert headers["x-repro-dedup"] == "join"
                assert body == canned.body
                service._pending = 0
            finally:
                await service.shutdown()
        run(scenario())
