"""The analysis daemon: asyncio HTTP server, worker pool, service state.

Architecture (see ``docs/serve.md`` for the full picture)::

    client --HTTP--> event loop (parse, validate, fingerprint, dedup)
                         |  leader only, bounded pool
                         v
                  ThreadPoolExecutor workers
                         |  infer_program(store=<shared SpecStore>)
                         v
                  process-resident caches (interned formulas, DNF/FM
                  memos) + on-disk spec store

Everything stateful -- the dedup table, counters, the pending-job gauge
-- is touched from the event-loop thread only; worker threads run the
pure analysis function and hand their result back through the executor
future.  The per-request wall-clock cap is a
:func:`repro.arith.fm.deadline` scoped on the worker thread itself: the
analysis stops at its next FM call past the limit, the worker is free for
the next request, and no extra thread is started per request.

The daemon deliberately never calls ``clear_caches``: resident caches
are the point.  Growth is bounded by the LRU caps of every memo layer
(``repro.arith.lru``) and the weak formula intern table; `/stats`
surfaces their sizes (:func:`repro.arith.solver.cache_telemetry`) so an
operator can watch them.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.arith.context import SolverStats
from repro.serve.dedup import CachedResponse, DedupTable, request_fingerprint
from repro.serve.schema import (
    ANALYZE_REQUEST_SCHEMA,
    DEFAULT_MAX_SOURCE_BYTES,
    KNOB_FIELDS,
    build_response,
    error_response,
    validate_analyze_request,
)

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    422: "Unprocessable Entity", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

#: Upper bound on the HTTP head (request line + headers) we will buffer.
_MAX_HEAD_BYTES = 32 * 1024


@dataclass
class ServiceConfig:
    """Tunables of one :class:`AnalysisService` instance."""

    host: str = "127.0.0.1"
    port: int = 8095
    #: Worker threads analyzing in parallel.  They share the process-wide
    #: interned-formula universe and memo caches (that is the perf win);
    #: see docs/serve.md for the concurrency contract.
    workers: int = 2
    #: Maximum *distinct* analyses admitted but not yet finished (queued +
    #: running).  Beyond it, new leaders get HTTP 503; joiners of admitted
    #: analyses are never rejected -- they cost no pool slot.
    queue_limit: int = 64
    #: Spec-store directory shared by every worker (``None`` disables the
    #: persistent layer; dedup and resident caches still apply).
    store: Optional[str] = None
    #: Hard per-analysis wall-clock cap (seconds): the whole inference runs
    #: inside ``repro.arith.fm.deadline`` on its worker thread and stops
    #: itself once the cap passes; requests may ask for smaller per-SCC
    #: budgets but never exceed this.
    max_analysis_seconds: float = 120.0
    #: Reject request bodies larger than this many bytes.
    max_body_bytes: int = DEFAULT_MAX_SOURCE_BYTES + 4096
    #: Source-size cap handed to the schema validator.
    max_source_bytes: int = DEFAULT_MAX_SOURCE_BYTES


@dataclass
class _AnalysisGauges:
    """Lifecycle counters for analyses (not requests)."""

    started: int = 0
    completed: int = 0
    failed: int = 0
    timed_out: int = 0
    seconds_total: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "started": self.started, "completed": self.completed,
            "failed": self.failed, "timed_out": self.timed_out,
            "seconds_total": round(self.seconds_total, 6),
        }


class AnalysisService:
    """One daemon instance: routes, dedup, pool, counters.

    Create, then ``await start()``; ``await shutdown()`` drains and
    closes.  All mutable state is event-loop-confined."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.dedup = DedupTable()
        self.requests: Dict[str, int] = {}
        self.responses: Dict[int, int] = {}
        self.analyses = _AnalysisGauges()
        self.solver_totals = SolverStats()
        self.queue_rejected = 0
        self._pending = 0
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve-worker",
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._started_at = time.monotonic()
        self._store = None
        if self.config.store is not None:
            from repro.store.specstore import SpecStore

            self._store = SpecStore(self.config.store)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and serve; returns the actual (host, port) -- port 0 in
        the config picks a free one."""
        self._started_at = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def shutdown(self) -> None:
        """Stop accepting connections and drain the worker pool.

        In-flight analyses finish (each is bounded by
        ``max_analysis_seconds``); their joiners are answered through the
        dedup futures as usual.  New connections are refused as soon as
        the listening socket closes."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await asyncio.get_running_loop().run_in_executor(
            None, self._pool.shutdown
        )

    # -- HTTP plumbing -------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, body, extra = await self._handle_request(reader)
            await self._write_response(writer, status, body, extra)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except Exception:  # pragma: no cover - last-resort guard
            try:
                await self._write_response(
                    writer, 500,
                    _encode(error_response("internal", "internal error")), {},
                )
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        extra: Dict[str, str],
    ) -> None:
        self.responses[status] = self.responses.get(status, 0) + 1
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        head += [f"{k}: {v}" for k, v in extra.items()]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, bytes, Dict[str, str]]:
        line = await reader.readline()
        if not line:
            raise ConnectionError("empty request")
        parts = line.decode("latin-1", "replace").split()
        if len(parts) < 2:
            return 400, _encode(error_response("bad-request", "malformed request line")), {}
        method, target = parts[0].upper(), parts[1].split("?", 1)[0]
        headers: Dict[str, str] = {}
        head_bytes = len(line)
        while True:
            hline = await reader.readline()
            head_bytes += len(hline)
            if head_bytes > _MAX_HEAD_BYTES:
                return 400, _encode(error_response("bad-request", "headers too large")), {}
            if hline in (b"\r\n", b"\n", b""):
                break
            name, _, value = hline.decode("latin-1", "replace").partition(":")
            headers[name.strip().lower()] = value.strip()

        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            return 400, _encode(error_response("bad-request", "bad Content-Length")), {}
        if length > self.config.max_body_bytes:
            return 413, _encode(error_response(
                "too-large",
                f"body exceeds {self.config.max_body_bytes} bytes",
            )), {}
        body = await reader.readexactly(length) if length else b""
        return await self._route(method, target, body)

    # -- routing -------------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, bytes, Dict[str, str]]:
        routes = {
            "/healthz": ("GET", self._get_healthz),
            "/stats": ("GET", self._get_stats),
            "/schema": ("GET", self._get_schema),
            "/analyze": ("POST", None),
        }
        entry = routes.get(path)
        if entry is None:
            return 404, _encode(error_response("not-found", f"no route {path}")), {}
        want, handler = entry
        self.requests[path.lstrip("/")] = self.requests.get(path.lstrip("/"), 0) + 1
        if method != want:
            return 405, _encode(error_response(
                "method-not-allowed", f"{path} expects {want}"
            )), {"Allow": want}
        if handler is not None:
            return 200, _encode(handler()), {}
        return await self._post_analyze(body)

    def _get_healthz(self) -> Dict[str, object]:
        return {
            "ok": True,
            "status": "ok",
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
        }

    def _get_schema(self) -> Dict[str, object]:
        return {"ok": True, "analyze_request": ANALYZE_REQUEST_SCHEMA}

    def _get_stats(self) -> Dict[str, object]:
        from repro.arith.solver import cache_telemetry

        store_stats = None
        if self._store is not None:
            store_stats = {
                "path": str(self._store.root),
                "entries": len(self._store),
            }
        return {
            "ok": True,
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "requests": dict(self.requests),
            "responses": {str(k): v for k, v in sorted(self.responses.items())},
            "dedup": self.dedup.stats(),
            "queue": {
                "workers": self.config.workers,
                "pending": self._pending,
                "capacity": self.config.queue_limit,
                "rejected_full": self.queue_rejected,
            },
            "analyses": self.analyses.as_dict(),
            "solver": self.solver_totals.as_dict(),
            "caches": cache_telemetry(),
            "store": store_stats,
        }

    # -- /analyze ------------------------------------------------------------

    async def _post_analyze(
        self, body: bytes
    ) -> Tuple[int, bytes, Dict[str, str]]:
        try:
            decoded = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, _encode(error_response("bad-json", str(exc))), {}
        params, errors = validate_analyze_request(
            decoded, self.config.max_source_bytes
        )
        if params is None:
            return 400, _encode(error_response(
                "invalid-request", "; ".join(errors), diagnostics=errors
            )), {}

        from repro.lang.errors import SourceError
        from repro.lang.frontends import get_frontend

        # validated against available_languages() above, so this resolves
        frontend = get_frontend(params["language"])
        try:
            program = frontend.parse(params["source"])
        except SourceError as exc:
            return 400, _encode(error_response(
                "parse-error", str(exc),
                diagnostics=[d.render() for d in exc.diagnostics],
            )), {}

        knobs = {k: params[k] for k in KNOB_FIELDS}
        fingerprint = request_fingerprint(program, knobs)

        role, found = self.dedup.claim(fingerprint)
        if role == "hit":
            return found.status, found.body, {"X-Repro-Dedup": "hit"}
        if role == "join":
            response = await asyncio.shield(found)
            return response.status, response.body, {"X-Repro-Dedup": "join"}

        if self._pending >= self.config.queue_limit:
            self.queue_rejected += 1
            return 503, _encode(error_response(
                "queue-full",
                f"{self._pending} analyses pending (limit "
                f"{self.config.queue_limit}); retry later",
            )), {"Retry-After": "1"}

        fut = self.dedup.begin(fingerprint)
        self._pending += 1
        self.analyses.started += 1
        loop = asyncio.get_running_loop()
        try:
            status, payload, cacheable, stats, seconds = (
                await loop.run_in_executor(
                    self._pool, self._analyze_blocking,
                    program, params, fingerprint,
                )
            )
        except Exception as exc:  # executor infrastructure failure
            status, payload, cacheable, stats, seconds = (
                500, error_response("internal", str(exc)), False, None, 0.0
            )
        finally:
            self._pending -= 1
        if status == 200:
            self.analyses.completed += 1
        elif status == 504:
            self.analyses.timed_out += 1
        else:
            self.analyses.failed += 1
        self.analyses.seconds_total += seconds
        if stats is not None:
            self.solver_totals.merge_dict(stats)
        response = CachedResponse(status, _encode(payload))
        self.dedup.finish(fingerprint, response, cacheable)
        return response.status, response.body, {"X-Repro-Dedup": "leader"}

    def _analyze_blocking(
        self,
        program,
        params: Dict[str, object],
        fingerprint: str,
    ):
        """Worker-thread body: the one call that does real work.

        Pure with respect to service state: everything it touches is
        either request-local (``infer_program`` scopes its fresh names to
        the call) or a process-wide cache designed for concurrent
        readers.  Returns
        ``(status, payload, cacheable, stats_dict, seconds)``."""
        from repro.analysis.diagnostics import ProgramInvalid
        from repro.arith.fm import AnalysisTimeout, deadline
        from repro.core.pipeline import infer_program

        start = time.monotonic()
        try:
            with deadline(self.config.max_analysis_seconds):
                result = infer_program(
                    program,
                    max_iter=params["max_iter"],
                    time_budget=params["time_budget"],
                    store=self._store,
                    validate=params["validate"],
                    language=params["language"],
                )
            verdicts = {m: str(result.verdict(m)) for m in result.specs}
            specs = {m: result.specs[m].pretty() for m in result.specs}
            stats = result.solver_stats.as_dict() if result.solver_stats else {}
            seconds = time.monotonic() - start
            payload = build_response(
                fingerprint, verdicts, specs, stats, seconds
            )
            return 200, payload, True, stats, seconds
        except AnalysisTimeout:
            seconds = time.monotonic() - start
            return 504, error_response(
                "analysis-timeout",
                f"analysis exceeded {self.config.max_analysis_seconds}s",
            ), False, None, seconds
        except ProgramInvalid as exc:
            seconds = time.monotonic() - start
            return 422, error_response(
                "program-invalid",
                "program failed validation",
                diagnostics=[d.render() for d in exc.diagnostics],
            ), True, None, seconds
        except Exception as exc:
            seconds = time.monotonic() - start
            return 500, error_response(
                "analysis-error", f"{type(exc).__name__}: {exc}"
            ), False, None, seconds


def _encode(payload: Dict[str, object]) -> bytes:
    """Canonical response serialization (sorted keys: deduplicated
    responses must be byte-identical, so the encoding is deterministic)."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")
