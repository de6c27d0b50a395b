"""Analysis-as-a-service: a long-lived HTTP/JSON daemon over the pipeline.

Every expensive asset the library builds -- the interned formula
universe, warm solver caches, the persistent spec store -- lives exactly as long as its process.  This package keeps one
process alive and serves analyses over HTTP, so those assets amortise
across requests instead of dying with each CLI run:

* :mod:`repro.serve.schema` -- the ``POST /analyze`` request/response
  JSON schema and its validator;
* :mod:`repro.serve.dedup` -- structural request fingerprints and the
  in-flight/completed deduplication table (N identical concurrent
  submissions cost one analysis and N-1 joins);
* :mod:`repro.serve.server` -- the asyncio HTTP server, the bounded
  worker pool, and the service state (`/analyze`, `/healthz`, `/stats`,
  `/schema`);
* ``python -m repro.serve`` -- the CLI entry point.

Stdlib only: ``asyncio`` plus a small hand-rolled HTTP/1.1 layer; no web
framework.  See ``docs/serve.md``.
"""

from repro.serve.dedup import DedupTable, request_fingerprint
from repro.serve.schema import (
    ANALYZE_REQUEST_SCHEMA,
    validate_analyze_request,
)
from repro.serve.server import AnalysisService, ServiceConfig

__all__ = [
    "ANALYZE_REQUEST_SCHEMA",
    "AnalysisService",
    "DedupTable",
    "ServiceConfig",
    "request_fingerprint",
    "validate_analyze_request",
]
