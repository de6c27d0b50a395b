"""Request/response schema for the analysis daemon's JSON API.

The wire format is deliberately small and stable: a ``POST /analyze``
body is one JSON object (see :data:`ANALYZE_REQUEST_SCHEMA`, also served
on ``GET /schema``), and every response -- success or error -- is one
JSON object with an ``ok`` boolean.  Validation happens here, before a
request ever touches the dedup table or the worker pool, so malformed
input costs one dict walk and never an analysis slot.

Success responses are built once per *analysis* (not per request) by
:func:`build_response` and cached as serialized bytes: deduplicated
joiners receive the leader's bytes verbatim, which is what makes the
"N identical submissions -> byte-identical responses" guarantee trivial
to uphold.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.lang.frontends import available_languages

#: Hard ceilings on the analysis knobs a request may ask for.  They bound
#: what one request can cost; the daemon-level wall-clock cap
#: (:attr:`repro.serve.server.ServiceConfig.max_analysis_seconds`) backs
#: them up for cost paths the per-SCC budget does not cover.
MAX_MAX_ITER = 64
MAX_TIME_BUDGET = 300.0

#: Default source-size cap (bytes, UTF-8).  Configurable per service via
#: :class:`repro.serve.server.ServiceConfig`.
DEFAULT_MAX_SOURCE_BYTES = 256 * 1024

#: JSON-schema-style description of the ``POST /analyze`` request body.
#: Served on ``GET /schema`` so clients can introspect the contract.
ANALYZE_REQUEST_SCHEMA: Dict[str, object] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "repro.serve analyze request",
    "type": "object",
    "required": ["source"],
    "additionalProperties": False,
    "properties": {
        "source": {
            "type": "string",
            "minLength": 1,
            "description": "program text in the selected source language",
        },
        "language": {
            "type": ["string", "null"],
            "enum": [None, *available_languages()],
            "default": None,
            "description": "source frontend (see docs/frontends.md); "
            "null = native C-like syntax",
        },
        "max_iter": {
            "type": "integer",
            "minimum": 1,
            "maximum": MAX_MAX_ITER,
            "default": 8,
            "description": "refinement-iteration bound per SCC",
        },
        "time_budget": {
            "type": "number",
            "exclusiveMinimum": 0,
            "maximum": MAX_TIME_BUDGET,
            "default": 15.0,
            "description": "per-SCC solver wall-clock budget (seconds); "
            "on expiry the SCC degrades to weaker cases",
        },
        "validate": {
            "type": "boolean",
            "default": True,
            "description": "lint the program before analysis (errors "
            "return HTTP 422 with diagnostics)",
        },
    },
}

#: Knob names (request keys beyond ``source``) in canonical order; they
#: feed the request fingerprint, so the order must be stable.  The
#: resolved frontend name is part of the knobs: identical bytes submitted
#: in different languages must never share a dedup entry.
KNOB_FIELDS = ("language", "max_iter", "time_budget", "validate")


def validate_analyze_request(
    obj: object, max_source_bytes: int = DEFAULT_MAX_SOURCE_BYTES
) -> Tuple[Optional[Dict[str, object]], List[str]]:
    """Check a decoded ``POST /analyze`` body against the schema.

    Returns ``(params, errors)``: on success *params* carries every knob
    with defaults filled in and *errors* is empty; on failure *params* is
    ``None`` and *errors* lists every violation (not just the first), so
    a client can fix its request in one round trip.
    """
    errors: List[str] = []
    if not isinstance(obj, dict):
        return None, ["request body must be a JSON object"]
    unknown = sorted(set(obj) - set(ANALYZE_REQUEST_SCHEMA["properties"]))
    if unknown:
        errors.append(f"unknown field(s): {', '.join(unknown)}")

    source = obj.get("source")
    if not isinstance(source, str) or not source.strip():
        errors.append("'source' is required and must be a non-empty string")
    elif len(source.encode()) > max_source_bytes:
        errors.append(
            f"'source' exceeds the {max_source_bytes}-byte limit"
        )

    max_iter = obj.get("max_iter", 8)
    if not isinstance(max_iter, int) or isinstance(max_iter, bool) \
            or not 1 <= max_iter <= MAX_MAX_ITER:
        errors.append(
            f"'max_iter' must be an integer in [1, {MAX_MAX_ITER}]"
        )

    time_budget = obj.get("time_budget", 15.0)
    if isinstance(time_budget, bool) or not isinstance(time_budget, (int, float)) \
            or not 0 < float(time_budget) <= MAX_TIME_BUDGET:
        errors.append(
            f"'time_budget' must be a number in (0, {MAX_TIME_BUDGET}]"
        )

    language = obj.get("language")
    if language is not None and not isinstance(language, str):
        errors.append("'language' must be a string or null")
        language = None
    elif language is not None and language not in available_languages():
        known = ", ".join(available_languages())
        errors.append(f"unknown language {language!r} (known: {known})")

    validate = obj.get("validate", True)
    if not isinstance(validate, bool):
        errors.append("'validate' must be a boolean")

    if errors:
        return None, errors
    return {
        "source": source,
        # normalised to the frontend's canonical name so "language":
        # null and an explicit "native" deduplicate together
        "language": "native" if language is None else language,
        "max_iter": max_iter,
        "time_budget": float(time_budget),
        "validate": validate,
    }, []


def build_response(
    fingerprint: str,
    verdicts: Dict[str, str],
    specs: Dict[str, str],
    solver: Dict[str, int],
    analysis_seconds: float,
) -> Dict[str, object]:
    """The success payload for one completed analysis.

    ``analysis_seconds`` is the *leader's* wall-clock time: joiners
    receive the same payload (byte-identical by construction), so the
    field reports what the analysis cost, not what any one request
    waited."""
    return {
        "ok": True,
        "fingerprint": fingerprint,
        "verdicts": verdicts,
        "specs": specs,
        "solver": solver,
        "analysis_seconds": round(analysis_seconds, 6),
    }


def error_response(
    code: str, message: str, diagnostics: Optional[List[str]] = None
) -> Dict[str, object]:
    """A structured error payload (``ok: false``)."""
    payload: Dict[str, object] = {"ok": False, "error": code, "message": message}
    if diagnostics is not None:
        payload["diagnostics"] = diagnostics
    return payload
