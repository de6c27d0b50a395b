"""Request validation: defaults, bounds, error aggregation."""

from repro.serve.schema import (
    MAX_MAX_ITER,
    MAX_TIME_BUDGET,
    build_response,
    error_response,
    validate_analyze_request,
)

SRC = "int f(int x) { return 0; }"


class TestValid:
    def test_minimal_request_fills_defaults(self):
        params, errors = validate_analyze_request({"source": SRC})
        assert errors == []
        assert params == {
            "source": SRC,
            "language": "native",  # null normalizes to the default
            "max_iter": 8,
            "time_budget": 15.0,
            "validate": True,
        }

    def test_explicit_knobs_pass_through(self):
        params, errors = validate_analyze_request({
            "source": SRC, "max_iter": 3, "time_budget": 2, "validate": False,
        })
        assert errors == []
        assert params["max_iter"] == 3
        assert params["time_budget"] == 2.0  # coerced to float
        assert params["validate"] is False


class TestInvalid:
    def test_non_object_body(self):
        params, errors = validate_analyze_request([1, 2])
        assert params is None
        assert errors == ["request body must be a JSON object"]

    def test_missing_and_empty_source(self):
        for body in ({}, {"source": ""}, {"source": "   "}, {"source": 3}):
            params, errors = validate_analyze_request(body)
            assert params is None
            assert any("'source'" in e for e in errors)

    def test_source_size_cap(self):
        params, errors = validate_analyze_request(
            {"source": "x" * 100}, max_source_bytes=10
        )
        assert params is None
        assert any("10-byte limit" in e for e in errors)

    def test_knob_bounds(self):
        bad = {
            "source": SRC,
            "max_iter": MAX_MAX_ITER + 1,
            "time_budget": MAX_TIME_BUDGET + 1,
        }
        params, errors = validate_analyze_request(bad)
        assert params is None
        assert any("max_iter" in e for e in errors)
        assert any("time_budget" in e for e in errors)

    def test_bools_are_not_integers(self):
        # bool is an int subclass; the schema must still reject it.
        params, errors = validate_analyze_request(
            {"source": SRC, "max_iter": True}
        )
        assert params is None
        assert any("max_iter" in e for e in errors)
        params, errors = validate_analyze_request(
            {"source": SRC, "time_budget": False}
        )
        assert params is None
        assert any("time_budget" in e for e in errors)

    def test_unknown_fields_rejected(self):
        params, errors = validate_analyze_request(
            {"source": SRC, "bogus": 1, "extra": 2}
        )
        assert params is None
        assert errors == ["unknown field(s): bogus, extra"]

    def test_removed_knobs_are_unknown_fields(self):
        # the engine and pre-analysis are no longer selectable
        params, errors = validate_analyze_request(
            {"source": SRC, "backend": "matrix", "preanalysis": True}
        )
        assert params is None
        assert errors == ["unknown field(s): backend, preanalysis"]

    def test_all_errors_reported_at_once(self):
        params, errors = validate_analyze_request(
            {"max_iter": 0, "bogus": 7, "validate": "yes"}
        )
        assert params is None
        assert len(errors) >= 4  # bogus, source, max_iter, validate


class TestPayloads:
    def test_build_response_shape(self):
        payload = build_response("ab" * 32, {"f": "Y"}, {"f": "spec"},
                                 {"sat_queries": 3}, 1.23456789)
        assert payload["ok"] is True
        assert payload["fingerprint"] == "ab" * 32
        assert payload["verdicts"] == {"f": "Y"}
        assert payload["analysis_seconds"] == 1.234568

    def test_error_response_shape(self):
        payload = error_response("parse-error", "boom", ["line 1: bad"])
        assert payload == {
            "ok": False, "error": "parse-error", "message": "boom",
            "diagnostics": ["line 1: bad"],
        }
        assert "diagnostics" not in error_response("x", "y")
