"""Service-level frontend selection: the ``language`` request field.

The dedup/store contract under test: the *same semantic program*
submitted through the ``native`` and ``st`` frontends must produce the
same verdicts (lowering is faithful) but distinct request fingerprints
and distinct store keys (a frontend is part of a result's identity --
a future frontend fix must not be masked by stale cached entries).
"""

import json

from repro.lang.frontends import parse_source
from repro.lang.pretty import pretty_program
from repro.serve.dedup import request_fingerprint
from repro.serve.schema import KNOB_FIELDS, validate_analyze_request
from repro.store.fingerprint import program_store_keys

from tests.serve.test_service import analyze, request, run, started

RETRY_ST = """
FUNCTION Retry : INT
  VAR_INPUT max_tries : INT; END_VAR
  VAR tries : INT; END_VAR
  tries := 0;
  WHILE tries < max_tries DO
    tries := tries + 1;
  END_WHILE
  Retry := tries;
END_FUNCTION
"""

#: The exact native program RETRY_ST lowers to -- submitting this with
#: language=native and RETRY_ST with language=st is "the same program
#: through two frontends".
RETRY_NATIVE = pretty_program(parse_source(RETRY_ST, language="st"))


class TestSchema:
    def test_schema_advertises_the_language_enum(self):
        async def scenario():
            service, port = await started()
            try:
                status, _, body = await request(port, "GET", "/schema")
                assert status == 200
                prop = json.loads(body)["analyze_request"]["properties"]
                enum = prop["language"]["enum"]
                assert None in enum and "native" in enum and "st" in enum
            finally:
                await service.shutdown()
        run(scenario())

    def test_language_is_a_dedup_knob(self):
        assert "language" in KNOB_FIELDS

    def test_null_and_native_normalize_together(self):
        a, _ = validate_analyze_request({"source": "x"})
        b, _ = validate_analyze_request({"source": "x", "language": None})
        c, _ = validate_analyze_request({"source": "x",
                                         "language": "native"})
        assert a["language"] == b["language"] == c["language"] == "native"

    def test_unknown_language_is_a_structured_400(self):
        async def scenario():
            service, port = await started()
            try:
                status, _, body = await analyze(
                    port, "int f() { return 0; }", language="cobol")
                assert status == 400
                payload = json.loads(body)
                assert payload["error"] == "invalid-request"
                assert "cobol" in payload["message"]
            finally:
                await service.shutdown()
        run(scenario())


class TestAnalyzeST:
    def test_st_program_is_analyzed(self):
        async def scenario():
            service, port = await started()
            try:
                status, _, body = await analyze(port, RETRY_ST,
                                                language="st")
                assert status == 200
                payload = json.loads(body)
                assert payload["verdicts"]["Retry"] == "Y"
            finally:
                await service.shutdown()
        run(scenario())

    def test_st_parse_error_is_a_structured_400(self):
        async def scenario():
            service, port = await started()
            try:
                status, _, body = await analyze(
                    port, "FUNCTION F : INT\n  F := ;\nEND_FUNCTION",
                    language="st")
                assert status == 400
                payload = json.loads(body)
                assert payload["error"] == "parse-error"
                assert any("line 2" in d for d in payload["diagnostics"])
            finally:
                await service.shutdown()
        run(scenario())

    def test_same_program_two_frontends(self):
        """Equal verdicts, distinct fingerprints."""
        async def scenario():
            service, port = await started()
            try:
                status, _, body = await analyze(port, RETRY_NATIVE)
                assert status == 200
                native = json.loads(body)
                status, _, body = await analyze(port, RETRY_ST,
                                                language="st")
                assert status == 200
                st = json.loads(body)
                assert native["verdicts"] == st["verdicts"]
                assert native["fingerprint"] != st["fingerprint"]
                # two distinct leaders, no cross-frontend dedup hit
                status, _, body = await request(port, "GET", "/stats")
                stats = json.loads(body)
                assert stats["dedup"]["leaders"] == 2
                assert stats["dedup"]["hits"] == 0
            finally:
                await service.shutdown()
        run(scenario())


class TestFingerprints:
    def test_language_knob_separates_request_fingerprints(self):
        program = parse_source(RETRY_ST, language="st")
        base = {"max_iter": 8, "time_budget": 15.0, "validate": True}
        native = request_fingerprint(program, dict(base,
                                                   language="native"))
        st = request_fingerprint(program, dict(base, language="st"))
        assert native != st

    def test_language_salts_store_keys(self):
        program = parse_source(RETRY_ST, language="st")
        _, _, native = program_store_keys(program, 8, 30.0)
        _, _, st = program_store_keys(program, 8, 30.0, language="st")
        assert set(native).isdisjoint(set(st))
