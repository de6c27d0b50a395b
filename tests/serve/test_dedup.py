"""Fingerprints and the dedup table: structural collisions, the
hit/join/lead protocol, cacheability, counters."""

import asyncio

from repro.lang.parser import parse_program
from repro.serve.dedup import CachedResponse, DedupTable, request_fingerprint

KNOBS = {"max_iter": 8, "time_budget": 15.0, "validate": True}

SRC = """
int dec(int n) { if (n <= 0) { return 0; } else { return dec(n - 1); } }
"""

# Same program, gratuitous whitespace and layout changes.
SRC_REFORMATTED = """
int dec(int n)
{
      if (n <= 0) {
            return 0;
      } else {
            return dec(n - 1);
      }
}
"""


class TestFingerprint:
    def test_deterministic(self):
        p = parse_program(SRC)
        assert request_fingerprint(p, KNOBS) == request_fingerprint(p, KNOBS)

    def test_layout_insensitive(self):
        a = parse_program(SRC)
        b = parse_program(SRC_REFORMATTED)
        assert request_fingerprint(a, KNOBS) == request_fingerprint(b, KNOBS)

    def test_semantic_change_changes_fingerprint(self):
        a = parse_program(SRC)
        b = parse_program(SRC.replace("n - 1", "n - 2"))
        assert request_fingerprint(a, KNOBS) != request_fingerprint(b, KNOBS)

    def test_knob_change_changes_fingerprint(self):
        p = parse_program(SRC)
        warm = dict(KNOBS, max_iter=9)
        assert request_fingerprint(p, KNOBS) != request_fingerprint(p, warm)


class TestTable:
    def test_lead_then_hit(self):
        async def scenario():
            table = DedupTable()
            role, found = table.claim("fp")
            assert (role, found) == ("lead", None)
            fut = table.begin("fp")
            response = CachedResponse(200, b"{}")
            table.finish("fp", response, cacheable=True)
            assert (await fut) is response
            role, found = table.claim("fp")
            assert role == "hit" and found is response
            assert table.stats()["leaders"] == 1
            assert table.stats()["hits"] == 1
            assert table.stats()["in_flight"] == 0
        asyncio.run(scenario())

    def test_joiners_share_the_leaders_future(self):
        async def scenario():
            table = DedupTable()
            table.claim("fp")
            fut = table.begin("fp")
            joins = [table.claim("fp") for _ in range(3)]
            assert all(role == "join" and f is fut for role, f in joins)
            response = CachedResponse(200, b"body")
            table.finish("fp", response, cacheable=True)
            got = await asyncio.gather(*(f for _, f in joins))
            assert all(r is response for r in got)
            assert table.stats()["joins"] == 3
        asyncio.run(scenario())

    def test_uncacheable_resolves_joiners_but_is_not_cached(self):
        async def scenario():
            table = DedupTable()
            table.claim("fp")
            fut = table.begin("fp")
            table.finish("fp", CachedResponse(504, b"timeout"),
                         cacheable=False)
            assert (await fut).status == 504
            role, _ = table.claim("fp")  # a retry leads again
            assert role == "lead"
            assert table.stats()["cached_responses"] == 0
        asyncio.run(scenario())

    def test_lead_without_begin_has_no_side_effects(self):
        """A rejected leader (queue full) must leave the table clean."""
        async def scenario():
            table = DedupTable()
            role, _ = table.claim("fp")
            assert role == "lead"
            # caller rejects instead of begin(): next claim leads again
            role, _ = table.claim("fp")
            assert role == "lead"
            assert table.stats()["leaders"] == 0
            assert table.stats()["in_flight"] == 0
        asyncio.run(scenario())

    def test_completed_cache_evicts_lru(self):
        async def scenario():
            table = DedupTable(completed_capacity=2)
            for i in range(3):
                table.claim(f"fp{i}")
                table.begin(f"fp{i}")
                table.finish(f"fp{i}", CachedResponse(200, b"x"), True)
            stats = table.stats()
            assert stats["cached_responses"] == 2
            assert stats["cache_evictions"] == 1
            role, _ = table.claim("fp0")  # evicted -> leads again
            assert role == "lead"
        asyncio.run(scenario())
