"""Persistent spec store: content-addressed summaries + incremental re-analysis.

Summaries are pure functions of (procedure bodies, transitive callee
bodies, analysis knobs); :mod:`repro.store.fingerprint` digests exactly
that dependency cone into a stable key per call-graph SCC, and
:mod:`repro.store.specstore` persists the resulting ``CaseSpec`` maps in
a content-addressed on-disk store.  The inference pipeline consults the
store before analyzing an SCC and writes newly computed summaries back,
turning every repeated or slightly-edited workload into an incremental
one -- see ``docs/store.md``.
"""

from repro.store.fingerprint import (
    FINGERPRINT_VERSION,
    formula_key,
    method_digest,
    program_store_keys,
    scc_store_keys,
)
from repro.store.specstore import STORE_VERSION, SpecStore, as_store

__all__ = [
    "FINGERPRINT_VERSION",
    "STORE_VERSION",
    "SpecStore",
    "as_store",
    "formula_key",
    "method_digest",
    "program_store_keys",
    "scc_store_keys",
]
