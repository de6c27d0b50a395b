"""Persistent, content-addressed storage for inferred case summaries.

One entry per call-graph SCC, keyed by the SCC's structural fingerprint
(:mod:`repro.store.fingerprint`): the value is the mapping ``method name
-> CaseSpec`` that :func:`repro.core.pipeline.analyze_scc_group` produced
for the group.  Because the key digests everything the summary depends on
(member bodies, transitive callee bodies, analysis knobs), a lookup can
only ever return what a from-scratch analysis would have computed -- the
store is a cache, never an oracle.

On-disk layout::

    <root>/
      objects/<key[:2]>/<key>.spec      one entry per SCC fingerprint

Entry format (see :data:`MAGIC` / :data:`STORE_VERSION`)::

    MAGIC(4) | version u16-be | sha256(payload)(32) | payload

where *payload* is the pickle of ``{"key": <fingerprint>, "specs":
{name: CaseSpec}}``.  Formula and term nodes inside a ``CaseSpec``
pickle via their ``__reduce__`` hooks and **re-intern on load** (the
exact machinery the parallel scheduler relies on, see
``docs/parallel.md``), so a loaded spec is indistinguishable from a
freshly computed one: pointer-equal subterms, canonical conjunct order,
O(1) cache probes.

Robustness: *any* defect in an entry -- wrong magic, unknown version,
checksum mismatch, unpicklable payload, key mismatch -- rejects the
entry, deletes it best-effort, and reports a miss.  A corrupt or stale
store therefore degrades to cold analysis, never to a wrong answer.

Trust boundary: entries are pickles, and the checksum is written by
whoever wrote the entry -- it guards against *accidental* corruption
(truncated writes, bit rot, version skew), not against a malicious
writer, who could store a crafted pickle that executes code on load.
Point the store only at directories exactly as trusted as the code
itself (a per-user cache dir, a CI workspace); never at a directory
writable by less-trusted parties.

Concurrency: writers serialize into a uniquely named temporary file in
the destination directory and publish it with :func:`os.replace` (atomic
on POSIX within one filesystem).  Concurrent writers under ``jobs=N``
race benignly: both write complete entries for the same key and the
last rename wins; readers see either a complete old entry or a complete
new one, never a torn write.  See ``docs/store.md``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.core.specs import CaseSpec

#: Entry file magic ("TNT Spec").
MAGIC = b"TNTS"

#: On-disk format version.  Bump on any incompatible change to the entry
#: layout or payload schema; old entries are then rejected as stale.
STORE_VERSION = 1

_HEADER = struct.Struct(">4sH")  # magic, version

#: Age (seconds) past which an orphaned write-temporary is reclaimed even
#: when its pid cannot be proven dead (pid reuse, writers on other hosts).
#: Far above any plausible in-flight write, far below "leaks forever".
_TMP_MAX_AGE = 3600.0


class SpecStore:
    """A content-addressed summary store rooted at a directory.

    Instances are cheap handles (no in-memory cache beyond the open
    directory) and pickle as their root path, so they can be shipped to
    worker processes which then read/write the same directory.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        (self.root / "objects").mkdir(parents=True, exist_ok=True)
        self._sweep_stale_tmp()

    def __reduce__(self):
        return (SpecStore, (str(self.root),))

    def __repr__(self) -> str:
        return f"SpecStore({str(self.root)!r})"

    # -- paths ---------------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.spec"

    # -- read ----------------------------------------------------------------

    def load(self, key: str) -> Tuple[Optional[Dict[str, CaseSpec]], bool]:
        """Look up *key*; returns ``(specs, rejected)``.

        ``specs`` is ``None`` on a miss.  ``rejected`` is ``True`` when an
        entry existed on disk but failed validation (corrupt, stale
        version, key mismatch) -- it has been deleted (best effort) so the
        caller's fresh analysis can rewrite it.  Never raises for store
        defects; only programming errors (e.g. a non-hex key) propagate.
        """
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None, False
        except OSError:
            return None, True
        specs = self._decode(key, blob)
        if specs is None:
            try:
                path.unlink()
            except OSError:
                pass
            return None, True
        return specs, False

    def _decode(self, key: str, blob: bytes) -> Optional[Dict[str, CaseSpec]]:
        if len(blob) < _HEADER.size + 32:
            return None
        magic, version = _HEADER.unpack_from(blob)
        if magic != MAGIC or version != STORE_VERSION:
            return None
        digest = blob[_HEADER.size:_HEADER.size + 32]
        payload = blob[_HEADER.size + 32:]
        if hashlib.sha256(payload).digest() != digest:
            return None
        try:
            entry = pickle.loads(payload)
        except Exception:
            return None
        if not isinstance(entry, dict) or entry.get("key") != key:
            return None
        specs = entry.get("specs")
        if not isinstance(specs, dict) or not all(
            isinstance(s, CaseSpec) for s in specs.values()
        ):
            return None
        return specs

    # -- write ---------------------------------------------------------------

    def save(self, key: str, specs: Dict[str, CaseSpec]) -> None:
        """Publish *specs* under *key* (atomic rename; safe under
        concurrent writers and readers)."""
        payload = pickle.dumps(
            {"key": key, "specs": dict(specs)},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        blob = (
            _HEADER.pack(MAGIC, STORE_VERSION)
            + hashlib.sha256(payload).digest()
            + payload
        )
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # One tmp name per writing thread: daemon worker threads saving
        # the same key must not write (and rename away) each other's file.
        tmp = path.parent / f".{key}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        finally:
            # Exception-safe cleanup: whether write_bytes failed half-way
            # (disk full) or os.replace failed (the publish succeeded case
            # leaves no tmp file, hence missing_ok), no partial tmp file
            # survives this call.  Only a hard crash can orphan one --
            # those are swept by _sweep_stale_tmp at the next store open.
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    # -- maintenance ---------------------------------------------------------

    def _sweep_stale_tmp(self) -> None:
        """Delete orphaned ``.{key}.{pid}.{tid}.tmp`` files at store open.

        The write path cleans its tmp file even on exceptions, so orphans
        only arise from hard crashes (SIGKILL, power loss) between
        ``write_bytes`` and ``os.replace``.  A tmp file is considered
        stale -- and removed -- when the pid embedded in its name is no
        longer alive on this host, or when it is older than
        :data:`_TMP_MAX_AGE` (covering pid reuse and writers on other
        hosts sharing the directory); a live writer's in-flight tmp file
        is left alone so its pending ``os.replace`` still succeeds.
        Purely best-effort: any OSError leaves the file for a later
        sweep."""
        now = time.time()
        for tmp in (self.root / "objects").glob("*/.*.tmp"):
            try:
                # "", key, pid[, tid], "tmp" -- keys are hex, so the pid
                # is always the third dot-separated field
                parts = tmp.name.split(".")
                pid = int(parts[2]) if len(parts) >= 4 else None
            except ValueError:
                pid = None
            stale = False
            if pid is not None and pid != os.getpid():
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    stale = True
                except OSError:
                    pass  # e.g. EPERM: pid exists but is not ours
            if not stale:
                try:
                    stale = now - tmp.stat().st_mtime > _TMP_MAX_AGE
                except OSError:
                    continue  # raced with the writer's own cleanup
            if stale:
                try:
                    tmp.unlink(missing_ok=True)
                except OSError:
                    pass

    def __len__(self) -> int:
        return sum(1 for _ in (self.root / "objects").glob("*/*.spec"))

    def keys(self):
        """All entry fingerprints currently on disk."""
        for p in (self.root / "objects").glob("*/*.spec"):
            yield p.stem

    def wipe(self) -> None:
        """Delete every entry (used by ``python -m repro.bench --cold``)."""
        for p in (self.root / "objects").glob("*/*.spec"):
            try:
                p.unlink()
            except OSError:
                pass


def as_store(
    store: Union[None, str, Path, SpecStore]
) -> Optional[SpecStore]:
    """Coerce a user-supplied ``store=`` argument (path or instance)."""
    if store is None or isinstance(store, SpecStore):
        return store
    return SpecStore(store)
