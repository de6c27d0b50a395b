"""SpecStore on-disk behaviour: round-trip fidelity (including formula
re-interning), corruption/staleness rejection, and the atomic-rename
write protocol's crash droppings tolerance."""

import hashlib
import pickle
import struct

import pytest

from repro.core import infer_source
from repro.store.specstore import MAGIC, STORE_VERSION, SpecStore, as_store

CHAIN = """
int dec(int n) { if (n <= 0) { return 0; } else { return dec(n - 1); } }
int mid(int n) { return dec(n); }
void top(int x) { int r = mid(x); return; }
"""


@pytest.fixture
def store(tmp_path):
    return SpecStore(tmp_path / "store")


def _cold_specs():
    return infer_source(CHAIN).specs


class TestRoundTrip:
    def test_specs_survive_save_load(self, store):
        specs = _cold_specs()
        store.save("ab" * 32, specs)
        loaded, rejected = store.load("ab" * 32)
        assert not rejected
        assert loaded == specs

    def test_loaded_formulas_reintern(self, store):
        """A loaded spec's guards re-intern: structurally equal formulas
        are pointer-equal to the originals in this process, so caches and
        canonical conjunct order behave as for freshly built formulas."""
        specs = _cold_specs()
        store.save("cd" * 32, specs)
        loaded, _ = store.load("cd" * 32)
        for name, spec in specs.items():
            for orig, back in zip(spec.cases, loaded[name].cases):
                assert back.guard is orig.guard
                assert back.pred == orig.pred

    def test_missing_key_is_clean_miss(self, store):
        loaded, rejected = store.load("00" * 32)
        assert loaded is None and not rejected

    def test_store_pickles_as_path(self, store):
        clone = pickle.loads(pickle.dumps(store))
        assert clone.root == store.root


class TestRejection:
    KEY = "ef" * 32

    def _entry_path(self, store):
        store.save(self.KEY, _cold_specs())
        return store._path(self.KEY)

    def _assert_rejected_and_deleted(self, store):
        loaded, rejected = store.load(self.KEY)
        assert loaded is None and rejected
        assert not store._path(self.KEY).exists()

    def test_corrupt_payload_rejected_and_deleted(self, store):
        path = self._entry_path(store)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip a payload byte: checksum must catch it
        path.write_bytes(bytes(blob))
        self._assert_rejected_and_deleted(store)

    def test_truncated_entry_rejected(self, store):
        path = self._entry_path(store)
        path.write_bytes(path.read_bytes()[:20])
        self._assert_rejected_and_deleted(store)

    def test_stale_version_rejected(self, store):
        path = self._entry_path(store)
        payload = pickle.dumps({"key": self.KEY, "specs": _cold_specs()})
        blob = (
            struct.pack(">4sH", MAGIC, STORE_VERSION + 1)
            + hashlib.sha256(payload).digest()
            + payload
        )
        path.write_bytes(blob)
        self._assert_rejected_and_deleted(store)

    def test_key_mismatch_rejected(self, store):
        # A valid entry renamed under a different key must not be trusted:
        # the payload records the key it was written for.
        store.save("11" * 32, _cold_specs())
        src = store._path("11" * 32)
        dst = store._path(self.KEY)
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_bytes(src.read_bytes())
        self._assert_rejected_and_deleted(store)

    def test_unpicklable_garbage_rejected(self, store):
        path = store._path(self.KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        garbage = b"\x01\x02\x03 not a pickle"
        blob = (
            struct.pack(">4sH", MAGIC, STORE_VERSION)
            + hashlib.sha256(garbage).digest()
            + garbage
        )
        path.write_bytes(blob)
        self._assert_rejected_and_deleted(store)


class TestMaintenance:
    def test_len_keys_wipe(self, store):
        specs = _cold_specs()
        store.save("aa" * 32, specs)
        store.save("bb" * 32, specs)
        assert len(store) == 2
        assert sorted(store.keys()) == ["aa" * 32, "bb" * 32]
        store.wipe()
        assert len(store) == 0

    def test_as_store_coercions(self, store, tmp_path):
        assert as_store(None) is None
        assert as_store(store) is store
        assert as_store(str(tmp_path / "fresh")).root == tmp_path / "fresh"


class TestTmpCleanup:
    """Satellite bugfix: the atomic-write protocol must not litter
    ``.{key}.{pid}.{tid}.tmp`` files -- not on write failures, and crash
    droppings from dead processes are swept at store open."""

    KEY = "ef" * 32

    def _tmp_files(self, store):
        return list((store.root / "objects").glob("*/.*.tmp"))

    def test_failed_replace_cleans_tmp(self, store, monkeypatch):
        """Simulated crash between write_bytes and the rename: the tmp
        file must not survive the raising save() call."""
        def boom(src, dst):
            raise OSError("simulated replace failure")

        monkeypatch.setattr("repro.store.specstore.os.replace", boom)
        with pytest.raises(OSError, match="simulated"):
            store.save(self.KEY, _cold_specs())
        assert self._tmp_files(store) == []
        loaded, rejected = store.load(self.KEY)
        assert loaded is None and not rejected  # nothing half-published

    def test_failed_write_cleans_tmp(self, store, monkeypatch):
        """Disk-full style failure inside write_bytes: same guarantee."""
        from pathlib import Path

        real_write = Path.write_bytes

        def boom(self, data):
            if self.name.endswith(".tmp"):
                real_write(self, data[: len(data) // 2])  # partial write
                raise OSError(28, "No space left on device")
            return real_write(self, data)

        monkeypatch.setattr(Path, "write_bytes", boom)
        with pytest.raises(OSError, match="No space left"):
            store.save(self.KEY, _cold_specs())
        assert self._tmp_files(store) == []

    def test_open_sweeps_dead_pid_orphans(self, store):
        """A tmp file left by a hard-crashed (SIGKILL) writer is removed
        when the store is next opened."""
        import subprocess
        import sys

        # A real pid that is guaranteed dead: a subprocess we already
        # reaped.  (Not a made-up number -- pid liveness is the check.)
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        orphan_dir = store.root / "objects" / self.KEY[:2]
        orphan_dir.mkdir(parents=True, exist_ok=True)
        orphan = orphan_dir / f".{self.KEY}.{proc.pid}.12345.tmp"
        orphan.write_bytes(b"half-written crash dropping")

        reopened = SpecStore(store.root)
        assert self._tmp_files(reopened) == []

    def test_open_keeps_live_writers_fresh_tmp(self, store):
        """A live process's recent tmp file is in-flight, not an orphan:
        the sweep must leave it so the pending rename can succeed."""
        import os as _os

        tmp_dir = store.root / "objects" / self.KEY[:2]
        tmp_dir.mkdir(parents=True, exist_ok=True)
        inflight = tmp_dir / f".{self.KEY}.{_os.getpid()}.tmp"
        inflight.write_bytes(b"in-flight write")

        reopened = SpecStore(store.root)
        assert self._tmp_files(reopened) == [inflight]

    def test_open_sweeps_ancient_tmp_even_from_live_pid(self, store):
        """Age backstop (pid reuse, NFS writers from other hosts): a tmp
        file older than the threshold goes away even if its pid is
        alive."""
        import os as _os
        import time as _time

        from repro.store.specstore import _TMP_MAX_AGE

        tmp_dir = store.root / "objects" / self.KEY[:2]
        tmp_dir.mkdir(parents=True, exist_ok=True)
        ancient = tmp_dir / f".{self.KEY}.{_os.getpid()}.tmp"
        ancient.write_bytes(b"forgotten")
        old = _time.time() - _TMP_MAX_AGE - 60
        _os.utime(ancient, (old, old))

        reopened = SpecStore(store.root)
        assert self._tmp_files(reopened) == []

    def test_successful_save_leaves_no_tmp(self, store):
        store.save(self.KEY, _cold_specs())
        assert self._tmp_files(store) == []
        loaded, rejected = store.load(self.KEY)
        assert loaded is not None and not rejected

    def test_threads_saving_one_key_do_not_collide(self, store):
        """Daemon workers are threads of one process: each writer needs
        its own tmp file, or one thread's rename takes the other's file
        away (FileNotFoundError)."""
        import sys
        import threading

        specs = _cold_specs()
        failures = []
        start = threading.Barrier(8)

        def writer():
            start.wait()
            try:
                for _ in range(50):
                    store.save(self.KEY, specs)
            except Exception as exc:  # relayed to the assertion below
                failures.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave writers between bytecodes
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        loaded, rejected = store.load(self.KEY)
        assert loaded is not None and not rejected
        assert self._tmp_files(store) == []
