"""A small LRU cache shared by the solver's memoisation layers.

One implementation serves the per-context caches
(:mod:`repro.arith.context`), the module-level DNF memo
(:mod:`repro.arith.formula`) and the FM cube-satisfiability memo
(:mod:`repro.arith.fm`), so the eviction policy and its accounting live
in exactly one place.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

#: Private miss sentinel for :meth:`LRUCache.get`.  Distinguishing a miss
#: from a stored value by identity with the *caller's* default would treat
#: a legitimately cached value that happens to be that default (``None``,
#: ``False``, ``0``, ...) as a miss and never promote it in the LRU order.
_MISS = object()


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Evictions are counted on the cache itself (``evictions``) and, when a
    *stats* sink with an ``evictions`` attribute is supplied (e.g.
    :class:`repro.arith.context.SolverStats`), mirrored there too.
    """

    __slots__ = ("maxsize", "evictions", "_data", "_stats")

    def __init__(self, maxsize: int, stats: Optional[object] = None):
        if maxsize <= 0:
            raise ValueError("LRU cache size must be positive")
        self.maxsize = maxsize
        self.evictions = 0
        self._data: OrderedDict = OrderedDict()
        self._stats = stats

    def get(self, key, default=None):
        hit = self._data.get(key, _MISS)
        if hit is _MISS:
            return default
        try:
            self._data.move_to_end(key)
        except KeyError:
            # Lost a race with a concurrent evict/clear (daemon worker
            # threads share the module-level caches).  The value we
            # read is still a valid memo result.
            pass
        return hit

    def put(self, key, value) -> None:
        data = self._data
        if key in data:
            data[key] = value
            try:
                data.move_to_end(key)
            except KeyError:
                pass  # concurrently evicted: fall through to re-insert
            else:
                return
        if len(data) >= self.maxsize:
            try:
                data.popitem(last=False)
            except KeyError:
                pass  # concurrently cleared: nothing left to evict
            else:
                self.evictions += 1
                if self._stats is not None:
                    self._stats.evictions += 1
        data[key] = value

    def clear(self, reset_evictions: bool = False) -> None:
        """Drop every entry.

        The backing dict is *swapped* for a fresh one rather than cleared
        in place: a concurrent reader (a daemon worker mid-query) that
        already fetched the old mapping
        keeps probing a consistent -- merely stale -- memo, instead of
        racing ``dict.clear`` mid-iteration.  Memo entries are pure
        functions of their keys, so serving a stale hit is always correct.
        """
        self._data = OrderedDict()
        if reset_evictions:
            self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data
