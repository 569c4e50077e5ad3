"""Least-recently-updated victim selection (section 5.2).

At every epoch boundary Viyojit walks the page table, reads and clears the
dirty bits, and folds the result into each page's update history.  The
paper keeps the last 64 epochs (one history bit per epoch, one uint64 per
page).

Victims for copying out are the *least recently updated* pages — the
write-only analogue of LRU.  Pages are ordered by the epoch of their most
recent observed update (older first); ties break toward pages updated in
fewer of the remembered epochs (lower popcount), i.e. less write-popular
pages go first.

A page whose most recent update has scrolled *out* of the remembered
window is indistinguishable from a never-updated page as far as the
hardware history goes, and the ranking treats it exactly so: ranking by
raw absolute epochs would let an update from hundreds of epochs ago
outrank a genuinely-never-updated page forever, inverting coldness among
long-idle pages.

Representation.  The history keeps the updated-page arrays of the last
``history_epochs`` scans plus a per-page update count.  A scan
adds one to the update count of the pages it saw and subtracts one from
the pages of the scan that leaves the window, so it costs O(updated +
dropped) rather than a pass over every page.  Each page also carries one
precomputed *rank key*, ``((last + 1) * 65 + count) * num_pages + pfn``
(``last = -1`` once the page's updates have all left the window), which
only the pages a scan touches need refreshed.  Ascending key order is
ascending ``(last, count, pfn)`` order, so ranking is a gather, a
partition and a sort, and ``key % num_pages`` recovers the page.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Union

import numpy as np

#: Rank-key headroom: ``count`` is at most 64, so ``(last + 1) * 65 +
#: count`` orders by ``last`` first.
_COUNT_RADIX = 65
#: Composite keys stay below this bound (int64 with room to spare).
_KEY_LIMIT = 2**62


class UpdateHistory:
    """Per-page update recency over a sliding window of epochs."""

    def __init__(self, num_pages: int, history_epochs: int = 64) -> None:
        if num_pages <= 0:
            raise ValueError(f"num_pages must be positive: {num_pages}")
        if not 1 <= history_epochs <= 64:
            raise ValueError(f"history_epochs must be in [1, 64]: {history_epochs}")
        self.num_pages = int(num_pages)
        self.history_epochs = int(history_epochs)
        # Updated-page arrays of the remembered scans, oldest first.
        self._window: Deque[np.ndarray] = deque()
        # Epoch of the most recent observed update; -1 = never observed.
        self._last_update = np.full(self.num_pages, -1, dtype=np.int64)
        # Per-page number of remembered scans that saw an update.
        self._counts = np.zeros(self.num_pages, dtype=np.int64)
        # Rank key per page; every page starts never-updated (key = pfn).
        self._keys = np.arange(self.num_pages, dtype=np.int64)
        self.epoch = 0

    def _keys_fit(self) -> bool:
        """Do keys up to the current epoch fit the int64 composite?

        Checked in exact Python arithmetic: numpy wraps int64 overflow
        silently.  Only fails after ~2^56 epochs; from then on the keys
        go stale and ranking takes the three-key lexsort.
        """
        return (self.epoch + 2) * _COUNT_RADIX * self.num_pages < _KEY_LIMIT

    def record_scan(self, updated_pfns: np.ndarray) -> None:
        """Fold one epoch's dirty-bit scan results into the history.

        ``updated_pfns`` are the pages whose dirty bit was set during the
        epoch that just ended (the output of
        :meth:`repro.mem.PageTable.scan_and_clear_dirty`).
        """
        updated = np.array(updated_pfns, dtype=np.int64)
        counts = self._counts
        window = self._window
        window.append(updated)
        touched = updated
        if len(window) > self.history_epochs:
            dropped = window.popleft()
            if len(dropped):
                counts[dropped] -= 1
                touched = np.concatenate((dropped, updated))
        if len(updated):
            counts[updated] += 1
            self._last_update[updated] = self.epoch
        if len(touched) and self._keys_fit():
            # Re-key every page whose count or last update just changed.
            # A page in both arrays gets the same key twice.
            left = counts[touched]
            keys = self._last_update[touched]
            keys += 1
            # A page with no update left in the window keys as never
            # updated (last + 1 == 0).
            keys *= left > 0
            keys *= _COUNT_RADIX
            keys += left
            keys *= self.num_pages
            keys += touched
            self._keys[touched] = keys
        self.epoch += 1

    def last_update_epoch(self, pfn: int) -> int:
        """Epoch of the page's most recent observed update (-1 = never)."""
        return int(self._last_update[pfn])

    def update_count(self, pfn: int) -> int:
        """In how many of the remembered epochs was the page updated?"""
        return int(self._counts[pfn])

    @staticmethod
    def _as_pfn_array(candidates: Union[np.ndarray, Iterable[int]]) -> np.ndarray:
        if isinstance(candidates, np.ndarray):
            return candidates.astype(np.int64, copy=False)
        return np.fromiter(candidates, dtype=np.int64)

    def _ranking_keys(self, pfns: np.ndarray):
        """``(last, counts)`` ranking keys with out-of-window aging.

        A page with no update left in the window (``counts == 0``) ranks
        as never-observed (``last == -1``) instead of carrying its stale
        absolute epoch forever.
        """
        counts = self._counts[pfns]
        last = np.where(counts > 0, self._last_update[pfns], -1)
        return last, counts

    def coldest(self, candidates: Union[np.ndarray, Iterable[int]], k: int) -> List[int]:
        """The ``k`` least-recently-updated pages among ``candidates``.

        Ordered oldest-update first; ties broken by ascending update count
        (less write-popular first), then by page number for determinism.
        Updates older than the window rank as never-observed.

        Gathers the candidates' rank keys, partitions out the ``k``
        smallest, sorts those and maps each back to its page: O(n + k log
        k) per ranking with no per-ranking key arithmetic.
        """
        pfns = self._as_pfn_array(candidates)
        if len(pfns) == 0 or k <= 0:
            return []
        k = min(k, len(pfns))
        if not self._keys_fit():
            last, counts = self._ranking_keys(pfns)
            order = np.lexsort((pfns, counts, last))
            return pfns[order[:k]].tolist()
        keys = self._keys[pfns]
        if k < len(keys):
            keys = np.partition(keys, k - 1)[:k]
        keys.sort()
        return (keys % self.num_pages).tolist()

    def hottest(self, candidates: Union[np.ndarray, Iterable[int]], k: int) -> List[int]:
        """The ``k`` most-recently-updated pages (diagnostics / tests)."""
        pfns = self._as_pfn_array(candidates)
        if len(pfns) == 0 or k <= 0:
            return []
        last, counts = self._ranking_keys(pfns)
        order = np.lexsort((pfns, -counts, -last))
        return pfns[order[: min(k, len(pfns))]].tolist()
