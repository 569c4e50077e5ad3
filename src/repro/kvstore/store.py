"""Redis-like persistent KV store with all state in NV-DRAM.

On-NVM layout (all integers little-endian):

``header`` mapping (one page)
    ========  =====  =========================================
    offset    bytes  field
    ========  =====  =========================================
    0         8      magic ``b"VIYOKVS1"``
    8         8      number of buckets
    16        8      record count
    24        8      operation counter (metadata churn)
    ========  =====  =========================================

``buckets`` mapping
    ``num_buckets`` 8-byte absolute addresses of chain heads (0 = empty).

records (allocated from the :class:`repro.kvstore.heap.PersistentHeap`)
    ========  =====  =========================================
    offset    bytes  field
    ========  =====  =========================================
    0         8      next record address (0 = end of chain)
    8         4      key length
    12        4      value length
    16        8      LRU clock (Redis ``robj->lru`` analogue)
    24        klen   key bytes
    24+klen   vlen   value bytes
    ========  =====  =========================================

    Like Redis, a fraction of lookups refreshes the record's LRU clock —
    a *store to the record's page* performed by a logically read-only
    operation.  This is the mechanism behind the paper's YCSB-C result:
    a read-only workload still builds up a sizable dirty set, so small
    dirty budgets cost ~7% throughput, and the overhead disappears once
    the budget covers the read-metadata working set (Fig 7c).

``stats`` mapping
    A small pool of metadata pages written round-robin on *every*
    operation, standing in for Redis's internal bookkeeping stores.  This
    reproduces the paper's note that even the read-only YCSB-C workload
    performs store instructions for metadata, keeping a small set of pages
    perpetually dirty.

Because the layout is self-describing, :meth:`KVStore.dump_from_reader`
can parse a *recovered* memory image and return every key-value pair —
the crash tests' ground truth for durability.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.core.runtime import NVDRAMSystem
from repro.kvstore.hashing import fnv1a
from repro.kvstore.heap import PersistentHeap, size_class

MAGIC = b"VIYOKVS1"
RECORD_HEADER = 24
LRU_OFFSET = 16

#: next-address (u64), key length (u32), value length (u32) — the first
#: 16 bytes of a record header, precompiled for the chain-walk hot path.
_RECORD_FIELDS = struct.Struct("<QII")
_U64 = struct.Struct("<Q")
NULL = 0

__all__ = ["KVStore", "KVStoreStats", "fnv1a", "MAGIC", "RECORD_HEADER"]


@dataclass
class KVStoreStats:
    """Operation counters for one store instance."""

    gets: int = 0
    puts: int = 0
    inserts: int = 0
    deletes: int = 0
    rmws: int = 0
    scans: int = 0
    scanned_records: int = 0
    hits: int = 0
    misses: int = 0
    chain_steps: int = 0
    inplace_updates: int = 0
    relocations: int = 0


class KVStore:
    """Hash-table KV store whose buckets, records and metadata are NVM-resident."""

    def __init__(
        self,
        system: NVDRAMSystem,
        num_buckets: int = 4096,
        heap_bytes: int = 16 * 1024 * 1024,
        base_op_cost_ns: int = 22_000,
        metadata_pages: int = 8,
        lru_update_interval: int = 5,
        ordered: bool = False,
        _create: bool = True,
    ) -> None:
        if num_buckets <= 0:
            raise ValueError(f"num_buckets must be positive: {num_buckets}")
        if heap_bytes <= 0:
            raise ValueError(f"heap_bytes must be positive: {heap_bytes}")
        if base_op_cost_ns < 0:
            raise ValueError(f"base_op_cost_ns must be non-negative: {base_op_cost_ns}")
        if metadata_pages <= 0:
            raise ValueError(f"metadata_pages must be positive: {metadata_pages}")
        if lru_update_interval <= 0:
            raise ValueError(
                f"lru_update_interval must be positive: {lru_update_interval}"
            )
        self.system = system
        self.num_buckets = int(num_buckets)
        self.base_op_cost_ns = int(base_op_cost_ns)
        page_size = system.region.page_size

        self.header = system.mmap(page_size)
        self.buckets = system.mmap(self.num_buckets * 8)
        self.stats_region = system.mmap(metadata_pages * page_size)
        self.heap_mapping = system.mmap(heap_bytes)
        self.heap = PersistentHeap(system, self.heap_mapping)
        self.stats = KVStoreStats()
        # key -> bucket link address; fnv1a is pure and the bucket layout
        # is fixed at construction, so memoizing is wall-clock-only.
        self._bucket_cache: Dict[bytes, int] = {}
        self._record_count = 0
        self._op_counter = 0
        self._metadata_pages = int(metadata_pages)
        self._lru_update_interval = int(lru_update_interval)
        # Fixed addresses touched on every operation, resolved once.
        self._metadata_addrs = [
            self.stats_region.addr(page * page_size)
            for page in range(self._metadata_pages)
        ]
        self._opctr_addr = self.header.addr(24)
        self._count_addr = self.header.addr(16)
        # Hot-path bindings, resolved once: the data-path methods (after
        # any class-level patching of the system) and the clock the base
        # operation cost is charged to.
        self._read_at = system.read_at
        self._read = system.read
        self._write = system.write
        self._clock = system._clock
        self._events = system._events
        self._drain = system._drain

        if _create:
            system.write(self.header.base_addr, MAGIC)
            system.write(self.header.addr(8), self.num_buckets.to_bytes(8, "little"))

        # Optional ordered index (skip list) enabling YCSB-E scans — the
        # cross-key support the paper lists as future work.
        if ordered:
            from repro.kvstore.sorted_index import SortedIndex

            self.index: Optional["SortedIndex"] = SortedIndex(
                system, self.heap, create=_create
            )
        else:
            self.index = None

        if not _create:
            self._recover_state()

    @classmethod
    def recover(
        cls,
        system: NVDRAMSystem,
        num_buckets: int = 4096,
        heap_bytes: int = 16 * 1024 * 1024,
        **kwargs,
    ) -> "KVStore":
        """Re-open a store whose image already lives in the region.

        The layout is deterministic (construction order fixes every
        mapping's address), so re-creating the mappings with the same
        parameters lines them up with the recovered structures.  Allocator
        state and record counts are rebuilt by walking the on-NVM chains.
        """
        return cls(
            system, num_buckets=num_buckets, heap_bytes=heap_bytes,
            _create=False, **kwargs,
        )

    def _recover_state(self) -> None:
        """Rebuild in-DRAM bookkeeping from the recovered NVM image."""
        if self.system.read(self.header.base_addr, 8) != MAGIC:
            raise ValueError("bad store magic: image is not a KVStore")
        stored_buckets = int.from_bytes(
            self.system.read(self.header.addr(8), 8), "little"
        )
        if stored_buckets != self.num_buckets:
            raise ValueError(
                f"bucket-count mismatch: stored {stored_buckets}, "
                f"reopened with {self.num_buckets}"
            )
        count = 0
        for index in range(self.num_buckets):
            record = self._read_ptr(self.buckets.addr(index * 8))
            while record != NULL:
                next_addr, key_len, val_len = self._read_record_header(record)
                self.heap.adopt(record, RECORD_HEADER + key_len + val_len)
                count += 1
                record = next_addr
        self._record_count = count
        self._op_counter = int.from_bytes(
            self.system.read(self.header.addr(24), 8), "little"
        )
        if self.index is not None:
            self.index.recover_nodes()

    # -- low-level helpers ---------------------------------------------------
    #
    # Record headers and pointers are parsed straight out of the backing
    # page (``read_at``) instead of through an intermediate ``bytes``
    # copy; the charged accesses are the same either way.

    def _bucket_addr(self, key: bytes) -> int:
        addr = self._bucket_cache.get(key)
        if addr is None:
            index = fnv1a(key) % self.num_buckets
            addr = self.buckets.addr(index * 8)
            self._bucket_cache[key] = addr
        return addr

    def _read_ptr(self, addr: int) -> int:
        buffer, offset = self._read_at(addr, 8)
        return 0 if buffer is None else _U64.unpack_from(buffer, offset)[0]

    def _write_ptr(self, addr: int, value: int) -> None:
        self._write(addr, value.to_bytes(8, "little"))

    def _read_record_header(self, addr: int) -> Tuple[int, int, int]:
        buffer, offset = self._read_at(addr, RECORD_HEADER)
        if buffer is None:
            return 0, 0, 0
        return _RECORD_FIELDS.unpack_from(buffer, offset)

    def _find(self, key: bytes) -> Tuple[Optional[int], int]:
        """Walk the chain: returns (record_addr, predecessor_link_addr).

        One 8-byte pointer read, then per step one header read and one
        key read (the helpers above, inlined: this is the hottest loop).
        """
        read_at = self._read_at
        stats = self.stats
        link_addr = self._bucket_addr(key)
        buffer, offset = read_at(link_addr, 8)
        current = 0 if buffer is None else _U64.unpack_from(buffer, offset)[0]
        while current != NULL:
            stats.chain_steps += 1
            buffer, offset = read_at(current, RECORD_HEADER)
            if buffer is None:
                next_addr = key_len = 0
            else:
                next_addr, key_len, _val_len = _RECORD_FIELDS.unpack_from(
                    buffer, offset
                )
            buffer, offset = read_at(current + RECORD_HEADER, key_len)
            if buffer is None:
                matched = bytes(key_len) == key
            else:
                matched = buffer[offset : offset + key_len] == key
            if matched:
                return current, link_addr
            link_addr = current  # next pointer sits at record offset 0
            current = next_addr
        return None, link_addr

    def _touch_metadata(self) -> None:
        """One metadata store per op (Redis-internal bookkeeping analogue)."""
        counter = self._op_counter = self._op_counter + 1
        stamp = counter.to_bytes(8, "little")
        metadata_addr = self._metadata_addrs[counter % self._metadata_pages]
        self._write(metadata_addr, stamp)
        # The header's op counter is the hottest page in the store.
        self._write(self._opctr_addr, stamp)

    def _charge_base(self) -> None:
        # NVDRAMSystem.charge, open-coded: the cost was validated at
        # construction, so only the clock bump and due-event drain remain.
        clock = self._clock
        now = clock._now + self.base_op_cost_ns
        clock._now = now
        if now >= self._events.next_due_at:
            self._drain()

    # -- public operations ------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update ``key``.  Updates are in-place when they fit."""
        if not key:
            raise ValueError("key must be non-empty")
        self._charge_base()
        self.stats.puts += 1
        record, link_addr = self._find(key)
        if record is not None:
            self._update(record, link_addr, key, value)
        else:
            self._insert_new(key, value)
        self._touch_metadata()

    def _update(self, record: int, link_addr: int, key: bytes, value: bytes) -> int:
        """Rewrite a record's value; returns the (possibly new) address."""
        next_addr, key_len, _old_len = self._read_record_header(record)
        needed = RECORD_HEADER + key_len + len(value)
        if size_class(needed) == self.heap.block_size(record):
            # In place: rewrite the value-length field and the value bytes.
            self._write(record + 12, len(value).to_bytes(4, "little"))
            self._write(record + RECORD_HEADER + key_len, value)
            self.stats.inplace_updates += 1
            return record
        # Relocate: write the new record fully, then switch the link.
        new_record = self._write_record(next_addr, key, value)
        self._write_ptr(link_addr, new_record)
        self.heap.free(record)
        self.stats.relocations += 1
        if self.index is not None:
            self.index.insert(key, new_record)
        return new_record

    def _insert_new(self, key: bytes, value: bytes) -> int:
        head_link = self._bucket_addr(key)
        current_head = self._read_ptr(head_link)
        record = self._write_record(current_head, key, value)
        self._write_ptr(head_link, record)
        self._record_count += 1
        self.stats.inserts += 1
        self._write(self._count_addr, self._record_count.to_bytes(8, "little"))
        if self.index is not None:
            self.index.insert(key, record)
        return record

    def _write_record(self, next_addr: int, key: bytes, value: bytes) -> int:
        record = self.heap.alloc(RECORD_HEADER + len(key) + len(value))
        blob = (
            next_addr.to_bytes(8, "little")
            + len(key).to_bytes(4, "little")
            + len(value).to_bytes(4, "little")
            + self._op_counter.to_bytes(8, "little")  # LRU clock
            + key
            + value
        )
        self._write(record, blob)
        return record

    def get(self, key: bytes) -> Optional[bytes]:
        """Look up ``key``; even misses perform a metadata store.

        Every ``lru_update_interval``-th access refreshes the record's
        LRU clock — the Redis-style store performed by a read that the
        paper calls out for read-only YCSB-C.
        """
        if not key:
            raise ValueError("key must be non-empty")
        self._charge_base()
        self.stats.gets += 1
        record, _link = self._find(key)
        self._touch_metadata()
        if record is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if self._op_counter % self._lru_update_interval == 0:
            self._write(
                record + LRU_OFFSET, self._op_counter.to_bytes(8, "little")
            )
        _next, key_len, val_len = self._read_record_header(record)
        return self._read(record + RECORD_HEADER + key_len, val_len)

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns True when it existed."""
        if not key:
            raise ValueError("key must be non-empty")
        self._charge_base()
        self.stats.deletes += 1
        record, link_addr = self._find(key)
        self._touch_metadata()
        if record is None:
            return False
        next_addr, _key_len, _val_len = self._read_record_header(record)
        self._write_ptr(link_addr, next_addr)
        if self.index is not None:
            self.index.delete(key)
        self.heap.free(record)
        self._record_count -= 1
        self._write(self._count_addr, self._record_count.to_bytes(8, "little"))
        return True

    def read_modify_write(self, key: bytes, mutate: Callable[[bytes], bytes]) -> bool:
        """YCSB-F's op: read the value, transform it, write it back."""
        if not key:
            raise ValueError("key must be non-empty")
        self._charge_base()
        self.stats.rmws += 1
        record, link_addr = self._find(key)
        self._touch_metadata()
        if record is None:
            self.stats.misses += 1
            return False
        self.stats.hits += 1
        _next, key_len, val_len = self._read_record_header(record)
        value = self._read(record + RECORD_HEADER + key_len, val_len)
        self._update(record, link_addr, key, mutate(value))
        return True

    def scan(self, start_key: bytes, count: int):
        """YCSB-E's operation: up to ``count`` pairs with key >= start_key.

        Requires ``ordered=True`` at construction (the skip-list index);
        the hash-only store raises, exactly like the paper's Redis did.
        """
        if not start_key:
            raise ValueError("start_key must be non-empty")
        if self.index is None:
            raise RuntimeError(
                "scan requires an ordered store: build KVStore(ordered=True)"
            )
        self._charge_base()
        self.stats.scans += 1
        results = []
        for key, record in self.index.scan(start_key, count):
            _next, key_len, val_len = self._read_record_header(record)
            value = self._read(record + RECORD_HEADER + key_len, val_len)
            results.append((key, value))
        self.stats.scanned_records += len(results)
        self._touch_metadata()
        return results

    def __len__(self) -> int:
        return self._record_count

    # -- recovery-side parsing -----------------------------------------------

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate all pairs by walking the NVM structures (not the cache)."""
        reader = self.system.read
        yield from _walk(reader, self.header.base_addr, self.buckets.base_addr)

    @staticmethod
    def dump_from_reader(
        read: Callable[[int, int], bytes],
        header_addr: int,
        buckets_addr: int,
    ) -> Dict[bytes, bytes]:
        """Parse a (possibly recovered) memory image into a key-value dict.

        ``read(addr, size)`` is any byte source: the live system, a
        recovered region, or backing-store contents.  Raises ``ValueError``
        when the header magic is missing (image corrupt or not a store).
        """
        return dict(_walk(read, header_addr, buckets_addr))


def _walk(
    read: Callable[[int, int], bytes], header_addr: int, buckets_addr: int
) -> Iterator[Tuple[bytes, bytes]]:
    magic = read(header_addr, 8)
    if magic != MAGIC:
        raise ValueError(f"bad store magic: {magic!r}")
    num_buckets = int.from_bytes(read(header_addr + 8, 8), "little")
    for index in range(num_buckets):
        current = int.from_bytes(read(buckets_addr + index * 8, 8), "little")
        while current != NULL:
            header = read(current, RECORD_HEADER)
            next_addr = int.from_bytes(header[0:8], "little")
            key_len = int.from_bytes(header[8:12], "little")
            val_len = int.from_bytes(header[12:16], "little")
            key = read(current + RECORD_HEADER, key_len)
            value = read(current + RECORD_HEADER + key_len, val_len)
            yield key, value
            current = next_addr
