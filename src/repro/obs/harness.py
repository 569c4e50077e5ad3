"""Seeded trace workload: one zipfian write/read mix, fully observable.

This is the workload behind the ``repro trace`` CLI subcommand, the
golden-trace regression fixtures (``tests/obs/golden/``), and their
regeneration helper.  Everything that could perturb the event stream is
pinned: the key distribution, the write offsets, the payload bytes, and
the read schedule are all pure functions of the spec, so two runs with
the same :class:`TraceWorkload` produce byte-identical trace dumps.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterator, Optional, Tuple

from repro.core.config import ViyojitConfig
from repro.core.runtime import (
    FullBatteryNVDRAM,
    HardwareViyojit,
    Mapping,
    NVDRAMSystem,
    Viyojit,
)
from repro.obs.export import events_to_rows
from repro.obs.tracer import RecordingTracer
from repro.sim.events import Simulation
from repro.workloads.distributions import ZipfianGenerator

#: CLI/system-name -> runtime class.
SYSTEM_KINDS = ("viyojit", "nvdram", "hardware")


@dataclass(frozen=True)
class TraceWorkload:
    """One deterministic trace run's full parameterisation."""

    system: str = "viyojit"
    num_pages: int = 192
    dirty_budget_pages: int = 12
    hot_pages: int = 64
    ops: int = 400
    value_bytes: int = 96
    read_every: int = 5          # every Nth op re-reads an earlier write
    seed: int = 7
    theta: float = 0.99

    def __post_init__(self) -> None:
        if self.system not in SYSTEM_KINDS:
            raise ValueError(
                f"unknown system {self.system!r}; choose from {SYSTEM_KINDS}"
            )
        if not 0 < self.hot_pages <= self.num_pages:
            raise ValueError(
                f"hot_pages must be in (0, num_pages={self.num_pages}]: "
                f"{self.hot_pages}"
            )
        if self.ops <= 0:
            raise ValueError(f"ops must be positive: {self.ops}")
        if self.value_bytes <= 0:
            raise ValueError(f"value_bytes must be positive: {self.value_bytes}")
        if self.read_every <= 0:
            raise ValueError(f"read_every must be positive: {self.read_every}")

    def as_meta(self) -> Dict[str, object]:
        meta: Dict[str, object] = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.system == "nvdram":
            meta["dirty_budget_pages"] = None  # baseline has no budget
        return meta


def build_system(
    sim: Simulation, spec: TraceWorkload, tracer: Optional[RecordingTracer] = None
) -> NVDRAMSystem:
    """Construct (and start) the runtime variant named by ``spec.system``."""
    if spec.system == "nvdram":
        system: NVDRAMSystem = FullBatteryNVDRAM(
            sim, num_pages=spec.num_pages, tracer=tracer
        )
    else:
        cls = Viyojit if spec.system == "viyojit" else HardwareViyojit
        system = cls(
            sim,
            num_pages=spec.num_pages,
            config=ViyojitConfig(dirty_budget_pages=spec.dirty_budget_pages),
            tracer=tracer,
        )
    system.start()
    return system


def _payload(op: int, page: int, value_bytes: int) -> bytes:
    stamp = f"op{op:06d}p{page:04d}|".encode()
    repeats = -(-value_bytes // len(stamp))
    return (stamp * repeats)[:value_bytes]


@dataclass(frozen=True)
class WorkloadOp:
    """One operation of the deterministic op stream.

    ``payload`` is the bytes to write for a ``"write"`` op, and the
    expected read-back bytes (the durability oracle) for a ``"read"`` op.
    """

    kind: str  # "write" | "read"
    op: int
    page: int
    offset: int
    payload: bytes


def iter_workload_ops(
    spec: TraceWorkload, page_size: int
) -> Iterator[WorkloadOp]:
    """The op stream of ``spec`` as a pure function of the spec.

    Shared by :func:`run_traced_workload` and the fault-injection /
    crash-point harnesses (:mod:`repro.faults`): every consumer replays
    the exact same zipfian write/read mix, so a crash instant observed in
    one run can be reproduced in another.
    """
    zipf = ZipfianGenerator(spec.hot_pages, theta=spec.theta, seed=spec.seed)
    # page -> (offset, payload) of its latest write, the read-back oracle.
    written: Dict[int, Tuple[int, bytes]] = {}
    for op in range(spec.ops):
        page = zipf.next()
        if written and (op + 1) % spec.read_every == 0:
            # Deterministic re-read of an earlier write: same zipf page
            # if seen, else the most recently written page.
            target = page if page in written else next(reversed(written))
            offset, expect = written[target]
            yield WorkloadOp("read", op, target, offset, expect)
            continue
        payload = _payload(op, page, spec.value_bytes)
        offset = (op * 131) % (page_size - spec.value_bytes)
        written[page] = (offset, payload)
        yield WorkloadOp("write", op, page, offset, payload)


def apply_op(
    system: NVDRAMSystem, mapping: Mapping, page_size: int, wop: WorkloadOp
) -> None:
    """Apply one :class:`WorkloadOp` to a started system.

    Read ops verify the oracle and raise ``AssertionError`` on mismatch —
    in-memory contents surviving the budget machinery is part of what the
    trace harness checks.
    """
    addr = mapping.addr(wop.page * page_size + wop.offset)
    if wop.kind == "read":
        data = system.read(addr, len(wop.payload))
        if data != wop.payload:
            raise AssertionError(
                f"read-back mismatch on page {wop.page} at op {wop.op}"
            )
    else:
        system.write(addr, wop.payload)


def run_traced_workload(
    spec: TraceWorkload,
    tracer: Optional[RecordingTracer] = None,
) -> Dict[str, object]:
    """Replay the spec'd workload and return the full observable dump.

    The returned dict is the ``repro trace`` JSON document: workload
    meta, the ordered event log, the metrics snapshot (counters, gauges,
    histograms, epoch timeline), hardware-substrate counters, and the
    runtime's :class:`~repro.core.stats.ViyojitStats` summary (absent for
    the full-battery baseline, which keeps no such stats).
    """
    if tracer is None:
        tracer = RecordingTracer()
    sim = Simulation()
    system = build_system(sim, spec, tracer)
    page_size = system.region.page_size
    mapping = system.mmap(spec.hot_pages * page_size)

    for wop in iter_workload_ops(spec, page_size):
        apply_op(system, mapping, page_size, wop)

    drain = getattr(system, "drain", None)
    if drain is not None:
        drain()

    return {
        "meta": {"workload": spec.as_meta(), "page_size": page_size},
        "events": events_to_rows(tracer.events),
        "dropped_events": tracer.dropped,
        "metrics": tracer.metrics.snapshot(),
        "stats": (
            system.stats.summary() if hasattr(system, "stats") else None
        ),
        "substrate": {
            "mmu": {
                "read_accesses": system.mmu.read_accesses,
                "write_accesses": system.mmu.write_accesses,
                "faults": system.mmu.faults,
            },
            "tlb": {
                "hits": system.tlb.hits,
                "misses": system.tlb.misses,
                "flushes": system.tlb.flushes,
                "single_invalidations": system.tlb.single_invalidations,
                "capacity_evictions": system.tlb.capacity_evictions,
            },
            "ssd": (
                {
                    "writes": system.ssd.stats.writes,
                    "bytes_written": system.ssd.stats.bytes_written,
                }
                if hasattr(system, "ssd")
                else None
            ),
        },
        "final": {
            "now_ns": sim.now,
            "dirty_pages": (
                len(system.dirty_pages()) if hasattr(system, "tracker") else None
            ),
        },
    }
