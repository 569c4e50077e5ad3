"""Sweep grid and job descriptions.

A :class:`SweepGrid` is the full parameter space of one ``repro sweep``
invocation — workloads x budget fractions x zipf thetas x seeds at one
(record_count, operation_count) scale.  :meth:`SweepGrid.jobs` expands it
into a deterministic, index-stamped list of :class:`SweepJob` descriptors;
the job list (and therefore the merged report) depends only on the grid,
never on how the jobs are scheduled.

Budget fractions follow the repo-wide convention: a fraction of the
initial heap (``None`` = the full-battery NV-DRAM baseline), labelled in
paper-equivalent GB via ``PAPER_HEAP_GB``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Dict, Optional, Tuple

from repro.workloads.ycsb import YCSB_WORKLOADS

#: Budget fractions the CLI uses when none are given: the paper's Fig 7
#: x-axis (2..18 GB against the 17.5 GB heap), thinned to keep the
#: default grid small.
DEFAULT_SWEEP_BUDGETS_GB = (2.0, 6.0, 10.0, 14.0, 18.0)


@dataclass(frozen=True)
class SweepJob:
    """One self-contained point of a sweep grid.

    Carries everything a worker process needs to reproduce the run from
    scratch; pickled across the process boundary.  ``index`` is the job's
    position in the grid expansion and keys the merge order.
    """

    index: int
    workload: str
    budget_fraction: Optional[float]  # None = full-battery baseline
    theta: float
    seed: int
    record_count: int
    operation_count: int
    timeout_s: Optional[float] = None
    # Test hook: when set, a pool worker touches this file and SIGKILLs
    # itself on the job's first attempt (see repro.parallel.worker).
    fault_kill_once_path: Optional[str] = None
    # Path to a pre-compiled ``.ops`` stream the worker opens read-only
    # (np.memmap) instead of regenerating the ops.  Purely an execution
    # detail — the stream is checked against the job's own parameters,
    # so it can never change the payload.
    ops_path: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data.pop("timeout_s")
        data.pop("fault_kill_once_path")
        # An execution detail like timeout_s, never identity: the report
        # bytes must not depend on whether a compiled stream backed the
        # run.
        data.pop("ops_path")
        return data


@dataclass(frozen=True)
class SweepGrid:
    """The parameter space of one sweep."""

    workloads: Tuple[str, ...] = ("YCSB-A",)
    budget_fractions: Tuple[Optional[float], ...] = (None, 0.175)
    thetas: Tuple[float, ...] = (0.99,)
    seeds: Tuple[int, ...] = (42,)
    record_count: int = 2_000
    operation_count: int = 6_000

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError("grid needs at least one workload")
        for name in self.workloads:
            if name not in YCSB_WORKLOADS:
                raise ValueError(
                    f"unknown workload {name!r}; choose from "
                    f"{sorted(YCSB_WORKLOADS)}"
                )
        if not self.budget_fractions:
            raise ValueError("grid needs at least one budget fraction")
        for fraction in self.budget_fractions:
            if fraction is not None and fraction <= 0:
                raise ValueError(f"budget fraction must be positive: {fraction}")
        if len(set(self.budget_fractions)) != len(self.budget_fractions):
            raise ValueError("duplicate budget fractions in grid")
        if not self.thetas:
            raise ValueError("grid needs at least one theta")
        for theta in self.thetas:
            if not 0 < theta < 1:
                raise ValueError(f"theta must be in (0, 1): {theta}")
        if not self.seeds:
            raise ValueError("grid needs at least one seed")
        if self.record_count <= 0:
            raise ValueError(f"record_count must be positive: {self.record_count}")
        if self.operation_count <= 0:
            raise ValueError(
                f"operation_count must be positive: {self.operation_count}"
            )

    def jobs(
        self, timeout_s: Optional[float] = None
    ) -> Tuple[SweepJob, ...]:
        """The grid's deterministic job expansion.

        Nesting order (workload, budget, theta, seed) is part of the
        on-disk contract: job indices key the merged report.
        """
        out = []
        index = 0
        for workload in self.workloads:
            for fraction in self.budget_fractions:
                for theta in self.thetas:
                    for seed in self.seeds:
                        out.append(
                            SweepJob(
                                index=index,
                                workload=workload,
                                budget_fraction=fraction,
                                theta=theta,
                                seed=seed,
                                record_count=self.record_count,
                                operation_count=self.operation_count,
                                timeout_s=timeout_s,
                            )
                        )
                        index += 1
        return tuple(out)

    def as_dict(self) -> Dict[str, object]:
        return {
            "workloads": list(self.workloads),
            "budget_fractions": list(self.budget_fractions),
            "thetas": list(self.thetas),
            "seeds": list(self.seeds),
            "record_count": self.record_count,
            "operation_count": self.operation_count,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepGrid":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown grid keys: {sorted(unknown)}")
        kwargs: Dict[str, object] = {}
        for key, value in data.items():
            kwargs[key] = tuple(value) if isinstance(value, list) else value
        return cls(**kwargs)  # type: ignore[arg-type]

    @classmethod
    def from_file(cls, path: str) -> "SweepGrid":
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError(f"grid file {path} must hold a JSON object")
        return cls.from_dict(data)
