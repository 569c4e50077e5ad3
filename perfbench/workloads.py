"""The benchmark's workloads: seeded grids, one pass each, and checks.

Every workload is a closed run of a fixed, seeded op stream through the
program's public entry points, ``repro.parallel.engine.run_sweep`` and
``repro.cluster.runner.run_cluster_grid``.  The benchmark builds the
grids from ``--seed``; the program only ever sees the grids.  See
README.md beside this file for why each workload exists.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Sequence, Tuple

from perfbench.layers import MIB, dirty_peaks

RECORDS = 4_000
OPS = 16_000
#: YCSB-E's scans cost ~10x a point op; at OPS they hid the other mixes.
SCAN_OPS = 1_500
#: Full-battery baseline plus Viyojit at 2..50% of the initial heap.
SWEEP_BUDGETS = (None, 0.02, 0.05, 0.11, 0.175, 0.5)
READ_MIX_BUDGET = 0.11
#: Pool workers for cluster-shift: the 2 cores of the measuring machine.
CLUSTER_JOBS = 2

WRITE_KINDS = ("update", "rmw", "insert")


def run_pass(grids: Sequence[Tuple[str, object]]) -> List[Tuple[str, dict]]:
    """Run every grid once through the public entry points."""
    from repro.cluster.runner import run_cluster_grid
    from repro.parallel.engine import run_sweep

    reports = []
    for kind, grid in grids:
        if kind == "sweep":
            reports.append((kind, run_sweep(grid, jobs=1)))
        else:
            reports.append((kind, run_cluster_grid(grid, jobs=CLUSTER_JOBS)))
    return reports


def _sweep(workloads, budgets, seed: int, ops: int):
    from repro.parallel.grid import SweepGrid

    return (
        "sweep",
        SweepGrid(
            workloads=tuple(workloads),
            budget_fractions=tuple(budgets),
            thetas=(0.99,),
            seeds=(seed,),
            record_count=RECORDS,
            operation_count=ops,
        ),
    )


def budget_sweep(seed: int) -> List[Tuple[str, object]]:
    return [_sweep(("YCSB-A",), SWEEP_BUDGETS, seed, OPS)]


def read_mix(seed: int) -> List[Tuple[str, object]]:
    return [
        _sweep(("YCSB-B", "YCSB-C", "YCSB-F"), (READ_MIX_BUDGET,), seed, OPS),
        _sweep(("YCSB-E",), (READ_MIX_BUDGET,), seed, SCAN_OPS),
    ]


def cluster_shift(seed: int) -> List[Tuple[str, object]]:
    from repro.cluster.runner import ClusterGrid

    return [
        (
            "cluster",
            ClusterGrid(
                shard_counts=(4,),
                total_budgets_gb=(2.0, 6.0),
                workload="YCSB-A",
                theta=0.99,
                seed=seed,
                record_count=RECORDS,
                operation_count=OPS,
                epochs=6,
                pool_degrade=((3, 0.25),),
                predictor="ewma",
                churn_cap_pages=64,
                membership=((2, "add", 4), (4, "remove", 0)),
                hotspot_rotate_keys=400,
            ),
        )
    ]


#: Workload name -> grid builder (seed -> [(kind, grid)]).
WORKLOADS: Dict[str, Callable[[int], List[Tuple[str, object]]]] = {
    "budget-sweep": budget_sweep,
    "read-mix": read_mix,
    "cluster-shift": cluster_shift,
}


def load(name: str, seed: int) -> List[Tuple[str, object]]:
    """Import the entry points and build the grids: the set-up a user pays."""
    import repro.cluster.runner  # noqa: F401 - entry point
    import repro.parallel.engine  # noqa: F401 - entry point

    return WORKLOADS[name](seed)


def pass_ops(reports: Sequence[Tuple[str, dict]]) -> int:
    """Simulated YCSB ops a pass completed (routed shard ops for clusters)."""
    total = 0
    for kind, report in reports:
        if kind == "sweep":
            total += sum(e["result"]["ops_executed"] for e in report["jobs"])
        else:
            total += sum(run["summary"]["routed_ops"] for run in report["runs"])
    return total


def requested_ops(grids: Sequence[Tuple[str, object]]) -> int:
    """Ops a pass is asked to run — what a failed pass counts as failed."""
    total = 0
    for kind, grid in grids:
        if kind == "sweep":
            total += len(grid.jobs()) * grid.operation_count
        else:
            total += len(grid.specs()) * grid.operation_count
    return total


def check_pass(reports: Sequence[Tuple[str, dict]]) -> List[str]:
    """Correctness failures of one pass (empty when it is correct)."""
    from repro.parallel.report import checksum

    failures: List[str] = []
    for kind, report in reports:
        if checksum(report) != report["checksum_sha256"]:
            failures.append(f"{kind}: checksum does not cover the report")
        if report["wall"]["retries"]:
            failures.append(f"{kind}: {report['wall']['retries']} job retries")
        if kind == "sweep":
            failures.extend(_check_sweep(report))
        else:
            failures.extend(_check_cluster(report))
    for peak, bound in dirty_peaks(reports):
        if peak > bound:
            failures.append(f"peak dirty {peak} pages over budget {bound}")
    return failures


def _check_sweep(report: dict) -> List[str]:
    failures = []
    for entry in report["jobs"]:
        job, result = entry["job"], entry["result"]
        label = f"sweep job {job['index']} ({job['workload']})"
        if result["ops_executed"] != job["operation_count"]:
            failures.append(
                f"{label}: executed {result['ops_executed']} of "
                f"{job['operation_count']} ops"
            )
        if job["budget_fraction"] is None and result["ssd_bytes_written"]:
            failures.append(f"{label}: full-battery baseline wrote to the SSD")
    return failures


def _check_cluster(report: dict) -> List[str]:
    failures = []
    for number, run in enumerate(report["runs"]):
        label = f"cluster run {number}"
        routed = 0
        for shard in run["shards"]:
            result = shard["result"]
            routed += result["routed_ops"]
            if result["ops_executed"] != result["routed_ops"]:
                failures.append(
                    f"{label} shard {result['shard']}: executed "
                    f"{result['ops_executed']} of {result['routed_ops']} ops"
                )
        if routed != run["spec"]["operation_count"]:
            failures.append(
                f"{label}: shards routed {routed} of "
                f"{run['spec']['operation_count']} ops"
            )
        capacity = run["summary"]["pool"]["capacity_schedule"]
        for epoch, leases in enumerate(run["leases"]):
            leased = sum(lease["pages"] for lease in leases)
            if leased > capacity[epoch]:
                failures.append(
                    f"{label} epoch {epoch}: leases {leased} over pool "
                    f"capacity {capacity[epoch]}"
                )
        moved = sum(m["moved_keys"] for m in run.get("migrations", []))
        migrated_in = sum(
            shard["result"].get("migrated_in_keys", 0) for shard in run["shards"]
        )
        if migrated_in != moved:
            failures.append(
                f"{label}: shards took in {migrated_in} keys, "
                f"migrations moved {moved}"
            )
    return failures


def digest(reports: Sequence[Tuple[str, dict]]) -> str:
    """One sha256 over the pass's report checksums (the sim digest)."""
    joined = "\n".join(report["checksum_sha256"] for _, report in reports)
    return hashlib.sha256(joined.encode("ascii")).hexdigest()


def sim_metrics(reports: Sequence[Tuple[str, dict]]) -> Dict[str, float]:
    """The simulated (virtual-time) end-to-end results; exact."""
    ops = 0
    sim_ns = 0
    ssd_bytes = 0
    write_p99_ms = 0.0
    for kind, report in reports:
        if kind == "sweep":
            results = [
                e["result"] for e in report["jobs"]
                if e["result"]["system_kind"] == "viyojit"
            ]
            ops += sum(r["ops_executed"] for r in results)
            sim_ns += sum(r["sim_elapsed_ns"] for r in results)
        else:
            results = []
            for run in report["runs"]:
                # Shards serve concurrently: a run lasts as long as its
                # slowest shard.
                ops += run["summary"]["total_ops"]
                sim_ns += run["summary"]["slowest_shard_ns"]
                results.extend(
                    s["result"] for s in run["shards"]
                    if s["result"]["system_kind"] == "viyojit"
                )
        for result in results:
            ssd_bytes += result["ssd_bytes_written"]
            for kind_name in WRITE_KINDS:
                latency = result["latency_ms"].get(kind_name)
                if latency is not None and latency["count"]:
                    write_p99_ms = max(write_p99_ms, latency["p99_ms"])
    return {
        "sim_kops": ops / (sim_ns / 1e9) / 1e3,
        "sim_write_p99_us": write_p99_ms * 1e3,
        "sim_ssd_mib": ssd_bytes / MIB,
    }
