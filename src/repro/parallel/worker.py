"""Sweep worker: one self-contained job, executed from scratch.

:func:`run_sweep_job` is the module-level (picklable) entry point the
engine submits to its process pool; it rebuilds the full simulation from
the job's seed and replays its compiled op stream.  Every
simulated quantity in the returned payload is a pure function of the
job, so a retried or re-scheduled job produces the identical payload —
the foundation of the sweep's cross-``--jobs`` byte-identity.  Wall time
is measured through :func:`repro.perf.timer.best_of` (the sanctioned
wall-clock site) and reported separately.

The hermetic protocol itself — fault hook (:func:`maybe_kill_once`),
per-job timeout (:func:`arm_job_timeout` / :func:`disarm_job_timeout`)
and the timed ``{job, result, wall_s}`` payload — is
:func:`run_hermetic`, shared with the cluster shard worker
(:mod:`repro.cluster.runner`).
"""

from __future__ import annotations

import os
import signal
import threading
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.bench.runner import ExperimentScale, RunResult, run_workload
from repro.parallel.grid import SweepJob
from repro.perf.timer import best_of
from repro.workloads.compiled import compile_workload, open_ops, save_ops
from repro.workloads.ycsb import YCSB_WORKLOADS


class SweepTimeout(RuntimeError):
    """A job exceeded its per-job timeout."""


def result_payload(result: RunResult) -> Dict[str, object]:
    """The deterministic (simulated-only) view of one run."""
    stats = None
    if result.viyojit_stats is not None:
        stats = {
            key: value
            for key, value in result.viyojit_stats.items()
            if key != "dirty_samples"
        }
    return {
        "system_kind": result.system_kind,
        "budget_pages": result.budget_pages,
        "ops_executed": result.ops_executed,
        "sim_elapsed_ns": result.elapsed_ns,
        "throughput_kops": round(result.throughput_kops, 3),
        "ssd_bytes_written": result.ssd_bytes_written,
        "avg_write_rate_mb_s": round(result.avg_write_rate_mb_s, 3),
        "latency_ms": {
            kind: {
                "count": summary.count,
                "avg_ms": round(summary.avg_ms, 6),
                "p99_ms": round(summary.p99_ms, 6),
            }
            for kind, summary in sorted(result.latency.items())
        },
        "viyojit_stats": stats,
    }


def maybe_kill_once(path: Optional[str], label: str) -> None:
    """Fault hook: die hard on the first attempt, marked by a touch-file.

    Creating the marker *before* the kill means the retry finds it and
    proceeds normally — exactly one induced crash per marker path.
    """
    if path is None or os.path.exists(path):
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"killed {label}\n")
    os.kill(os.getpid(), signal.SIGKILL)


class HermeticJob(Protocol):
    """What :func:`run_hermetic` needs of a job descriptor."""

    @property
    def timeout_s(self) -> Optional[float]: ...

    @property
    def fault_kill_once_path(self) -> Optional[str]: ...

    def as_dict(self) -> Dict[str, object]: ...


def run_hermetic(
    job: HermeticJob,
    label: str,
    in_worker: bool,
    execute: Callable[[], Dict[str, object]],
) -> Dict[str, object]:
    """Run one job under the hermetic-worker protocol; return its payload.

    ``in_worker`` is set by the pool entry points: the SIGKILL fault
    hook only arms inside a sacrificial worker process, and the SIGALRM
    timeout only on a main thread (a pool worker's, or a serial run's).
    ``execute`` produces the job's deterministic result; its wall time
    is measured through the sanctioned timer and reported beside it, as
    ``{job, result, wall_s}``.  Sweep and shard jobs both run this.
    """
    if in_worker:
        maybe_kill_once(job.fault_kill_once_path, label)
    alarmed = arm_job_timeout(job.timeout_s, label)
    try:
        holder: Dict[str, Dict[str, object]] = {}

        def one_pass() -> None:
            holder["result"] = execute()

        wall_s = best_of(1, one_pass)
    finally:
        if alarmed:
            disarm_job_timeout()
    return {
        "job": job.as_dict(),
        "result": holder["result"],
        "wall_s": wall_s,
    }


def run_sweep_job(job: SweepJob, in_worker: bool = False) -> Dict[str, object]:
    """Run one sweep job and return its mergeable payload."""
    scale = ExperimentScale(
        record_count=job.record_count,
        operation_count=job.operation_count,
        zipf_theta=job.theta,
        seed=job.seed,
    )

    def execute() -> Dict[str, object]:
        # A pre-compiled stream is opened read-only (np.memmap,
        # mode="r"): any number of workers can share the parent's one
        # compilation through the page cache, and nothing in a worker
        # can write to it.  A job without one compiles its stream
        # in-process.
        compiled = (
            open_ops(job.ops_path) if job.ops_path is not None else None
        )
        return result_payload(
            run_workload(
                YCSB_WORKLOADS[job.workload],
                scale,
                job.budget_fraction,
                compiled=compiled,
            )
        )

    return run_hermetic(
        job, f"job {job.index} ({job.workload})", in_worker, execute
    )


def arm_job_timeout(timeout_s: Optional[float], label: str) -> bool:
    """Arm a SIGALRM-based per-job timeout; returns whether armed.

    Signals only work on the main thread, which is where both pool
    workers and the serial fallback run jobs.
    """
    if timeout_s is None or timeout_s <= 0:
        return False
    if threading.current_thread() is not threading.main_thread():
        return False

    def _on_alarm(signum: int, frame: Optional[object]) -> None:
        raise SweepTimeout(f"{label} exceeded {timeout_s}s")

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    return True


def disarm_job_timeout() -> None:
    """Cancel a timeout armed by :func:`arm_job_timeout`."""
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def pool_run_job(job: SweepJob) -> Dict[str, object]:
    """Process-pool entry point (arms the worker-only fault hooks)."""
    return run_sweep_job(job, in_worker=True)


def materialize_ops_paths(
    jobs: Sequence[SweepJob], directory: str
) -> List[SweepJob]:
    """Compile each distinct op stream of ``jobs`` once, into ``directory``.

    Runs in the *parent* before any worker starts: jobs differing only
    in budget share one ``.ops`` file, so a whole sweep generates its
    workload exactly once instead of once per job.  Returns the jobs
    with ``ops_path`` set (an execution detail — payload bytes cannot
    change, because the worker checks the stream against the job).
    """
    paths: Dict[Tuple[str, float, int, int, int], str] = {}
    out: List[SweepJob] = []
    for job in jobs:
        key = (
            job.workload,
            job.theta,
            job.seed,
            job.record_count,
            job.operation_count,
        )
        path = paths.get(key)
        if path is None:
            scale = ExperimentScale(
                record_count=job.record_count,
                operation_count=job.operation_count,
                zipf_theta=job.theta,
                seed=job.seed,
            )
            stream = compile_workload(
                YCSB_WORKLOADS[job.workload],
                job.record_count,
                job.operation_count,
                value_size=scale.value_size,
                theta=job.theta,
                seed=job.seed,
            )
            path = os.path.join(directory, f"sweep-{len(paths)}.ops")
            save_ops(stream, path)
            paths[key] = path
        out.append(replace(job, ops_path=path))
    return out
