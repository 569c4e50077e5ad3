"""Benchmark command: one workload, timed passes, correctness checks.

Run from the repository root::

    python3 perfbench/run.py --workload budget-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics: passes run untraced until
``--seconds`` is spent (at least two), each timed around the public
entry points, with host times scaled to a reference machine speed by a
calibration loop timed beside them.
``--trace 1`` prints the per-layer metrics: untraced and traced passes
alternate, the traced ones with span wrappers installed from
:mod:`perfbench.layers`, and the simulated outputs of both must agree
byte for byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command
exits 1 when any correctness check fails and 2 when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: End-to-end metrics (name, unit) printed with ``--trace 0``.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("host_kops", "kops/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("completed_ops_ratio", "ratio"),
    ("sim_kops", "kops/sim_s"),
    ("sim_write_p99_us", "us"),
    ("sim_ssd_mib", "MiB"),
)

MIN_PASSES = 2
SETUP_RUNS = 5
CALIBRATION_LOOPS = 1_000_000
#: Seconds the calibration loop takes on the reference machine speed
#: (about its median on a 2-core x86-64 container under CPython 3.11).
CALIBRATION_REFERENCE_S = 0.1


def calibrate() -> float:
    """Host seconds for a fixed pure-Python loop (machine-speed probe)."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds for a fresh interpreter to import and build.

    Scaled to the reference machine speed like ``host_kops``: each run
    is divided by the mean of the calibration loops timed around it.
    """
    code = (
        "import sys; sys.path[:0] = [{root!r}, {src!r}]; "
        "from perfbench.workloads import load; load({name!r}, {seed})"
    ).format(root=str(ROOT), src=str(SRC), name=workload, seed=seed)
    times = []
    before = calibrate()
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], cwd=str(ROOT), check=True, timeout=60
        )
        elapsed = time.perf_counter() - start
        after = calibrate()
        times.append(elapsed * CALIBRATION_REFERENCE_S * 2 / (before + after))
        before = after
    return statistics.median(times)


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest pool worker's, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


class Session:
    """Runs passes of one workload and keeps the correctness ledger."""

    def __init__(self, workload: str, seed: int) -> None:
        from perfbench import workloads

        self.wl = workloads
        self.workload = workload
        self.grids = workloads.load(workload, seed)
        self.requested = workloads.requested_ops(self.grids)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.digest: Optional[str] = None
        self.sim: Dict[str, float] = {}

    def run(self, label: str) -> Tuple[List[Tuple[str, dict]], int, float]:
        """One timed pass; returns (reports, ops completed, host seconds)."""
        self.attempted += self.requested
        start = time.perf_counter()
        reports = self.wl.run_pass(self.grids)
        host_s = time.perf_counter() - start
        problems = self.wl.check_pass(reports)
        digest = self.wl.digest(reports)
        if self.digest is None:
            self.digest = digest
            self.sim = self.wl.sim_metrics(reports)
            for kind, report in reports:
                print(f"checksum {kind} {report['checksum_sha256']}")
            print(f"sim_digest {digest}")
        elif digest != self.digest:
            problems.append(f"{label} pass sim digest {digest} != {self.digest}")
        if problems:
            self.fail(problems)
        return reports, self.wl.pass_ops(reports), host_s

    def fail(self, problems: List[str]) -> None:
        self.failed += self.requested
        self.failures.extend(problems)
        for problem in problems:
            print(f"FAILED: {problem}", file=sys.stderr)


def end_to_end(session: Session, seconds: int, seed: int) -> Dict[str, float]:
    """Untraced passes until ``seconds`` are spent.

    ``host_kops`` is all passes' ops over all passes' host seconds, each
    pass's seconds scaled to the reference machine speed by the
    calibration loop timed just before and after it: the shared host
    this runs on drifts by up to 1.5x over minutes, and the drift hits
    the loop and the simulator alike.
    """
    deadline = time.perf_counter() + seconds
    ops = 0
    scaled_s = 0.0
    raw: List[float] = []
    calibration: List[float] = []
    pass_s: List[float] = []
    rss_mib = 0.0
    while len(raw) < MIN_PASSES or (
        time.perf_counter() + statistics.median(pass_s) / 2 < deadline
    ):
        start = time.perf_counter()
        before = calibrate()
        _, done, host_s = session.run("untraced")
        calibration.append((before + calibrate()) / 2)
        pass_s.append(time.perf_counter() - start)
        raw.append(done / host_s / 1e3)
        ops += done
        scaled_s += host_s * CALIBRATION_REFERENCE_S / calibration[-1]
        if not rss_mib:
            # What one invocation of the entry point costs; later passes
            # only add allocator growth that no user run would see.
            rss_mib = peak_rss_mib()
    print(f"passes {len(raw)} raw host_kops {[round(r, 3) for r in raw]}")
    print(f"calibration_s {[round(c, 4) for c in calibration]}")
    metrics = {
        "host_kops": ops / scaled_s / 1e3,
        "peak_rss_mib": rss_mib,
        "completed_ops_ratio": (session.attempted - session.failed)
        / session.attempted,
    }
    metrics.update(session.sim)
    metrics["setup_s"] = measure_setup(session.workload, seed)
    return metrics


def per_layer(session: Session, seconds: int) -> Dict[str, float]:
    from perfbench import layers
    from perfbench.spans import SpanTracer

    tracer = SpanTracer()
    deadline = time.perf_counter() + seconds
    untraced: List[float] = []
    traced: List[float] = []
    calibration: List[float] = []
    samples: List[Dict[str, float]] = []
    pair_s: List[float] = []
    while not traced or (
        time.perf_counter() + statistics.median(pair_s) / 2 < deadline
    ):
        start = time.perf_counter()
        calibration.append(calibrate())
        _, done, host_s = session.run("untraced")
        untraced.append(done / host_s / 1e3)
        calibration.append(calibrate())
        tracer.reset()
        installed = layers.install(tracer)
        try:
            reports, done, host_s = session.run("traced")
        finally:
            installed.remove()
        layers.harvest(tracer)
        traced.append(done / host_s / 1e3)
        missing = layers.coverage_failures(tracer, session.workload)
        if missing:
            session.fail(missing)
        samples.append(layers.layer_metrics(tracer, reports))
        pair_s.append(time.perf_counter() - start)
    print(f"passes {len(untraced)} untraced + {len(traced)} traced")
    metrics = layers.median_metrics(samples)
    metrics["host.calibration_s"] = statistics.median(calibration)
    metrics["trace.untraced_kops"] = statistics.median(untraced)
    metrics["trace.traced_kops"] = statistics.median(traced)
    metrics["trace.overhead_ratio"] = (
        metrics["trace.untraced_kops"] / metrics["trace.traced_kops"]
    )
    return metrics


def main(argv: List[str]) -> int:
    sys.path[:0] = [str(ROOT), str(SRC)]
    from perfbench.layers import PER_LAYER
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    # The entry points stage compiled op streams in temporary
    # directories; keep them inside the checkout.
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tempfile.tempdir = str(scratch)
    os.environ["TMPDIR"] = str(scratch)

    session = Session(args.workload, args.seed)
    try:
        if args.trace:
            metrics = per_layer(session, args.seconds)
            units = PER_LAYER
        else:
            metrics = end_to_end(session, args.seconds, args.seed)
            units = END_TO_END
    except Exception as exc:  # noqa: BLE001 - a crashed pass is a result
        traceback.print_exc()
        session.fail([f"pass raised {exc!r}"])
        metrics, units = {}, ()
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass
    correct = not session.failures and bool(metrics)
    result = {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
