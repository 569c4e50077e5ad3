"""The one data path against a snapshot recorded before it existed.

``fixtures/sim_snapshot.json`` holds the simulation snapshot
(:func:`tests.perf.test_sim_invisibility._snapshot`: ops, simulated
elapsed time, SSD bytes, policy stats, per-kind latency count/avg/p99)
of every YCSB workload on Viyojit at a 17.5% budget and on the
full-battery baseline, plus the YCSB-A runs with every substrate fast
path switched off.  It was recorded while the simulator still carried a
separate per-op store path, a fused batched twin and two memory
kernels; the single path that replaced them must reproduce it exactly.

Regenerate only for an intentional change to the simulated model::

    PYTHONPATH=src:. python tests/perf/test_sim_snapshot.py
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.bench.runner import ExperimentScale, run_workload
from repro.workloads.ycsb import YCSB_WORKLOADS

from tests.perf.test_sim_invisibility import _disable_fast_paths, _snapshot

FIXTURE = Path(__file__).parent / "fixtures" / "sim_snapshot.json"
SCALE = ExperimentScale(record_count=800, operation_count=2_500)
SYSTEMS = {"viyojit": 0.175, "nvdram": None}
DEOPTIMIZED = "YCSB-A"


def _run(name: str, system: str) -> dict:
    result = run_workload(YCSB_WORKLOADS[name], SCALE, SYSTEMS[system])
    # JSON-normalized (tuples become lists), like the fixture.
    return json.loads(json.dumps(_snapshot(result)))


def record() -> dict:
    """Every snapshot the fixture pins, keyed ``workload/system[/deopt]``."""
    out = {
        f"{name}/{system}": _run(name, system)
        for name in sorted(YCSB_WORKLOADS)
        for system in SYSTEMS
    }
    with pytest.MonkeyPatch.context() as monkeypatch:
        _disable_fast_paths(monkeypatch)
        for system in SYSTEMS:
            out[f"{DEOPTIMIZED}/{system}/deoptimized"] = _run(
                DEOPTIMIZED, system
            )
    return out


@functools.lru_cache(maxsize=1)
def _recorded() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "name,system",
    [(name, system) for name in sorted(YCSB_WORKLOADS) for system in SYSTEMS],
)
def test_matches_recorded_snapshot(name, system):
    assert _run(name, system) == _recorded()[f"{name}/{system}"]


@pytest.mark.parametrize("system", list(SYSTEMS))
def test_deoptimized_run_matches_recorded_snapshot(monkeypatch, system):
    _disable_fast_paths(monkeypatch)
    assert (
        _run(DEOPTIMIZED, system)
        == _recorded()[f"{DEOPTIMIZED}/{system}/deoptimized"]
        == _recorded()[f"{DEOPTIMIZED}/{system}"]
    )


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
