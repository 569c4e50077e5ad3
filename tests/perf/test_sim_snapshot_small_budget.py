"""The fault-heavy regime pinned against a recorded snapshot.

``fixtures/sim_snapshot_small_budget.json`` holds the simulation snapshot
(:func:`tests.perf.test_sim_invisibility._snapshot`) of YCSB-A and
YCSB-F on Viyojit at 2% and 5% budgets, plus YCSB-A at 2% under every
non-default victim policy.  At these budgets nearly every first write
faults, the victim queue is rebuilt over a handful of candidates, and
synchronous evictions wait on in-flight flushes — the policy path that
the 17.5% snapshot (``test_sim_snapshot.py``) barely reaches.  A change
to the fault handler, flusher, event queue or update history that is
meant to be speed-only must reproduce it exactly.

Regenerate only for an intentional change to the simulated model::

    PYTHONPATH=src:. python tests/perf/test_sim_snapshot_small_budget.py
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Optional

import pytest

from repro.bench.runner import ExperimentScale, YCSBRunner, run_workload
from repro.core.config import ViyojitConfig
from repro.core.policies import POLICY_NAMES
from repro.core.runtime import Viyojit
from repro.sim.events import Simulation
from repro.workloads.ycsb import YCSB_WORKLOADS

from tests.perf.test_sim_invisibility import _snapshot

FIXTURE = Path(__file__).parent / "fixtures" / "sim_snapshot_small_budget.json"
SCALE = ExperimentScale(record_count=800, operation_count=2_500)
DEFAULT_POLICY = ViyojitConfig(dirty_budget_pages=1).victim_policy
#: (workload, budget fraction, victim policy) — ``None`` = the default.
CASES = [
    (name, fraction, None)
    for name in ("YCSB-A", "YCSB-F")
    for fraction in (0.02, 0.05)
] + [
    ("YCSB-A", 0.02, policy)
    for policy in POLICY_NAMES
    if policy != DEFAULT_POLICY
]


def _key(name: str, fraction: float, policy: Optional[str]) -> str:
    return f"{name}/{fraction}/{policy or DEFAULT_POLICY}"


def _run(name: str, fraction: float, policy: Optional[str]) -> dict:
    spec = YCSB_WORKLOADS[name]
    if policy is None:
        result = run_workload(spec, SCALE, fraction)
    else:
        sim = Simulation()
        config = ViyojitConfig(
            dirty_budget_pages=SCALE.budget_pages_for_fraction(fraction),
            victim_policy=policy,
        )
        system = Viyojit(
            sim, num_pages=SCALE.region_pages, config=config,
            machine=SCALE.machine(),
        )
        system.start()
        runner = YCSBRunner(sim, system, SCALE)
        runner.load()
        result = runner.run(spec)
    # JSON-normalized (tuples become lists), like the fixture.
    return json.loads(json.dumps(_snapshot(result)))


def record() -> dict:
    return {_key(*case): _run(*case) for case in CASES}


@functools.lru_cache(maxsize=1)
def _recorded() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case():
    assert sorted(_recorded()) == sorted(_key(*case) for case in CASES)


@pytest.mark.parametrize("name,fraction,policy", CASES, ids=[_key(*c) for c in CASES])
def test_matches_recorded_snapshot(name, fraction, policy):
    assert _run(name, fraction, policy) == _recorded()[_key(name, fraction, policy)]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
