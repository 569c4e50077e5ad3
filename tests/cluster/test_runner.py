"""Cluster runner mechanics: routing, planning, leases, CLI.

Covers the parts between the ring and the report: every global op is
served by exactly one shard, leased budgets actually land on the shard
instances, reactive rebalancing follows observed demand, every planner
event is recorded once for the report and the tracer alike, and the
``repro cluster`` CLI produces the same bytes at any ``--jobs`` count
(and rejects invalid grids cleanly).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.cluster import (
    ClusterGrid,
    ClusterSpec,
    ShardJob,
    plan_cluster,
    run_cluster_grid,
    run_shard_job,
    shard_jobs,
)
from repro.cluster.runner import _probe

SPEC = ClusterSpec(
    shards=3,
    total_budget_fraction=0.2,
    record_count=300,
    operation_count=900,
    epochs=3,
)


def test_every_op_is_served_by_exactly_one_shard():
    """The shard partition is exact: routed ops sum to the global count."""
    plan = plan_cluster(SPEC)
    payloads = [
        run_shard_job(job) for job in shard_jobs([plan])
    ]
    assert (
        sum(p["result"]["routed_ops"] for p in payloads)
        == SPEC.operation_count
    )
    assert (
        sum(p["result"]["ops_executed"] for p in payloads)
        == SPEC.operation_count
    )
    assert (
        sum(p["result"]["records_loaded"] for p in payloads)
        == SPEC.record_count
    )


def test_leased_budget_lands_on_the_shard():
    """A budgeted shard runs at its epoch-0 lease, not a derived budget."""
    plan = plan_cluster(SPEC)
    assert plan.schedules is not None
    job = shard_jobs([plan])[0]
    payload = run_shard_job(job)
    assert payload["result"]["budget_pages"] == plan.schedules[0][0]
    assert payload["result"]["system_kind"] == "viyojit"
    assert payload["result"]["budget_schedule"] == list(plan.schedules[0])


def test_baseline_cluster_runs_full_battery_shards():
    spec = ClusterSpec(
        shards=2,
        total_budget_fraction=None,
        record_count=200,
        operation_count=400,
        epochs=2,
    )
    payload = run_shard_job(shard_jobs([plan_cluster(spec)])[0])
    assert payload["result"]["system_kind"] == "nvdram"
    assert payload["result"]["budget_pages"] is None


def test_reactive_rebalancing_follows_observed_demand():
    """After epoch 0's even split, leases track the prior epoch's skew."""
    plan = plan_cluster(SPEC)
    demands, _ = _probe(SPEC, [SPEC.rings()[0]] * SPEC.epochs)
    for epoch in range(1, SPEC.epochs):
        observed = [
            sum(demands[epoch - 1][tenant][shard] for tenant in range(SPEC.tenants))
            for shard in range(SPEC.shards)
        ]
        leases = [lease.pages for lease in plan.leases[epoch]]
        # The most-demanding shard gets the largest lease.
        assert leases.index(max(leases)) == observed.index(max(observed))


def test_degraded_pool_run_passes_sanitized():
    """Mid-run pool degradation shrinks leases; the shards stay within
    budget under the armed SimulationSanitizer (conftest arms it)."""
    spec = ClusterSpec(
        shards=2,
        total_budget_fraction=0.2,
        record_count=200,
        operation_count=600,
        epochs=3,
        pool_degrade=((1, 0.5),),
    )
    plan = plan_cluster(spec)
    assert plan.capacity_schedule[1] < plan.capacity_schedule[0]
    for job in shard_jobs([plan]):
        payload = run_shard_job(job)
        assert payload["result"]["ops_executed"] == payload["result"]["routed_ops"]


def test_plan_cluster_emits_lease_events_when_traced():
    """A live tracer sees exactly the events the report records.

    A read-only workload starves every tenant's demand signal, and the
    membership schedule adds migrations and budget handoffs, so all
    five coordinator event kinds are covered.
    """
    from repro.obs.tracer import RecordingTracer

    spec = ClusterSpec(
        shards=3,
        total_budget_fraction=0.2,
        workload="YCSB-C",
        record_count=300,
        operation_count=900,
        epochs=3,
        tenants=2,
        membership=((1, "add", 3), (2, "remove", 0)),
    )
    tracer = RecordingTracer()
    plan = plan_cluster(spec, tracer=tracer)
    assert plan.events == [event.as_dict() for event in tracer.events]
    assert {event["type"] for event in plan.events} == {
        "ShardMigration",
        "DemandStarved",
        "ShardRebalance",
        "BudgetLease",
        "BudgetHandoff",
    }
    rebalances = [e for e in plan.events if e["type"] == "ShardRebalance"]
    assert len(rebalances) == spec.epochs
    for event in rebalances:
        assert event["leased_pages"] <= event["capacity_pages"]
    # The untraced plan records the same events.
    assert plan_cluster(spec).events == plan.events


def test_tenant_ops_partition_the_stream():
    spec = ClusterSpec(
        shards=2,
        total_budget_fraction=0.3,
        record_count=200,
        operation_count=400,
        epochs=2,
        tenants=3,
        tenant_quotas=(0.5, 0.25, 0.25),
    )
    payloads = [
        run_shard_job(job) for job in shard_jobs([plan_cluster(spec)])
    ]
    totals = [0, 0, 0]
    for payload in payloads:
        for tenant, count in enumerate(payload["result"]["tenant_ops"]):
            totals[tenant] += count
    assert sum(totals) == spec.operation_count
    assert all(count > 0 for count in totals)


def test_spec_rejects_invalid_tenant_quotas():
    """Quotas are checked when the spec is built, baseline runs included."""
    for quotas in ((0.9, 0.9), (1.0, 0.0), (1.2, -0.2)):
        for fraction in (None, 0.5):
            with pytest.raises(ValueError, match="tenant quotas"):
                ClusterSpec(
                    shards=2,
                    total_budget_fraction=fraction,
                    tenants=2,
                    tenant_quotas=quotas,
                )
    with pytest.raises(ValueError, match="tenant quotas"):
        ClusterGrid(
            total_budgets_gb=(None,), tenants=2, tenant_quotas=(0.9, 0.9)
        )
    valid = ClusterSpec(
        shards=2,
        total_budget_fraction=0.5,
        tenants=2,
        tenant_quotas=(0.7, 0.3),
    )
    assert valid.quotas() == (0.7, 0.3)


def test_spec_and_job_validation():
    with pytest.raises(ValueError):
        ClusterSpec(shards=0, total_budget_fraction=0.5)
    with pytest.raises(ValueError):
        ClusterSpec(shards=2, total_budget_fraction=-0.1)
    with pytest.raises(ValueError):
        ClusterSpec(shards=2, total_budget_fraction=0.5, workload="nope")
    with pytest.raises(ValueError):
        ClusterSpec(
            shards=2,
            total_budget_fraction=0.5,
            tenants=2,
            tenant_quotas=(1.0,),
        )
    with pytest.raises(ValueError):
        ClusterSpec(
            shards=2, total_budget_fraction=0.5, pool_degrade=((9, 0.5),)
        )
    job_spec = ClusterSpec(
        shards=2,
        total_budget_fraction=None,
        record_count=100,
        operation_count=100,
        epochs=2,
        vnodes=8,
    )
    with pytest.raises(ValueError):
        ShardJob(index=0, shard=5, spec=job_spec, budget_schedule=None)
    with pytest.raises(ValueError):
        ShardJob(
            index=0,
            shard=0,
            spec=job_spec,
            budget_schedule=(10,),  # 1 lease for 2 epochs
        )


def test_grid_expansion_and_round_trip():
    grid = ClusterGrid(
        shard_counts=(1, 4),
        total_budgets_gb=(None, 2.0),
        record_count=100,
        operation_count=200,
    )
    specs = grid.specs()
    assert [spec.shards for spec in specs] == [1, 1, 4, 4]
    assert [spec.total_budget_fraction is None for spec in specs] == [
        True,
        False,
        True,
        False,
    ]
    assert ClusterGrid.from_dict(grid.as_dict()).specs() == specs
    with pytest.raises(ValueError):
        ClusterGrid(shard_counts=())
    with pytest.raises(ValueError):
        ClusterGrid(shard_counts=(2, 2))
    with pytest.raises(ValueError):
        ClusterGrid.from_dict({"bogus_key": 1})


CLUSTER_ARGS = [
    "cluster",
    "--shards", "2",
    "--total-budgets-gb", "2",
    "--records", "200",
    "--ops", "400",
    "--epochs", "2",
]


class TestClusterCommand:
    def test_jobs_1_and_2_write_identical_deterministic_views(
        self, capsys, tmp_path
    ):
        one = tmp_path / "cluster1.json"
        two = tmp_path / "cluster2.json"
        assert main(CLUSTER_ARGS + ["--jobs", "1", "--out", str(one)]) == 0
        assert main(CLUSTER_ARGS + ["--jobs", "2", "--out", str(two)]) == 0
        out = capsys.readouterr().out
        assert "cluster checksum:" in out
        assert "overhead_pct" in out
        first = json.loads(one.read_text())
        second = json.loads(two.read_text())
        first.pop("wall")
        second.pop("wall")
        assert first == second

    def test_strip_wall_writes_the_deterministic_view(self, tmp_path):
        out = tmp_path / "cluster.json"
        argv = CLUSTER_ARGS + ["--out", str(out), "--strip-wall"]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        assert "wall" not in report
        assert report["schema_version"] == 1

    def test_pool_degrade_flag(self, capsys, tmp_path):
        out = tmp_path / "cluster.json"
        argv = CLUSTER_ARGS + [
            "--pool-degrade", "1:0.5",
            "--out", str(out),
            "--strip-wall",
        ]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        run = next(
            r
            for r in report["runs"]
            if r["spec"]["total_budget_fraction"] is not None
        )
        schedule = run["summary"]["pool"]["capacity_schedule"]
        assert schedule[1] < schedule[0]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--shards", "0"], "shards must be positive"),
            (["--total-budgets-gb", "-1"], "budget fraction must be positive"),
            (
                ["--tenants", "2", "--tenant-quotas", "0.9,0.9"],
                "tenant quotas must sum to 1",
            ),
        ],
        ids=["zero-shards", "negative-budget", "quotas-over-1"],
    )
    def test_invalid_grid_exits_2_without_traceback(
        self, capsys, flags, message
    ):
        assert main(CLUSTER_ARGS + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid grid: ")
        assert message in err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1

    def test_list_mentions_cluster(self, capsys):
        assert main(["list"]) == 0
        assert "cluster" in capsys.readouterr().out


def test_run_cluster_grid_rejects_bad_jobs():
    grid = ClusterGrid(
        shard_counts=(1,),
        total_budgets_gb=(2.0,),
        record_count=100,
        operation_count=200,
    )
    with pytest.raises(ValueError):
        run_cluster_grid(grid, jobs=0)
