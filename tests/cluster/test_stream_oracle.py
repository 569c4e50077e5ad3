"""The compiled cluster stream against its per-op definition.

The coordinator's demand probe and every shard's routing work on the
compiled op stream with vectorized array passes.  The per-op reference
for both is :func:`repro.cluster.runner.iter_segment_ops`; these tests
recompute the probe, each shard's routed and per-tenant op counts, and
each shard's migrated-in keys with plain Python loops over that
generator and require the compiled paths to agree exactly.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.cluster.runner import (
    ClusterSpec,
    _probe,
    iter_segment_ops,
    plan_cluster,
    run_shard_job,
    shard_jobs,
    stream_route_counts,
)
from repro.workloads.ycsb import key_index, make_key

SPECS = {
    "plain": ClusterSpec(
        shards=3,
        total_budget_fraction=0.2,
        record_count=300,
        operation_count=900,
        epochs=3,
    ),
    "inserts-tenants": ClusterSpec(
        shards=2,
        total_budget_fraction=0.2,
        workload="YCSB-D",
        record_count=300,
        operation_count=900,
        epochs=3,
        tenants=2,
    ),
    "membership-rotation": ClusterSpec(
        shards=2,
        total_budget_fraction=0.2,
        workload="YCSB-D",
        record_count=300,
        operation_count=900,
        epochs=3,
        membership=((1, "add", 2), (2, "remove", 0)),
        hotspot_rotate_keys=50,
    ),
}


def _segment_ops(spec: ClusterSpec):
    return iter_segment_ops(
        spec.workload,
        spec.record_count,
        spec.operation_count,
        spec.scale().value_size,
        spec.theta,
        spec.seed,
        spec.epochs,
        spec.hotspot_rotate_keys,
    )


def _oracle(spec: ClusterSpec) -> Dict[str, object]:
    """Probe, routing and handoffs, one op at a time."""
    rings = spec.rings()
    total = spec.total_shards()
    written = [
        [[set() for _ in range(total)] for _ in range(spec.tenants)]
        for _ in range(spec.epochs)
    ]
    inserts: List[List[bytes]] = [[] for _ in range(spec.epochs)]
    routed = [0] * total
    tenant_ops = [[0] * spec.tenants for _ in range(total)]
    migrated_in = [0] * total
    live = [make_key(index) for index in range(spec.record_count)]
    current = 0
    for _, segment, op in _segment_ops(spec):
        while current < segment:
            current += 1
            before, after = rings[current - 1], rings[current]
            if after is not before:
                for key in before.moved_keys(after, live):
                    migrated_in[after.shard_for(key)] += 1
        shard = rings[segment].shard_for(op.key)
        tenant = key_index(op.key) % spec.tenants
        routed[shard] += 1
        tenant_ops[shard][tenant] += 1
        if op.kind == "insert":
            inserts[segment].append(op.key)
            live.append(op.key)
        if op.kind in ("update", "insert", "rmw"):
            written[segment][tenant][shard].add(op.key)
    demands = [
        [[len(keys) for keys in row] for row in epoch] for epoch in written
    ]
    return {
        "demands": demands,
        "inserts": inserts,
        "routed": routed,
        "tenant_ops": tenant_ops,
        "migrated_in": migrated_in,
    }


@pytest.mark.parametrize("name", sorted(SPECS))
def test_probe_matches_iter_segment_ops(name):
    spec = SPECS[name]
    oracle = _oracle(spec)
    demands, inserts = _probe(spec, spec.rings())
    assert demands == oracle["demands"]
    assert inserts == oracle["inserts"]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_stream_route_counts_match_iter_segment_ops(name):
    spec = SPECS[name]
    oracle = _oracle(spec)
    counts = stream_route_counts(spec)
    assert counts["demands"] == oracle["demands"]
    assert counts["inserted"] == [len(keys) for keys in oracle["inserts"]]
    assert counts["routed_ops"] == oracle["routed"]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_shard_replay_matches_iter_segment_ops(name):
    """Each shard serves exactly its ops and receives exactly its keys."""
    spec = SPECS[name]
    oracle = _oracle(spec)
    for job in shard_jobs([plan_cluster(spec)]):
        payload = run_shard_job(job)["result"]
        assert payload["routed_ops"] == oracle["routed"][job.shard]
        assert payload["ops_executed"] == oracle["routed"][job.shard]
        assert payload["tenant_ops"] == oracle["tenant_ops"][job.shard]
        if spec.membership:
            assert (
                payload["migrated_in_keys"] == oracle["migrated_in"][job.shard]
            )
