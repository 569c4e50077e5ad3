"""The benchmark's own tests: metric contract, failure counting, spans.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import copy
import json

import pytest

from perfbench import layers, run, workloads
from perfbench.spans import Installation, SpanTracer, span_wrapper

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny_sweep():
    from repro.parallel.engine import run_sweep
    from repro.parallel.grid import SweepGrid

    grid = SweepGrid(
        workloads=("YCSB-A",),
        budget_fractions=(None, 0.05),
        seeds=(3,),
        record_count=200,
        operation_count=400,
    )
    return [("sweep", run_sweep(grid, jobs=1))]


def _tiny_cluster(jobs=1):
    from repro.cluster.runner import ClusterGrid, run_cluster_grid

    grid = ClusterGrid(
        shard_counts=(2,),
        total_budgets_gb=(6.0,),
        seed=3,
        record_count=300,
        operation_count=900,
        epochs=3,
        predictor="ewma",
        membership=((1, "add", 2),),
    )
    return [("cluster", run_cluster_grid(grid, jobs=jobs))]


def _rechecksum(reports):
    from repro.parallel.report import checksum

    for _, report in reports:
        report["checksum_sha256"] = checksum(report)
    return reports


# -- the metric contract -----------------------------------------------------


def test_printed_metrics_match_benchmark_json():
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert declared == list(run.END_TO_END)
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert declared == list(layers.PER_LAYER)
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS)
    assert sorted(names) == sorted(layers.REQUIRED_LAYERS)


def test_layer_metrics_cover_every_per_layer_name():
    tracer = SpanTracer()
    computed = set(layers.layer_metrics(tracer, _tiny_sweep()))
    added_by_run = {"host.calibration_s", "trace.untraced_kops",
                    "trace.traced_kops", "trace.overhead_ratio"}
    assert computed | added_by_run == {name for name, _ in layers.PER_LAYER}


# -- correctness checks count doctored payloads as failed --------------------


def test_clean_payloads_pass():
    assert workloads.check_pass(_tiny_sweep()) == []
    assert workloads.check_pass(_tiny_cluster()) == []


def test_peak_dirty_over_budget_fails():
    reports = _tiny_sweep()
    result = reports[0][1]["jobs"][1]["result"]
    result["viyojit_stats"]["peak_dirty_pages"] = result["budget_pages"] + 1
    failures = workloads.check_pass(_rechecksum(reports))
    assert any("over budget" in f for f in failures)


def test_retried_job_fails():
    reports = _tiny_sweep()
    reports[0][1]["wall"]["retries"] = 1
    assert any("retries" in f for f in workloads.check_pass(reports))


def test_short_run_and_baseline_ssd_writes_fail():
    reports = _tiny_sweep()
    jobs = reports[0][1]["jobs"]
    jobs[0]["result"]["ssd_bytes_written"] = 4096
    jobs[1]["result"]["ops_executed"] -= 1
    failures = workloads.check_pass(_rechecksum(reports))
    assert any("baseline wrote" in f for f in failures)
    assert any("executed 399 of 400" in f for f in failures)


def test_doctored_report_without_new_checksum_fails():
    reports = _tiny_sweep()
    reports[0][1]["jobs"][1]["result"]["sim_elapsed_ns"] += 1
    assert any("checksum" in f for f in workloads.check_pass(reports))


def test_cluster_lease_and_migration_checks():
    reports = _tiny_cluster()
    run_ = reports[0][1]["runs"][0]
    run_["leases"][0][0]["pages"] += run_["summary"]["pool"]["capacity_schedule"][0]
    run_["shards"][0]["result"]["migrated_in_keys"] = 10**6
    failures = workloads.check_pass(_rechecksum(reports))
    assert any("over pool capacity" in f for f in failures)
    assert any("took in" in f for f in failures)


def test_checksum_drift_counts_the_pass_as_failed(monkeypatch):
    clean = _tiny_sweep()
    drifted = copy.deepcopy(clean)
    drifted[0][1]["jobs"][1]["result"]["sim_elapsed_ns"] += 1
    _rechecksum(drifted)
    passes = iter([clean, drifted])
    monkeypatch.setattr(workloads, "run_pass", lambda grids: next(passes))
    session = run.Session("budget-sweep", seed=3)
    session.run("untraced")
    assert session.failed == 0
    session.run("traced")
    assert session.failed == session.requested
    assert session.attempted == 2 * session.requested
    assert any("sim digest" in f for f in session.failures)


# -- span self times ---------------------------------------------------------


def test_nested_span_self_times_subtract():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 7.0, 10.0, 12.0])
    tracer = SpanTracer(clock=lambda: next(ticks))
    tracer.open("outer.run")  # 0
    tracer.open("a.step")  # 1
    tracer.close()  # 3: a 2s, no children
    tracer.open("a.step")  # 4
    tracer.open("b.leaf")  # 4.5
    tracer.close()  # 7: b 2.5s
    tracer.close()  # 10: a 6s, 3.5s of it its own
    tracer.close()  # 12: outer 12s, 12 - 2 - 6 = 4s its own
    assert tracer.spans["a.step"] == [2, 8.0, 5.5]
    assert tracer.spans["b.leaf"] == [1, 2.5, 2.5]
    assert tracer.spans["outer.run"] == [1, 12.0, 4.0]
    assert tracer.self_time("a") == 5.5
    assert sum(rec[2] for rec in tracer.spans.values()) == 12.0


def test_wrappers_record_spans_and_survive_exceptions():
    tracer = SpanTracer()

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x + 1

    wrapped = span_wrapper(leaf, "leaf.call", tracer)
    assert wrapped(1) == 2
    with pytest.raises(ValueError):
        wrapped(-1)
    assert tracer.calls("leaf.call") == 2
    assert tracer.stack == []


def test_install_rebinds_imports_and_remove_restores():
    import repro.cluster.runner as cluster_runner
    import repro.parallel.worker as worker
    import repro.workloads.compiled as compiled

    original = compiled.open_ops
    inst = Installation(SpanTracer())
    inst.span("repro.workloads.compiled:open_ops", "workloads.open")
    inst.span("repro.no_such_module:thing", "x.y")
    assert worker.open_ops is compiled.open_ops is cluster_runner.open_ops
    assert compiled.open_ops is not original
    assert inst.missing == ["repro.no_such_module:thing"]
    inst.remove()
    assert worker.open_ops is original and cluster_runner.open_ops is original


def test_traced_cluster_brings_worker_spans_home_unchanged():
    untraced = _tiny_cluster(jobs=2)
    tracer = SpanTracer()
    inst = layers.install(tracer)
    try:
        traced = _tiny_cluster(jobs=2)
    finally:
        inst.remove()
    layers.harvest(tracer)
    assert workloads.digest(traced) == workloads.digest(untraced)
    # Shards ran in forked workers; their spans and counters came back.
    assert tracer.calls("cluster.shard") == 3
    assert tracer.counters["mem.tlb_hits"] > 0
    assert {"kvstore", "runtime", "mem", "policy", "cluster"} <= tracer.layers()
    assert layers.TRACE_KEY not in json.dumps(traced)
