"""Per-layer instrumentation: which functions form each layer, and the
per-layer metrics read off spans, public counters and report walls.

Layers are named after the program's modules:

=========  =========================================================
workloads  ``workloads/compiled.py`` (compile, ``.ops`` save/open)
kvstore    ``kvstore/store.py``, ``fastpath.py``, ``sorted_index.py``
runtime    ``core/runtime.py`` data path (read/write/data_path closures)
mem        ``mem/tlb.py``, ``mem/mmu.py`` (incl. the epoch scan)
policy     fault handler, eviction and epoch tick in ``core/runtime.py``,
           ``core/policies.py``, ``history.py``, ``pressure.py``,
           ``dirty_tracker.py``
flusher    ``core/flusher.py``, ``storage/ssd.py``
sim        ``sim/events.py``
runner     ``bench/runner.py`` (the YCSB replay loops)
parallel   ``parallel/engine.py``, ``worker.py``, ``report.py``
cluster    ``cluster/runner.py`` coordinator and shard jobs
=========  =========================================================
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

from perfbench.spans import (
    Installation,
    SpanTracer,
    copy_identity,
    span_wrapper,
)

#: Payload key that carries a pool worker's trace back to the parent.
TRACE_KEY = "__perfbench_trace__"

#: (target, span name).  Targets the program no longer defines are
#: skipped (see perfbench.spans._resolve).
SPANS: Tuple[Tuple[str, str], ...] = (
    ("repro.workloads.compiled:save_ops", "workloads.save"),
    ("repro.workloads.compiled:open_ops", "workloads.open"),
    ("repro.kvstore.store:KVStore.get", "kvstore.get"),
    ("repro.kvstore.store:KVStore.put", "kvstore.put"),
    ("repro.kvstore.store:KVStore.read_modify_write", "kvstore.rmw"),
    ("repro.kvstore.store:KVStore.delete", "kvstore.delete"),
    ("repro.kvstore.store:KVStore.scan", "kvstore.scan"),
    ("repro.kvstore.sorted_index:SortedIndex.scan", "kvstore.scan"),
    ("repro.kvstore.sorted_index:SortedIndex.insert", "kvstore.index"),
    ("repro.kvstore.sorted_index:SortedIndex.find", "kvstore.index"),
    ("repro.core.runtime:NVDRAMSystem.read", "runtime.read"),
    ("repro.core.runtime:NVDRAMSystem.write", "runtime.write"),
    ("repro.core.runtime:NVDRAMSystem.run_ops", "runtime.run_ops"),
    ("repro.core.runtime:NVDRAMSystem.charge", "runtime.charge"),
    ("repro.mem.tlb:TLB.hit", "mem.tlb"),
    ("repro.mem.tlb:TLB.hit_dirty", "mem.tlb"),
    ("repro.mem.tlb:TLB.lookup", "mem.tlb"),
    ("repro.mem.tlb:TLB.invalidate", "mem.tlb"),
    ("repro.mem.tlb:TLB.flush_all", "mem.tlb"),
    ("repro.mem.mmu:MMU.read_cost", "mem.mmu"),
    ("repro.mem.mmu:MMU.write_probe", "mem.mmu"),
    ("repro.mem.mmu:MMU.protect_page", "mem.mmu"),
    ("repro.mem.mmu:MMU.unprotect_page", "mem.mmu"),
    ("repro.mem.mmu:MMU.epoch_scan", "mem.epoch_scan"),
    ("repro.core.runtime:Viyojit._handle_fault", "policy.fault"),
    ("repro.core.runtime:Viyojit._make_room", "policy.evict"),
    ("repro.core.runtime:Viyojit._rebuild_victim_queue", "policy.victims"),
    ("repro.core.runtime:Viyojit._on_epoch", "policy.epoch"),
    ("repro.core.runtime:Viyojit._proactive_flush", "policy.proactive"),
    ("repro.core.runtime:Viyojit._on_flush_cleaned", "policy.cleaned"),
    ("repro.core.runtime:Viyojit.drain_to_budget", "policy.drain"),
    ("repro.core.policies:*.rank", "policy.rank"),
    ("repro.core.history:UpdateHistory.record_scan", "policy.history"),
    ("repro.core.history:UpdateHistory.coldest", "policy.history"),
    ("repro.core.history:UpdateHistory.hottest", "policy.history"),
    ("repro.core.pressure:PressureEstimator.observe", "policy.pressure"),
    ("repro.core.pressure:PressureEstimator.threshold", "policy.pressure"),
    ("repro.core.dirty_tracker:DirtyTracker.add", "policy.tracker"),
    ("repro.core.dirty_tracker:DirtyTracker.remove", "policy.tracker"),
    ("repro.core.dirty_tracker:DirtyTracker.roll_epoch", "policy.tracker"),
    ("repro.core.flusher:Flusher.issue", "flusher.issue"),
    ("repro.storage.ssd:SSD.submit_write", "flusher.ssd"),
    ("repro.sim.events:EventQueue.schedule", "sim.schedule"),
    ("repro.bench.runner:run_workload", "runner.run"),
    ("repro.bench.runner:YCSBRunner.load", "runner.load"),
    ("repro.bench.runner:YCSBRunner.load_batched", "runner.load"),
    ("repro.bench.runner:YCSBRunner.run", "runner.run"),
    ("repro.bench.runner:YCSBRunner.run_batched", "runner.run"),
    ("repro.parallel.worker:materialize_ops_paths", "parallel.materialize"),
    ("repro.cluster.runner:_materialize_grid_stream", "parallel.materialize"),
    ("repro.parallel.worker:run_sweep_job", "parallel.job"),
    ("repro.parallel.report:build_sweep_report", "parallel.merge"),
    ("repro.cluster.report:build_cluster_report", "parallel.merge"),
    ("repro.cluster.runner:plan_cluster", "cluster.plan"),
    ("repro.cluster.runner:_cached_probe", "cluster.probe"),
    ("repro.cluster.runner:_probe", "cluster.probe"),
    ("repro.cluster.runner:_probe_compiled", "cluster.probe"),
    ("repro.cluster.runner:probe_demands", "cluster.probe"),
    ("repro.cluster.runner:run_shard_job", "cluster.shard"),
)

#: Layers that must record spans on each workload (the traced-run
#: coverage self-check).  The cluster layer is idle on serial sweeps.
REQUIRED_LAYERS: Dict[str, Tuple[str, ...]] = {
    "budget-sweep": (
        "workloads", "kvstore", "runtime", "mem", "policy", "flusher",
        "sim", "runner", "parallel",
    ),
    "read-mix": (
        "workloads", "kvstore", "runtime", "mem", "policy", "flusher",
        "sim", "runner", "parallel",
    ),
    "cluster-shift": (
        "workloads", "kvstore", "runtime", "mem", "policy", "flusher",
        "sim", "runner", "parallel", "cluster",
    ),
}

#: Every per-layer metric, in print order, with its unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("workloads.compile_s", "s"),
    ("workloads.ops_compiled", "count"),
    ("kvstore.self_s", "s"),
    ("kvstore.scan_s", "s"),
    ("kvstore.ops", "count"),
    ("kvstore.chain_steps", "count"),
    ("kvstore.scanned_records", "count"),
    ("kvstore.relocations", "count"),
    ("runtime.self_s", "s"),
    ("runtime.reads", "count"),
    ("runtime.writes", "count"),
    ("mem.self_s", "s"),
    ("mem.tlb_hits", "count"),
    ("mem.tlb_misses", "count"),
    ("mem.tlb_hit_ratio", "ratio"),
    ("mem.tlb_flushes", "count"),
    ("mem.tlb_invalidations", "count"),
    ("mem.write_faults", "count"),
    ("mem.epoch_scan_s", "s"),
    ("policy.self_s", "s"),
    ("policy.write_faults", "count"),
    ("policy.sync_evictions", "count"),
    ("policy.proactive_flushes", "count"),
    ("policy.proactive_share", "ratio"),
    ("policy.epochs", "count"),
    ("policy.rank_calls", "count"),
    ("policy.rank_s", "s"),
    ("policy.history_s", "s"),
    ("policy.inflight_waits", "count"),
    ("policy.sim_blocked_ms", "ms"),
    ("policy.peak_dirty_ratio", "ratio"),
    ("flusher.issues", "count"),
    ("flusher.issue_s", "s"),
    ("flusher.retries", "count"),
    ("flusher.ssd_writes", "count"),
    ("flusher.ssd_mib", "MiB"),
    ("sim.events_fired", "count"),
    ("sim.drain_s", "s"),
    ("runner.self_s", "s"),
    ("parallel.jobs", "count"),
    ("parallel.retries", "count"),
    ("parallel.materialize_s", "s"),
    ("parallel.execute_s", "s"),
    ("parallel.merge_s", "s"),
    ("parallel.job_s_max", "s"),
    ("parallel.dispatch_overhead_s", "s"),
    ("cluster.plan_s", "s"),
    ("cluster.probe_s", "s"),
    ("cluster.shard_s_max", "s"),
    ("cluster.lease_churn_pages", "count"),
    ("cluster.misallocation_l1", "count"),
    ("cluster.migrated_keys", "count"),
    ("host.calibration_s", "s"),
    ("trace.untraced_kops", "kops/s"),
    ("trace.traced_kops", "kops/s"),
    ("trace.overhead_ratio", "ratio"),
)

MIB = float(1 << 20)


def _attach_spans(tracer: SpanTracer, owner: object, names: Dict[str, str]):
    """Wrap the callable attributes ``names`` (attr -> span) of ``owner``."""
    for attr, span in names.items():
        fn = getattr(owner, attr)
        wrapped = span_wrapper(fn, span, tracer)
        if hasattr(owner, "_replace"):  # NamedTuple: immutable
            owner = owner._replace(**{attr: wrapped})
        else:
            setattr(owner, attr, wrapped)
    return owner


def install(tracer: SpanTracer) -> Installation:
    """Install every layer's spans and counter hooks; returns the undo."""
    inst = Installation(tracer)
    for target, name in SPANS:
        inst.span(target, name)

    def count_ops(stream):
        tracer.count("workloads.ops_compiled", len(stream))
        return stream

    def count_fired(fired):
        tracer.count("sim.events_fired", fired)
        return fired

    inst.span(
        "repro.workloads.compiled:compile_workload",
        "workloads.compile",
        count_ops,
    )
    inst.span("repro.sim.events:Simulation.drain_due", "sim.drain", count_fired)
    inst.span("repro.sim.events:Simulation.run_until", "sim.drain", count_fired)
    # Closures handed out by factories: wrapped on their way out.
    inst.span(
        "repro.core.runtime:NVDRAMSystem.data_path",
        "runtime.data_path",
        lambda path: _attach_spans(
            tracer,
            path,
            {"read": "runtime.read", "write": "runtime.write",
             "read_at": "runtime.read"},
        ),
    )
    inst.span(
        "repro.kvstore.fastpath:build_fast_ops",
        "kvstore.build",
        lambda ops: _attach_spans(
            tracer,
            ops,
            {"get": "kvstore.get", "put": "kvstore.put", "rmw": "kvstore.rmw"},
        ),
    )

    def capture(bucket: List[object]):
        def make(init):
            def captured(self, *args, **kwargs):
                init(self, *args, **kwargs)
                bucket.append(self)

            return copy_identity(captured, init)

        return make

    inst.replace("repro.core.runtime:NVDRAMSystem.__init__", capture(tracer.systems))
    inst.replace("repro.kvstore.store:KVStore.__init__", capture(tracer.stores))

    def merge_workers(outcome):
        # Pool workers return their trace inside each job payload; take
        # it out before any report is built from the payloads.
        for payload in outcome[0].values():
            snapshot = payload.pop(TRACE_KEY, None)
            if snapshot is not None:
                tracer.merge(snapshot)
        return outcome

    inst.span(
        "repro.parallel.engine:execute_jobs", "parallel.execute", merge_workers
    )

    def traced_dispatch(dispatch):
        # Runs inside a pool worker (forked with the wrappers in place):
        # each job starts from an empty tracer and ships its trace home.
        def run(entry, job):
            tracer.reset()
            payload = dispatch(entry, job)
            harvest(tracer)
            payload[TRACE_KEY] = tracer.export()
            tracer.reset()
            return payload

        return copy_identity(run, dispatch)

    inst.replace("repro.parallel.engine:_dispatch", traced_dispatch)
    return inst


def harvest(tracer: SpanTracer) -> None:
    """Fold the public counters of every captured system and store in.

    Called once the instances are done: at the end of a traced pass in
    this process, and at the end of each job in a pool worker.
    """
    for system in tracer.systems:
        tlb, mmu = system.tlb, system.mmu
        tracer.count("mem.tlb_hits", tlb.hits)
        tracer.count("mem.tlb_misses", tlb.misses)
        tracer.count("mem.tlb_flushes", tlb.flushes)
        tracer.count("mem.tlb_invalidations", tlb.single_invalidations)
        tracer.count("mem.write_faults", mmu.faults)
        stats = getattr(system, "stats", None)
        if stats is None:  # the full-battery baseline has no policy
            continue
        summary = stats.summary()
        for key in (
            "write_faults", "sync_evictions", "proactive_flushes",
            "epochs", "inflight_waits",
        ):
            tracer.count("policy." + key, summary[key])
        tracer.count("policy.sim_blocked_ms", summary["blocked_time_ns"] / 1e6)
        tracer.count("flusher.retries", system.flusher.retries)
        tracer.count("flusher.ssd_writes", system.ssd.stats.writes)
        tracer.count("flusher.ssd_mib", system.ssd.stats.bytes_written / MIB)
    for store in tracer.stores:
        stats = store.stats
        tracer.count(
            "kvstore.ops",
            stats.gets + stats.puts + stats.rmws + stats.scans + stats.deletes,
        )
        tracer.count("kvstore.chain_steps", stats.chain_steps)
        tracer.count("kvstore.scanned_records", stats.scanned_records)
        tracer.count("kvstore.relocations", stats.relocations)
    tracer.systems.clear()
    tracer.stores.clear()


def coverage_failures(tracer: SpanTracer, workload: str) -> List[str]:
    """Layers that should have recorded spans on ``workload`` but did not."""
    seen = tracer.layers()
    return [
        f"layer {layer!r} recorded no span on {workload}"
        for layer in REQUIRED_LAYERS[workload]
        if layer not in seen
    ]


def _walls(reports: Sequence[Tuple[str, dict]], kind: str = "") -> List[dict]:
    return [report["wall"] for k, report in reports if not kind or k == kind]


def _job_wall_max(walls: Sequence[dict]) -> float:
    return max(
        (wall for w in walls for wall in w["job_wall_s"].values()), default=0.0
    )


def layer_metrics(
    tracer: SpanTracer, reports: Sequence[Tuple[str, dict]]
) -> Dict[str, float]:
    """Every per-layer metric of one traced pass except ``host``/``trace``.

    ``reports`` are the pass's ``("sweep"|"cluster", report)`` pairs; the
    parallel and cluster orchestration metrics come from their ``wall``
    sections and plans, the rest from spans and harvested counters.
    """
    counters = tracer.counters
    out: Dict[str, float] = {}
    out["workloads.compile_s"] = tracer.self_time("workloads")
    out["workloads.ops_compiled"] = counters.get("workloads.ops_compiled", 0)
    out["kvstore.self_s"] = tracer.self_time("kvstore")
    out["kvstore.scan_s"] = tracer.self_time("kvstore.scan")
    for key in ("ops", "chain_steps", "scanned_records", "relocations"):
        out["kvstore." + key] = counters.get("kvstore." + key, 0)
    out["runtime.self_s"] = tracer.self_time("runtime")
    out["runtime.reads"] = tracer.calls("runtime.read")
    out["runtime.writes"] = tracer.calls("runtime.write")
    out["mem.self_s"] = tracer.self_time("mem")
    for key in ("tlb_hits", "tlb_misses", "tlb_flushes", "tlb_invalidations",
                "write_faults"):
        out["mem." + key] = counters.get("mem." + key, 0)
    lookups = out["mem.tlb_hits"] + out["mem.tlb_misses"]
    out["mem.tlb_hit_ratio"] = out["mem.tlb_hits"] / lookups if lookups else 0.0
    out["mem.epoch_scan_s"] = tracer.self_time("mem.epoch_scan")
    out["policy.self_s"] = tracer.self_time("policy")
    for key in ("write_faults", "sync_evictions", "proactive_flushes",
                "epochs", "inflight_waits", "sim_blocked_ms"):
        out["policy." + key] = counters.get("policy." + key, 0)
    issues = tracer.calls("flusher.issue")
    out["policy.proactive_share"] = (
        out["policy.proactive_flushes"] / issues if issues else 0.0
    )
    out["policy.rank_calls"] = tracer.calls("policy.rank")
    out["policy.rank_s"] = tracer.self_time("policy.rank")
    out["policy.history_s"] = tracer.self_time("policy.history")
    out["policy.peak_dirty_ratio"] = max(
        (peak / budget for peak, budget in dirty_peaks(reports)), default=0.0
    )
    out["flusher.issues"] = issues
    out["flusher.issue_s"] = tracer.self_time("flusher")
    for key in ("retries", "ssd_writes", "ssd_mib"):
        out["flusher." + key] = counters.get("flusher." + key, 0)
    out["sim.events_fired"] = counters.get("sim.events_fired", 0)
    out["sim.drain_s"] = tracer.self_time("sim")
    out["runner.self_s"] = tracer.self_time("runner")

    walls = _walls(reports)
    out["parallel.jobs"] = sum(len(w["job_wall_s"]) for w in walls)
    out["parallel.retries"] = sum(w["retries"] for w in walls)
    out["parallel.materialize_s"] = tracer.self_time("parallel.materialize")
    out["parallel.execute_s"] = sum(w["total_wall_s"] for w in walls)
    out["parallel.merge_s"] = tracer.self_time("parallel.merge")
    out["parallel.job_s_max"] = _job_wall_max(walls)
    out["parallel.dispatch_overhead_s"] = sum(
        w["total_wall_s"] - sum(w["job_wall_s"].values()) / w["workers"]
        for w in walls
    )
    out["cluster.plan_s"] = tracer.self_time("cluster.plan")
    out["cluster.probe_s"] = tracer.self_time("cluster.probe")
    out["cluster.shard_s_max"] = _job_wall_max(_walls(reports, "cluster"))
    churn = misallocation = migrated = 0
    for kind, report in reports:
        if kind != "cluster":
            continue
        for run in report["runs"]:
            pool = run["summary"].get("pool", {})
            if "churn" in pool:
                churn += (
                    pool["churn"]["total_grown_pages"]
                    + pool["churn"]["total_shed_pages"]
                )
            misallocation += run["summary"].get("misallocation", {}).get(
                "total", 0
            )
            migrated += sum(m["moved_keys"] for m in run.get("migrations", []))
    out["cluster.lease_churn_pages"] = churn
    out["cluster.misallocation_l1"] = misallocation
    out["cluster.migrated_keys"] = migrated
    return out


def dirty_peaks(reports: Sequence[Tuple[str, dict]]) -> List[Tuple[int, int]]:
    """(peak dirty pages, budget bound) of every Viyojit point and shard.

    A shard's bound is the largest lease of its schedule: a shrinking
    lease drains down from the previous budget, never above it.
    """
    out: List[Tuple[int, int]] = []
    for kind, report in reports:
        if kind == "sweep":
            results = [entry["result"] for entry in report["jobs"]]
            bounds = [result["budget_pages"] for result in results]
        else:
            shards = [s for run in report["runs"] for s in run["shards"]]
            results = [shard["result"] for shard in shards]
            bounds = [
                max(shard["job"]["budget_schedule"])
                if shard["job"]["budget_schedule"]
                else None
                for shard in shards
            ]
        for result, bound in zip(results, bounds):
            if result["viyojit_stats"] is not None and bound is not None:
                out.append((result["viyojit_stats"]["peak_dirty_pages"], bound))
    return out


def median_metrics(samples: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-key median over several passes' metric dicts."""
    return {
        key: statistics.median(sample[key] for sample in samples)
        for key in samples[0]
    }
