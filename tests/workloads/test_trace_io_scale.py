"""Sweep-scale persistence and shard-layout determinism (satellite S4).

The sweep engine only stays deterministic if (a) traces survive disk
round-trips bit-exactly at realistic event counts and (b) the zipfian
key streams are identical no matter how a run is chunked into batches —
the "shard layout" a different ``--jobs``/batch_size choice produces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.compiled import compile_workload
from repro.workloads.distributions import ZipfianGenerator
from repro.workloads.trace_io import (
    load_trace_csv,
    load_trace_npz,
    save_trace_csv,
    save_trace_npz,
)
from repro.workloads.traces import VolumeSpec, generate_volume_trace
from repro.workloads.ycsb import YCSB_WORKLOADS


@pytest.fixture(scope="module")
def big_trace():
    spec = VolumeSpec(
        name="S",
        num_pages=40_000,
        duration_hours=2.0,
        writes_per_hour_fraction=1.0,
    )
    trace = generate_volume_trace(spec, seed=5)
    assert len(trace) >= 100_000  # the scale this module is about
    return trace


def test_npz_round_trip_at_sweep_scale(big_trace, tmp_path):
    path = tmp_path / "big.npz"
    save_trace_npz(big_trace, path)
    loaded = load_trace_npz(path)
    assert len(loaded) == len(big_trace)
    assert np.array_equal(loaded.t_ns, big_trace.t_ns)
    assert np.array_equal(loaded.page, big_trace.page)
    assert np.array_equal(loaded.is_write, big_trace.is_write)


def test_csv_round_trip_at_sweep_scale(big_trace, tmp_path):
    path = tmp_path / "big.csv"
    save_trace_csv(big_trace, path)
    loaded = load_trace_csv(
        path,
        num_pages=big_trace.spec.num_pages,
        duration_hours=big_trace.spec.duration_hours,
        name=big_trace.spec.name,
    )
    assert np.array_equal(loaded.t_ns, big_trace.t_ns)
    assert np.array_equal(loaded.page, big_trace.page)
    assert np.array_equal(loaded.is_write, big_trace.is_write)


def test_zipfian_stream_is_shard_layout_invariant():
    """Same seed => same draws, regardless of sample-chunk sizes."""
    reference = ZipfianGenerator(10_000, seed=17).sample(100_000)
    for layout in ([100_000], [1] * 100 + [99_900], [7_321, 92_679],
                   [33_333, 33_333, 33_334]):
        gen = ZipfianGenerator(10_000, seed=17)
        chunks = [gen.sample(count) for count in layout]
        assert np.array_equal(np.concatenate(chunks), reference)


@pytest.mark.parametrize("batch_size", [512, 4_096])
def test_ycsb_ops_identical_across_shard_layouts(batch_size):
    """Every batch layout of the compiled YCSB-A stream yields the same ops."""
    compiled = compile_workload(
        YCSB_WORKLOADS["YCSB-A"], 2_000, 20_000, seed=13
    )

    def stream(size):
        ops = []
        for batch in compiled.batches(size):
            ops.extend(batch.operations())
        return ops

    assert stream(batch_size) == stream(1_024)
