"""Batched op generation reproduces the per-op generators exactly.

A compiled stream's ``batches`` must yield the very same operation
stream as ``generate_operations`` — same kinds, same keys, same scan
lengths, in the same order — for every workload and any batch size,
because the runner replays those batches and the sweep engine's
determinism rests on the generators being pure functions of (spec,
scale, seed).  The vectorized FNV and distribution ``sample`` paths are
pinned against their scalar twins the same way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kvstore.hashing import fnv1a, fnv1a_le8, fnv1a_rows
from repro.workloads.distributions import (
    LatestGenerator,
    ScrambledZipfianGenerator,
    ZipfianGenerator,
)
from repro.workloads.compiled import compile_workload
from repro.workloads.ycsb import YCSB_WORKLOADS, generate_operations

OPS = 2_000
RECORDS = 500
SEED = 9


def _flatten(spec, batch_size):
    ops = []
    stream = compile_workload(spec, RECORDS, OPS, value_size=200, seed=SEED)
    for batch in stream.batches(batch_size):
        assert len(batch) > 0
        ops.extend(batch.operations())
    return ops


@pytest.mark.parametrize("name", sorted(YCSB_WORKLOADS))
@pytest.mark.parametrize("batch_size", [1, 7, 256, 10_000])
def test_batches_flatten_to_per_op_stream(name, batch_size):
    spec = YCSB_WORKLOADS[name]
    expected = list(
        generate_operations(spec, RECORDS, OPS, value_size=200, seed=SEED)
    )
    assert _flatten(spec, batch_size) == expected


def test_batch_size_must_be_positive():
    spec = YCSB_WORKLOADS["YCSB-A"]
    with pytest.raises(ValueError, match="batch_size"):
        next(compile_workload(spec, RECORDS, OPS).batches(0))


def test_fnv1a_rows_matches_scalar():
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 256, size=(64, 28), dtype=np.uint8)
    vector = fnv1a_rows(rows)
    for row, hashed in zip(rows, vector):
        assert int(hashed) == fnv1a(bytes(row.tobytes()))


def test_fnv1a_le8_matches_scalar():
    rng = np.random.default_rng(4)
    values = rng.integers(0, 2**63, size=200, dtype=np.int64)
    vector = fnv1a_le8(values)
    for value, hashed in zip(values, vector):
        assert int(hashed) == fnv1a(int(value).to_bytes(8, "little"))


def test_fnv1a_rows_rejects_bad_input():
    with pytest.raises(ValueError):
        fnv1a_rows(np.zeros(8, dtype=np.uint8))
    with pytest.raises(ValueError):
        fnv1a_rows(np.zeros((4, 8), dtype=np.int64))


@pytest.mark.parametrize(
    "make",
    [
        lambda: ZipfianGenerator(1_000, seed=11),
        lambda: ScrambledZipfianGenerator(1_000, seed=11),
        lambda: LatestGenerator(1_000, seed=11),
    ],
    ids=["zipfian", "scrambled", "latest"],
)
def test_sample_consumes_rng_like_next(make):
    scalar_gen, vector_gen = make(), make()
    scalar = [scalar_gen.next() for _ in range(500)]
    vector = vector_gen.sample(500).tolist()
    assert scalar == vector
    # The streams stay aligned afterwards, so chunked sampling composes.
    assert scalar_gen.next() == vector_gen.next()
