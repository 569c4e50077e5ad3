"""Property-based tests (hypothesis) for the core invariants.

These are the paper's guarantees stated as machine-checked properties:

1. The dirty count never exceeds the budget, for *any* access sequence.
2. Every page outside the dirty set is durable at its latest version, for
   any access sequence (no lost updates).
3. A power failure at any prefix of any sequence is survivable with the
   budget-sized battery.
4. Data read back always equals the last data written.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.config import ViyojitConfig
from repro.core.crash import CrashSimulator, viyojit_battery
from repro.core.dirty_tracker import DirtyTracker
from repro.core.history import UpdateHistory
from repro.core.pressure import PressureEstimator
from repro.core.runtime import Viyojit
from repro.power.power_model import PowerModel
from repro.sim.events import Simulation

PAGE = 4096
REGION_PAGES = 64
HEAP_PAGES = 32


def build_system(budget: int, proactive: bool = True) -> Viyojit:
    sim = Simulation()
    system = Viyojit(
        sim,
        num_pages=REGION_PAGES,
        config=ViyojitConfig(dirty_budget_pages=budget, proactive=proactive),
    )
    system.start()
    return system


# Access sequences: (page, offset, payload byte) triples.
accesses = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=HEAP_PAGES - 1),
        st.integers(min_value=0, max_value=PAGE - 16),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=120,
)

budgets = st.integers(min_value=1, max_value=HEAP_PAGES)


@settings(max_examples=40, deadline=None)
@given(seq=accesses, budget=budgets)
def test_dirty_count_never_exceeds_budget(seq, budget):
    system = build_system(budget)
    mapping = system.mmap(HEAP_PAGES * PAGE)
    for page, offset, byte in seq:
        system.write(mapping.base_addr + page * PAGE + offset, bytes([byte]) * 8)
        assert system.dirty_count <= budget


@settings(max_examples=30, deadline=None)
@given(seq=accesses, budget=budgets)
def test_clean_pages_always_durable(seq, budget):
    system = build_system(budget)
    mapping = system.mmap(HEAP_PAGES * PAGE)
    for page, offset, byte in seq:
        system.write(mapping.base_addr + page * PAGE + offset, bytes([byte]) * 8)
    inflight = {
        pfn for pfn in system.tracker if system.flusher.is_inflight(pfn)
    }
    for pfn, version in system.region.touched_pages():
        if pfn not in system.tracker and pfn not in inflight:
            assert system.backing.holds_version(pfn, version)


@settings(max_examples=25, deadline=None)
@given(seq=accesses, budget=budgets)
def test_power_failure_survivable_at_every_prefix(seq, budget):
    system = build_system(budget)
    model = PowerModel()
    battery = viyojit_battery(model, budget * PAGE)
    crash = CrashSimulator(system, model, battery)
    mapping = system.mmap(HEAP_PAGES * PAGE)
    for page, offset, byte in seq:
        system.write(mapping.base_addr + page * PAGE + offset, bytes([byte]) * 8)
        assert crash.power_failure().survives


@settings(max_examples=30, deadline=None)
@given(seq=accesses, budget=budgets)
def test_read_your_writes(seq, budget):
    system = build_system(budget)
    mapping = system.mmap(HEAP_PAGES * PAGE)
    shadow = {}
    for page, offset, byte in seq:
        addr = mapping.base_addr + page * PAGE + offset
        payload = bytes([byte]) * 8
        system.write(addr, payload)
        shadow[addr] = payload
    for addr, payload in shadow.items():
        got = system.read(addr, 8)
        # Later writes may overlap; only check addresses written once last.
        if all(
            other == addr or other + 8 <= addr or other >= addr + 8
            for other in shadow
        ):
            assert got == payload


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["add", "remove"]), st.integers(0, 63)),
        max_size=200,
    ),
    budget=st.integers(min_value=1, max_value=64),
)
def test_tracker_count_matches_set_semantics(ops, budget):
    tracker = DirtyTracker(budget)
    model = set()
    for op, pfn in ops:
        if op == "add":
            if pfn not in model and len(model) >= budget:
                continue  # runtime would evict first
            tracker.add(pfn)
            model.add(pfn)
        else:
            tracker.remove(pfn)
            model.discard(pfn)
        assert tracker.count == len(model)
        assert tracker.snapshot() == model


HISTORY_PAGES = 32


@settings(max_examples=50, deadline=None)
@given(
    scans=st.lists(
        st.lists(st.integers(0, HISTORY_PAGES - 1), max_size=8),
        min_size=1,
        max_size=150,
    ),
    candidates=st.lists(
        st.integers(0, HISTORY_PAGES - 1), max_size=HISTORY_PAGES, unique=True
    ),
    k=st.integers(1, HISTORY_PAGES + 4),
)
@example(
    # 150 scans with every third one empty: every window size wraps.
    scans=[
        [] if i % 3 == 0 else [i % HISTORY_PAGES, (7 * i) % HISTORY_PAGES]
        for i in range(150)
    ],
    candidates=list(range(HISTORY_PAGES)),
    k=5,
)
def test_history_coldest_matches_bruteforce(scans, candidates, k):
    """Every history query agrees with a brute-force model after every scan.

    The model keeps each scan's page set and counts/orders from scratch:
    ``update_count`` is the number of remembered scans that saw the page,
    ``last_update_epoch`` the last scan that ever saw it, and ``coldest``
    / ``hottest`` sort on ``(last_update, count, pfn)``.
    """
    for history_epochs in (1, 2, 16, 64):
        history = UpdateHistory(HISTORY_PAGES, history_epochs=history_epochs)
        last = {}
        window = []
        for epoch, pfns in enumerate(scans):
            history.record_scan(np.array(sorted(set(pfns)), dtype=np.int64))
            for pfn in set(pfns):
                last[pfn] = epoch
            window.append(set(pfns))
            window = window[-history_epochs:]

            def count(pfn):
                return sum(1 for epoch_set in window if pfn in epoch_set)

            def brute_key(pfn):
                # Updates older than the history window are gone: a page
                # with no in-window updates ranks as never-observed, even
                # if it was updated before the window slid past it.
                last_update = last.get(pfn, -1) if count(pfn) > 0 else -1
                return (last_update, count(pfn), pfn)

            def hot_key(pfn):
                last_update, updates, _ = brute_key(pfn)
                return (-last_update, -updates, pfn)

            for pfn in range(HISTORY_PAGES):
                assert history.update_count(pfn) == count(pfn)
                assert history.last_update_epoch(pfn) == last.get(pfn, -1)
            expected = sorted(candidates, key=brute_key)[:k]
            assert history.coldest(candidates, k) == expected
            assert history.coldest(np.array(candidates, dtype=np.int64), k) == expected
            assert history.hottest(candidates, k) == (
                sorted(candidates, key=hot_key)[:k]
            )


@settings(max_examples=60, deadline=None)
@given(
    observations=st.lists(st.integers(0, 10_000), min_size=1, max_size=50),
    alpha=st.floats(min_value=0.01, max_value=1.0),
)
def test_pressure_bounded_by_max_observation(observations, alpha):
    estimator = PressureEstimator(alpha=alpha)
    for value in observations:
        estimator.observe(value)
        assert 0 <= estimator.pressure <= max(observations) + 1e-9
