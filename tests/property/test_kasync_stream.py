"""Pins: the k-async scheduler's array k-bound matches the scanning oracle.

:class:`~repro.schedulers.KAsyncScheduler` keeps its activation log in
arrays and resolves each k-bound pass with one mask and two binary
searches.  Here it is compared against :class:`reference.kbound.ScanKAsyncScheduler`,
which walks every last interval and every start history: the same
activations (robot, look time, phase durations, progress) in the same
order, and the same generator state afterwards — including zero-length
phase ranges, where every robot starts at once and the bound delays
almost every proposal.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference.kbound import ScanKAsyncScheduler
from repro.algorithms import KKNPSAlgorithm
from repro.engine.simulator import SimulationConfig, Simulator
from repro.model.types import Activation
from repro.schedulers import KAsyncScheduler, StalledAsyncScheduler
from repro.schedulers.scripted import validate_k_async

ISSUED = 300

ranges = st.one_of(
    st.just((0.0, 0.0)),
    st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 2.0)).map(lambda r: (r[0], r[0] + r[1])),
)


def _drain(scheduler, n, seed, count):
    scheduler.reset(n, np.random.default_rng(seed))
    issued = []
    while len(issued) < count:
        batch = scheduler.next_batch()
        if not batch:
            break
        issued.extend(batch)
    return issued


@given(
    k=st.integers(1, 4),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    idle_gap=ranges,
    compute_duration=ranges,
    move_duration=ranges,
    initial_stagger=ranges,
)
@example(k=1, n=40, seed=0, idle_gap=(0.0, 0.0), compute_duration=(0.0, 0.0),
         move_duration=(0.0, 0.0), initial_stagger=(0.0, 0.0))
@example(k=2, n=7, seed=3, idle_gap=(0.1, 2.0), compute_duration=(0.0, 0.2),
         move_duration=(0.2, 2.0), initial_stagger=(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_kasync_stream_matches_scan_oracle(
    k, n, seed, idle_gap, compute_duration, move_duration, initial_stagger
):
    params = dict(
        idle_gap=idle_gap,
        compute_duration=compute_duration,
        move_duration=move_duration,
        progress_fraction=(0.5, 1.0),
        initial_stagger=initial_stagger,
    )
    fast = KAsyncScheduler(k, **params)
    oracle = ScanKAsyncScheduler(k, **params)
    issued = _drain(fast, n, seed, ISSUED)
    assert issued == _drain(oracle, n, seed, ISSUED)
    assert fast._rng.bit_generator.state == oracle._rng.bit_generator.state
    assert fast.activation_counts() == {
        i: sum(1 for a in issued if a.robot_id == i) for i in range(n)
    }
    assert validate_k_async(issued, k)


def test_highest_rank_violator_wins_a_near_tie():
    """Two violated intervals ending 5e-10 apart: the start lands past the later-ranked one.

    Jumping past the other (robot 1, which activated first) would land
    inside neither interval and stop 5e-10 earlier than the scan does.
    """
    fast, oracle = KAsyncScheduler(k=1), ScanKAsyncScheduler(k=1)
    for scheduler in (fast, oracle):
        scheduler.reset(3, np.random.default_rng(0))
        for activation in (
            Activation(1, 0.0, move_duration=10.0),
            Activation(2, 0.0, move_duration=10.0 + 5e-10),
            Activation(0, 1.0, move_duration=1.0),
        ):
            scheduler._log.record(activation)
    expected = (10.0 + 5e-10) + 1e-9
    assert fast._respect_k_bound(0, 3.0) == oracle._respect_k_bound(0, 3.0) == expected


class TestStalledAsync:
    """The stretched interval goes through the log, so it delays the robot's next start."""

    def test_stalled_robot_activations_never_overlap(self):
        scheduler = StalledAsyncScheduler(stalled_robot=1, stall_duration=5.0)
        issued = _drain(scheduler, 4, 0, 200)
        stalled = [a for a in issued if a.robot_id == 1]
        assert len(stalled) >= 2
        assert all(abs(a.end_time - a.look_time - 5.0) < 1e-9 for a in stalled)
        for earlier, later in zip(stalled, stalled[1:]):
            assert later.look_time >= earlier.end_time
        assert scheduler._log.last_end_time(1) == stalled[-1].end_time

    def test_stalled_run_through_simulator_completes(self):
        positions = [(0.0, 0.0), (0.6, 0.0), (0.3, 0.5), (0.9, 0.4)]
        config = SimulationConfig(visibility_range=1.0, seed=3, max_activations=120)
        scheduler = StalledAsyncScheduler(stalled_robot=0, stall_duration=50.0)
        result = Simulator(positions, KKNPSAlgorithm(k=1), scheduler, config).run()
        assert result.activations_processed == 120
        assert 1 <= result.activation_counts[0] < result.activation_counts[1]
