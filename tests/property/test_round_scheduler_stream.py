"""Pins: the round schedulers' columnar batches match a per-robot loop oracle.

FSync, SSync and the 3D round adapter issue each round as a
:class:`RoundBatch` drawn with vectorised numpy (one ``random(n)`` draw,
array lag update).  The fast-vs-reference engine pins share one scheduler
object between their two runs, so a drift in those draws would pass them
all; here each scheduler is compared against a plain-Python loop that
spells out the per-robot rule — same robots, look times, durations and
progress per round, and the same generator state afterwards.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.model.types import Activation
from repro.engine.metrics import MetricsCollector
from repro.schedulers import FSyncScheduler, SSyncScheduler
from repro.spatial3d.engine3 import Round3Scheduler

ROUNDS = 30

probabilities = st.one_of(
    st.floats(min_value=1e-4, max_value=0.05),
    st.floats(min_value=0.05, max_value=1.0),
)


def _ssync_oracle(rng, n, probability, max_lag, move_duration, rounds):
    """The per-robot SSync rule as a list-based loop."""
    lag = [0] * n
    out = []
    for round_index in range(rounds):
        draws = rng.random(n)
        chosen = [i for i in range(n) if draws[i] < probability or lag[i] >= max_lag]
        if not chosen:
            chosen = [int(rng.integers(0, n))]
        chosen_set = set(chosen)
        for i in range(n):
            lag[i] = 0 if i in chosen_set else lag[i] + 1
        out.append(
            [
                Activation(
                    robot_id=i,
                    look_time=float(round_index),
                    compute_duration=0.0,
                    move_duration=move_duration,
                )
                for i in sorted(chosen_set)
            ]
        )
    return out


def _round3_oracle(rng, n, probability, move_duration, rounds):
    """The 3D round adapter's subset rule, one scalar draw per robot."""
    out = []
    for round_index in range(rounds):
        activated = [i for i in range(n) if rng.random() < probability]
        if not activated:
            activated = [int(rng.integers(0, n))]
        out.append(
            [
                Activation(
                    robot_id=i,
                    look_time=float(round_index),
                    compute_duration=0.0,
                    move_duration=move_duration,
                )
                for i in activated
            ]
        )
    return out


class _StillView:
    """The engine view the adapter measures between rounds (robots at rest)."""

    def __init__(self, n):
        self.positions = np.column_stack(
            (np.arange(n, dtype=float), np.zeros(n), np.zeros(n))
        )

    def positions_array(self, at_time=None):
        return self.positions


def _assert_same_rounds(batches, oracle):
    assert len(batches) == len(oracle)
    for batch, expected in zip(batches, oracle):
        assert list(batch) == expected
        assert batch.robot_ids.tolist() == [a.robot_id for a in expected]
        assert [a.end_time for a in batch] == [a.end_time for a in expected]


@given(
    n=st.integers(min_value=1, max_value=64),
    probability=probabilities,
    max_lag=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=5, probability=1e-4, max_lag=8, seed=0)
@settings(max_examples=60, deadline=None)
def test_ssync_matches_loop_oracle(n, probability, max_lag, seed):
    scheduler = SSyncScheduler(activation_probability=probability, max_lag=max_lag)
    rng = np.random.default_rng(seed)
    scheduler.reset(n, rng)
    batches = [scheduler.next_batch() for _ in range(ROUNDS)]
    oracle_rng = np.random.default_rng(seed)
    oracle = _ssync_oracle(oracle_rng, n, probability, max_lag, 0.5, ROUNDS)
    _assert_same_rounds(batches, oracle)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_ssync_oracle_covers_the_single_robot_fallback():
    """A tiny probability forces the ``integers`` fallback on most rounds."""
    rng = np.random.default_rng(0)
    scheduler = SSyncScheduler(activation_probability=1e-4, max_lag=8)
    scheduler.reset(5, rng)
    sizes = [len(scheduler.next_batch()) for _ in range(ROUNDS)]
    assert sizes.count(1) > ROUNDS // 2


@given(
    n=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_fsync_matches_loop_oracle(n, seed):
    scheduler = FSyncScheduler()
    rng = np.random.default_rng(seed)
    scheduler.reset(n, rng)
    batches = [scheduler.next_batch() for _ in range(ROUNDS)]
    oracle = [
        [
            Activation(robot_id=i, look_time=float(r), compute_duration=0.0, move_duration=0.5)
            for i in range(n)
        ]
        for r in range(ROUNDS)
    ]
    _assert_same_rounds(batches, oracle)
    assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state


@given(
    n=st.integers(min_value=1, max_value=64),
    probability=probabilities,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=5, probability=1e-4, seed=0)
@settings(max_examples=40, deadline=None)
def test_round3_matches_loop_oracle(n, probability, seed):
    scheduler = Round3Scheduler(
        activation_probability=probability,
        max_rounds=ROUNDS,
        convergence_epsilon=-1.0,  # never met: every round is drawn
        metrics=MetricsCollector(visibility_range=1.0),
    )
    rng = np.random.default_rng(seed)
    scheduler.reset(n, rng)
    view = _StillView(n)
    batches = [scheduler.next_batch(view) for _ in range(ROUNDS)]
    assert not scheduler.next_batch(view)
    oracle_rng = np.random.default_rng(seed)
    oracle = _round3_oracle(oracle_rng, n, probability, 0.5, ROUNDS)
    _assert_same_rounds(batches, oracle)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
