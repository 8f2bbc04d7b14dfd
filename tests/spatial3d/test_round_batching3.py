"""Pins: the 3D kernel's batched round fast path matches the per-activation path.

The continuous-time 3D kernel (``Kernel3``) decides per robot — rotation
draw, perception draw, motion draw, in robot order — so the round fast
path replays the same sequential decides against one committed array and
one sharded grid per round.  These pins compare ``round_batching`` on
vs off under round-structured schedulers across error models, crashes
and grid/dense spatial indexing: final positions, the run-length metrics
samples, activation end times and counts, and per-robot travelled
distance.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.model.errors import MotionModel, PerceptionModel
from repro.model.robot import KinematicArrays
from repro.schedulers import FSyncScheduler, SSyncScheduler
from repro.spatial3d import (
    AsyncSimulation3Config,
    KKNPS3Algorithm,
    positions_as_array3,
    random_connected_configuration3,
    run_simulation3_async,
)
from repro.spatial3d.kernel3 import Kernel3


def _pair(scheduler_factory, n=30, seed=2, **config_kw):
    configuration = random_connected_configuration3(n, seed=seed)
    results = []
    for round_batching in (True, False):
        config_kw["round_batching"] = round_batching
        config_kw.setdefault("seed", seed)
        config_kw.setdefault("max_activations", 120)
        config_kw.setdefault("stop_at_convergence", False)
        results.append(
            run_simulation3_async(
                configuration.positions,
                KKNPS3Algorithm(k=1),
                scheduler_factory(),
                AsyncSimulation3Config(**config_kw),
            )
        )
    return results


def _assert_identical(fast, reference):
    assert np.array_equal(
        positions_as_array3(fast.final_configuration.positions),
        positions_as_array3(reference.final_configuration.positions),
    )
    assert fast.metrics.samples == reference.metrics.samples
    assert fast.activations_processed == reference.activations_processed
    assert fast.convergence_time == reference.convergence_time
    assert fast.final_time == reference.final_time
    assert fast.cohesion_maintained == reference.cohesion_maintained
    assert fast.activation_end_times == reference.activation_end_times
    assert fast.activation_counts == reference.activation_counts


class TestRoundBatching3Pins:
    @pytest.mark.parametrize("scheduler", [FSyncScheduler, SSyncScheduler])
    @pytest.mark.parametrize("threshold", [0, math.inf], ids=["pairs", "dense"])
    def test_exact_models(self, scheduler, threshold, pairs_from):
        pairs_from(threshold)
        fast, reference = _pair(scheduler)
        _assert_identical(fast, reference)

    @pytest.mark.parametrize("scheduler", [FSyncScheduler, SSyncScheduler])
    def test_error_models(self, scheduler):
        fast, reference = _pair(
            scheduler,
            perception=PerceptionModel(distance_error=0.05),
            motion=MotionModel(xi=0.5),
        )
        _assert_identical(fast, reference)

    def test_no_rotation_frames(self):
        fast, reference = _pair(SSyncScheduler, rotate_frames=False)
        _assert_identical(fast, reference)

    def test_crashes_and_record_every(self):
        fast, reference = _pair(
            SSyncScheduler, crashed_robots=(1, 4), record_every=7
        )
        _assert_identical(fast, reference)

    @pytest.mark.parametrize("record_every", [1, 4])
    def test_travelled_distance_and_replicated_samples(self, record_every):
        """The index-array finish adds the same per-robot distances, and the
        replicated samples of a round equal the per-boundary observations."""
        positions = positions_as_array3(random_connected_configuration3(30, seed=6).positions)
        outcomes = []
        for round_batching in (True, False):
            kernel = Kernel3(
                KinematicArrays.from_array(positions),
                KKNPS3Algorithm(k=1),
                SSyncScheduler(),
                AsyncSimulation3Config(
                    seed=6,
                    max_activations=150,
                    record_every=record_every,
                    stop_at_convergence=False,
                    round_batching=round_batching,
                ),
            )
            outcomes.append((kernel.run_kernel(), kernel._arrays.total_distance.copy()))
        (fast, fast_distance), (reference, reference_distance) = outcomes
        assert np.array_equal(fast_distance, reference_distance)
        assert fast.metrics.samples == reference.metrics.samples
        assert len(fast.metrics.samples.heads()) < len(reference.metrics.samples.heads())
