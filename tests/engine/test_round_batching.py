"""Pins: the batched round fast path is bit-identical to the per-activation path.

The kernel's round fast path (``ContinuousKernel._process_round``) and the
Simulator's vectorized 2D decider are *performance* paths only — every
float they produce must equal the per-activation reference exactly, RNG
draws included.  These pins run the same simulation with
``round_batching`` on and off and compare full fingerprints: final
positions, every metrics sample, every activation record, activation end
times and counts, per-robot travelled distance, convergence and final
times.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import AndoAlgorithm, KKNPSAlgorithm
from repro.engine import SimulationConfig, Simulator, run_simulation
from repro.engine.metrics import METRICS_DENSE_MAX
from repro.model.errors import MotionModel, PerceptionModel
from repro.schedulers import FSyncScheduler, KAsyncScheduler, SSyncScheduler
from repro.workloads import random_connected_configuration, truncated_grid_configuration


def _run(positions, algorithm, scheduler, config):
    """One run, plus the per-robot travelled distances the result leaves out."""
    simulator = Simulator(positions, algorithm, scheduler, config)
    result = simulator.run()
    return result, simulator._state.arrays.total_distance.copy()


def _pair(algorithm_factory, scheduler_factory, n=40, seed=11, **config_kw):
    """Run fast-path and reference simulations of the same scenario."""
    configuration = random_connected_configuration(n, seed=seed)
    runs = []
    for round_batching in (None, False):
        config_kw["round_batching"] = round_batching
        config_kw.setdefault("seed", seed)
        config_kw.setdefault("max_activations", 160)
        config_kw.setdefault("stop_at_convergence", False)
        runs.append(
            _run(
                configuration.positions,
                algorithm_factory(),
                scheduler_factory(),
                SimulationConfig(**config_kw),
            )
        )
    return runs


def _assert_identical(fast_run, reference_run):
    fast, fast_distance = fast_run
    reference, reference_distance = reference_run
    assert tuple(fast.final_configuration.positions) == tuple(
        reference.final_configuration.positions
    )
    assert fast.metrics.samples == reference.metrics.samples
    assert fast.activations_processed == reference.activations_processed
    assert fast.convergence_time == reference.convergence_time
    assert fast.final_time == reference.final_time
    assert fast.cohesion_maintained == reference.cohesion_maintained
    assert fast.records == reference.records
    assert fast.activation_end_times == reference.activation_end_times
    assert fast.activation_counts == reference.activation_counts
    assert np.array_equal(fast_distance, reference_distance)


SCHEDULERS = (
    ("fsync", FSyncScheduler),
    ("ssync", SSyncScheduler),
)
ALGORITHMS = (
    ("kknps", lambda: KKNPSAlgorithm(k=1)),
    ("ando", AndoAlgorithm),
)


class TestRoundBatchingPins:
    @pytest.mark.parametrize("sched_name,scheduler", SCHEDULERS)
    @pytest.mark.parametrize("algo_name,algorithm", ALGORITHMS)
    @pytest.mark.parametrize("spatial", [True, False])
    def test_exact_models(self, sched_name, scheduler, algo_name, algorithm, spatial):
        fast, reference = _pair(algorithm, scheduler, spatial_index=spatial)
        _assert_identical(fast, reference)

    @pytest.mark.parametrize("sched_name,scheduler", SCHEDULERS)
    def test_error_models(self, sched_name, scheduler):
        """Perception and motion error draw from the same RNG stream."""
        fast, reference = _pair(
            lambda: KKNPSAlgorithm(k=1),
            scheduler,
            perception=PerceptionModel(distance_error=0.05),
            motion=MotionModel(xi=0.6, deviation="linear", coefficient=0.05),
        )
        _assert_identical(fast, reference)

    def test_no_frames_tier_b(self):
        """use_random_frames=False exercises the frame-free vectorized decider."""
        fast, reference = _pair(
            lambda: KKNPSAlgorithm(k=1), SSyncScheduler, use_random_frames=False
        )
        _assert_identical(fast, reference)

    def test_crashes_and_record_every(self):
        fast, reference = _pair(
            AndoAlgorithm,
            SSyncScheduler,
            crashed_robots=(0, 3, 7),
            record_every=5,
        )
        _assert_identical(fast, reference)

    def test_stop_at_convergence(self):
        fast, reference = _pair(
            lambda: KKNPSAlgorithm(k=1),
            FSyncScheduler,
            n=12,
            stop_at_convergence=True,
            convergence_epsilon=0.3,
            max_activations=4000,
        )
        _assert_identical(fast, reference)

    def test_forced_on_async_scheduler_is_safe(self):
        """round_batching=True under k-async: per-batch validation rejects
        batches that are not simultaneous rounds, so the run falls back to
        the per-activation path and stays bit-identical."""
        configuration = random_connected_configuration(30, seed=5)
        results = []
        for round_batching in (True, False):
            results.append(
                _run(
                    configuration.positions,
                    KKNPSAlgorithm(k=2),
                    KAsyncScheduler(k=2),
                    SimulationConfig(
                        seed=5,
                        max_activations=200,
                        stop_at_convergence=False,
                        k_bound=2,
                        round_batching=round_batching,
                    ),
                )
            )
        _assert_identical(*results)

    def test_overlapping_rounds_take_the_per_activation_path(self):
        """A round issued while robots are still mid-move is not batched: its
        activations go through the per-activation path, which reports the
        scheduler bug with the same error either way."""
        configuration = random_connected_configuration(8, seed=2)
        messages = []
        for round_batching in (None, False):
            scheduler = FSyncScheduler()
            scheduler.move_duration = 1.5  # cycles now overlap the next round
            with pytest.raises(RuntimeError) as error:
                run_simulation(
                    configuration.positions,
                    KKNPSAlgorithm(k=1),
                    scheduler,
                    SimulationConfig(round_batching=round_batching, max_activations=40),
                )
            messages.append(str(error.value))
        assert messages[0] == messages[1]
        assert "before its move ended" in messages[0]


class TestWorkloadMatrix:
    """Grid vs dense workloads through the same bit-identity harness."""

    @pytest.mark.parametrize("sched_name,scheduler", SCHEDULERS)
    @pytest.mark.parametrize("error", ["exact", "noisy"])
    def test_grid_workload(self, sched_name, scheduler, error):
        from repro.workloads import truncated_grid_configuration

        configuration = truncated_grid_configuration(36, spacing=0.7)
        config_kw = dict(seed=13, max_activations=160, stop_at_convergence=False)
        if error == "noisy":
            config_kw["perception"] = PerceptionModel(distance_error=0.05)
            config_kw["motion"] = MotionModel(
                xi=0.6, deviation="linear", coefficient=0.05
            )
        results = []
        for round_batching in (None, False):
            results.append(
                _run(
                    configuration.positions,
                    KKNPSAlgorithm(k=1),
                    scheduler(),
                    SimulationConfig(round_batching=round_batching, **config_kw),
                )
            )
        _assert_identical(*results)

    @pytest.mark.parametrize("error", ["exact", "noisy"])
    def test_dense_workload(self, error):
        """A dense cluster (every robot sees most others) through the batch."""
        from repro.workloads import random_connected_configuration

        configuration = random_connected_configuration(
            50, seed=21, attach_radius_fraction=0.25
        )
        config_kw = dict(seed=21, max_activations=150, stop_at_convergence=False)
        if error == "noisy":
            config_kw["perception"] = PerceptionModel(distance_error=0.05)
            config_kw["motion"] = MotionModel(
                xi=0.6, deviation="linear", coefficient=0.05
            )
        results = []
        for round_batching in (None, False):
            results.append(
                _run(
                    configuration.positions,
                    KKNPSAlgorithm(k=1),
                    SSyncScheduler(),
                    SimulationConfig(round_batching=round_batching, **config_kw),
                )
            )
        _assert_identical(*results)

    def test_large_swarm_cap_cuts_a_round(self):
        """Above the dense-metrics threshold, with the activation cap ending
        the run mid-round and several record boundaries per round."""
        configuration = truncated_grid_configuration(2500, spacing=0.7)
        assert len(configuration) > METRICS_DENSE_MAX
        config_kw = dict(
            seed=3, max_activations=3000, record_every=250, stop_at_convergence=False
        )
        results = []
        for round_batching in (None, False):
            results.append(
                _run(
                    configuration.positions,
                    KKNPSAlgorithm(k=1),
                    SSyncScheduler(),
                    SimulationConfig(round_batching=round_batching, **config_kw),
                )
            )
        _assert_identical(*results)
        fast = results[0][0]
        assert fast.activations_processed == 3000
        assert len(fast.metrics.samples) == 3000 // 250 + 2
