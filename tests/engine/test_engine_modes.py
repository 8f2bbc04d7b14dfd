"""The array engine and the object engine oracle are interchangeable.

The array path must not merely approximate the seed semantics — every
per-activation quantity (snapshot, destination, realised move, metrics
sample, RNG consumption) must be *bit-identical* to the object engine
(:class:`reference.object_engine.ObjectSimulator`), including under
random frames, random perception error and non-rigid motion, where the
equality proves both paths consume the seeded RNG stream in exactly the
same order.
"""

from __future__ import annotations

import pytest
from reference.object_engine import ObjectSimulator

from repro.algorithms import AndoAlgorithm, KKNPSAlgorithm
from repro.engine import SimulationConfig, Simulator
from repro.geometry.transforms import SymmetricDistortion
from repro.model import MotionModel, PerceptionModel
from repro.schedulers import FSyncScheduler, KAsyncScheduler, SSyncScheduler
from repro.workloads import random_connected_configuration


ENGINES = {"array": Simulator, "object": ObjectSimulator}


def _run(mode, algorithm, scheduler, *, n=24, seed=3, **config_kwargs):
    configuration = random_connected_configuration(n, seed=seed)
    config = SimulationConfig(
        seed=seed,
        max_activations=300,
        stop_at_convergence=False,
        **config_kwargs,
    )
    return ENGINES[mode](configuration.positions, algorithm, scheduler, config).run()


def _assert_identical(first, second) -> None:
    assert tuple(first.final_configuration.positions) == tuple(
        second.final_configuration.positions
    )
    assert first.metrics.samples == second.metrics.samples
    assert first.activation_counts == second.activation_counts
    assert first.activation_end_times == second.activation_end_times
    assert first.converged == second.converged
    assert first.convergence_time == second.convergence_time
    assert first.final_time == second.final_time
    assert len(first.records) == len(second.records)
    for a, b in zip(first.records, second.records):
        assert a.activation == b.activation
        assert a.origin == b.origin
        assert a.target == b.target
        assert a.destination == b.destination
        assert a.neighbours_seen == b.neighbours_seen
        assert a.moved_distance == b.moved_distance


class TestEngineModeEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_kknps_ssync_exact(self, seed):
        _assert_identical(
            _run("array", KKNPSAlgorithm(k=1), SSyncScheduler(), seed=seed,
                 use_random_frames=False),
            _run("object", KKNPSAlgorithm(k=1), SSyncScheduler(), seed=seed,
                 use_random_frames=False),
        )

    def test_kknps_with_random_frames(self):
        _assert_identical(
            _run("array", KKNPSAlgorithm(k=1), SSyncScheduler()),
            _run("object", KKNPSAlgorithm(k=1), SSyncScheduler()),
        )

    def test_kknps_kasync_noisy(self):
        noisy = dict(
            k_bound=2,
            perception=PerceptionModel(
                distance_error=0.05,
                distortion=SymmetricDistortion(amplitude=0.1, frequency=2),
            ),
            motion=MotionModel(xi=0.5, deviation="quadratic", coefficient=0.2),
        )
        algorithm = lambda: KKNPSAlgorithm(
            k=2, distance_error_tolerance=0.05, skew_tolerance=0.1
        )
        _assert_identical(
            _run("array", algorithm(), KAsyncScheduler(k=2), **noisy),
            _run("object", algorithm(), KAsyncScheduler(k=2), **noisy),
        )

    def test_ando_fsync(self):
        _assert_identical(
            _run("array", AndoAlgorithm(), FSyncScheduler()),
            _run("object", AndoAlgorithm(), FSyncScheduler()),
        )

    def test_with_crashes_and_trajectories(self):
        kwargs = dict(crashed_robots=(0, 5), record_trajectories=True, record_every=3)
        first = _run("array", KKNPSAlgorithm(k=1), SSyncScheduler(), **kwargs)
        second = _run("object", KKNPSAlgorithm(k=1), SSyncScheduler(), **kwargs)
        _assert_identical(first, second)
        assert first.trajectories.to_dict() == second.trajectories.to_dict()

    def test_with_multiplicity_detection(self):
        kwargs = dict(multiplicity_detection=True)
        _assert_identical(
            _run("array", KKNPSAlgorithm(k=1), SSyncScheduler(), **kwargs),
            _run("object", KKNPSAlgorithm(k=1), SSyncScheduler(), **kwargs),
        )

    def test_zero_duration_moves(self):
        """A move that completes at the look instant itself.

        The metrics sample of that activation must show the observer at
        its realised destination, so the dense path cannot reuse the
        Look-time interpolation taken before the move began (regression:
        the array path sampled the pre-move position).
        """
        from repro.geometry import Point
        from repro.model import Activation
        from repro.schedulers import ScriptedScheduler

        positions = [Point(0.0, 0.0), Point(0.8, 0.0), Point(1.6, 0.0)]
        script = [
            Activation(robot_id=0, look_time=0.0, compute_duration=0.0, move_duration=0.0),
            Activation(robot_id=2, look_time=0.5, compute_duration=0.0, move_duration=0.0),
            Activation(robot_id=1, look_time=1.0, compute_duration=0.0, move_duration=0.5),
        ]
        results = []
        for mode in ("array", "object"):
            config = SimulationConfig(
                max_activations=3,
                stop_at_convergence=False,
                use_random_frames=False,
            )
            results.append(
                ENGINES[mode](
                    positions, KKNPSAlgorithm(k=1), ScriptedScheduler(list(script)), config
                ).run()
            )
        _assert_identical(results[0], results[1])
