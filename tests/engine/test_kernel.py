"""Contract tests for the dimension-generic continuous-time kernel.

The tentpole invariant — one engine core, two destination rules, one
scheduler family — is pinned structurally here; the *numerical*
equivalences (2D array==object, 3D round adapter==object reference) live
in ``tests/engine/test_engine_modes.py`` and
``tests/spatial3d/test_engine3.py``, both of which now exercise the
kernel on every run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import SimulationConfig, Simulator
from repro.engine.kernel import ContinuousKernel
from repro.engine.metrics import MetricsCollector
from repro.model import KinematicArrays
from repro.schedulers import FSyncScheduler, KAsyncScheduler, SSyncScheduler
from repro.spatial3d import (
    AsyncSimulation3Config,
    KKNPS3Algorithm,
    Kernel3,
    random_connected_configuration3,
    run_simulation3_async,
)
from repro.spatial3d.engine3 import Round3Scheduler, _RoundKernel3
from repro.algorithms import KKNPSAlgorithm
from repro.workloads import line_configuration


class TestOneKernelTwoEngines:
    def test_both_engines_subclass_the_kernel(self):
        assert issubclass(Simulator, ContinuousKernel)
        assert issubclass(Kernel3, ContinuousKernel)
        assert issubclass(_RoundKernel3, ContinuousKernel)

    def test_base_kernel_requires_a_decide_move_hook(self):
        arrays = KinematicArrays.from_positions([(0.0, 0.0), (0.5, 0.0)])
        kernel = ContinuousKernel(
            arrays, KKNPSAlgorithm(k=1), FSyncScheduler(), SimulationConfig()
        )
        with pytest.raises(NotImplementedError):
            kernel.run_kernel()

    def test_state_dimension_flows_from_positions(self):
        planar = Simulator(
            line_configuration(3).positions, KKNPSAlgorithm(k=1), FSyncScheduler()
        )
        assert planar.dim == 2
        spatial = KinematicArrays.from_array(np.zeros((4, 3)))
        assert spatial.dim == 3

    def test_every_engine_samples_through_one_collector(self):
        """Both 3D engines measure with the planar collector: t=0 and final
        full samples, and (round adapter) one step sample per round."""
        from repro.spatial3d import Simulation3Config, run_simulation3

        configuration = random_connected_configuration3(6, seed=1)
        continuous = run_simulation3_async(
            configuration.positions,
            KKNPS3Algorithm(k=1),
            KAsyncScheduler(k=1),
            AsyncSimulation3Config(visibility_range=configuration.visibility_range, seed=1),
        )
        rounds = run_simulation3(
            configuration.positions,
            KKNPS3Algorithm(k=1),
            Simulation3Config(visibility_range=configuration.visibility_range, seed=1),
        )
        for result in (continuous, rounds):
            assert type(result.metrics) is MetricsCollector
            first, final = result.metrics.samples[0], result.metrics.latest()
            assert first.min_pairwise_distance is not None
            assert final.min_pairwise_distance is not None
            assert first.hull_perimeter is final.hull_radius is None
        samples = rounds.metrics.samples
        assert len(samples) == len(rounds.diameter_history) + 1
        assert [s.hull_diameter for s in samples][:-1] == rounds.diameter_history
        assert samples[-1].hull_diameter == rounds.final_diameter
        times = [s.time for s in samples]
        assert times == sorted(times)
        assert times[-2] == times[-1]


class TestKernel3Semantics:
    def test_simultaneous_fsync_looks_see_round_start_positions(self):
        """Under FSync all robots look at t=r and see each other's origins."""
        configuration = random_connected_configuration3(5, seed=0)
        result = run_simulation3_async(
            configuration.positions,
            KKNPS3Algorithm(k=1),
            FSyncScheduler(),
            AsyncSimulation3Config(
                visibility_range=configuration.visibility_range,
                seed=0,
                max_activations=40,
                stop_at_convergence=False,
            ),
        )
        assert result.activations_processed == 40
        # FSync activates everyone each round: 8 full rounds of 5 robots.
        assert all(count == 8 for count in result.activation_counts.values())

    def test_crashed_robots_anchor_the_swarm(self):
        configuration = random_connected_configuration3(6, seed=4)
        anchor = np.array(
            [configuration.positions[0].x, configuration.positions[0].y,
             configuration.positions[0].z]
        )
        result = run_simulation3_async(
            configuration.positions,
            KKNPS3Algorithm(k=1),
            KAsyncScheduler(k=1),
            AsyncSimulation3Config(
                visibility_range=configuration.visibility_range,
                seed=4,
                max_activations=800,
                convergence_epsilon=0.05,
                crashed_robots=(0,),
            ),
        )
        final_anchor = result.final_configuration.positions[0]
        assert np.allclose(anchor, (final_anchor.x, final_anchor.y, final_anchor.z))
        assert result.activation_counts[0] == 0

    def test_angular_distortion_rejected_in_3d_config(self):
        from repro.geometry.transforms import SymmetricDistortion
        from repro.model import PerceptionModel

        with pytest.raises(ValueError, match="planar"):
            AsyncSimulation3Config(
                perception=PerceptionModel(
                    distortion=SymmetricDistortion(amplitude=0.1, frequency=2)
                )
            )

    def test_grid_equals_dense_in_continuous_3d(self):
        """The 3D kernel's rounds read the carried pairs or gather densely, alike."""
        configuration = random_connected_configuration3(24, seed=6)
        results = []
        for spatial_index in (True, False):
            results.append(
                run_simulation3_async(
                    configuration.positions,
                    KKNPS3Algorithm(k=2),
                    SSyncScheduler(),
                    AsyncSimulation3Config(
                        visibility_range=configuration.visibility_range,
                        seed=6,
                        max_activations=300,
                        stop_at_convergence=False,
                        spatial_index=spatial_index,
                    ),
                )
            )
        grid, dense = results
        assert [
            (p.x, p.y, p.z) for p in grid.final_configuration.positions
        ] == [(p.x, p.y, p.z) for p in dense.final_configuration.positions]
        assert grid.metrics.samples == dense.metrics.samples


class TestRoundSchedulerAdapter:
    def test_round_scheduler_issues_simultaneous_round_batches(self):
        scheduler = Round3Scheduler(
            activation_probability=1.0,
            max_rounds=3,
            convergence_epsilon=1e-12,
            metrics=MetricsCollector(visibility_range=1.0),
        )
        scheduler.reset(4, np.random.default_rng(0))

        class _View:
            @staticmethod
            def positions_array(at_time):
                return np.zeros((4, 3))

        first = scheduler.next_batch(_View())
        assert [a.robot_id for a in first] == [0, 1, 2, 3]
        assert {a.look_time for a in first} == {0.0}
        assert all(a.end_time < 1.0 for a in first)
