"""Additional simulator-option coverage: frames, range reveal, multiplicity, k-NestA."""

import pytest

from repro.algorithms import AndoAlgorithm, KKNPSAlgorithm
from repro.algorithms.base import ConvergenceAlgorithm
from repro.engine import SimulationConfig, run_simulation
from repro.geometry import Point
from repro.model import Snapshot
from repro.schedulers import FSyncScheduler, KNestAScheduler
from repro.workloads import line_configuration, random_connected_configuration


class SnapshotProbe(ConvergenceAlgorithm):
    """A probe algorithm that records the snapshots it receives and never moves."""

    name = "probe"

    def __init__(self, *, requires_range: bool = False) -> None:
        self.requires_visibility_range = requires_range
        self.snapshots = []

    def compute(self, snapshot: Snapshot) -> Point:
        self.snapshots.append(snapshot)
        return Point.origin()


class TestSnapshotDelivery:
    def _run_probe(self, probe, **config_kwargs):
        configuration = line_configuration(3, spacing=0.5)
        run_simulation(
            configuration.positions,
            probe,
            FSyncScheduler(),
            SimulationConfig(
                max_activations=6, convergence_epsilon=1e-9, stop_at_convergence=False,
                **config_kwargs,
            ),
        )
        return probe.snapshots

    def test_range_hidden_by_default(self):
        snapshots = self._run_probe(SnapshotProbe())
        assert snapshots
        assert all(s.visibility_range is None for s in snapshots)

    def test_range_revealed_when_algorithm_requires_it(self):
        snapshots = self._run_probe(SnapshotProbe(requires_range=True))
        assert all(s.visibility_range == 1.0 for s in snapshots)

    def test_k_bound_is_passed_through(self):
        snapshots = self._run_probe(SnapshotProbe(), k_bound=5)
        assert all(s.k_bound == 5 for s in snapshots)

    def test_multiplicity_detection_flag(self):
        positions = [Point(0, 0), Point(0.5, 0), Point(0.5, 0)]
        probe = SnapshotProbe()
        run_simulation(
            positions,
            probe,
            FSyncScheduler(),
            SimulationConfig(
                max_activations=3, convergence_epsilon=1e-9, stop_at_convergence=False,
                multiplicity_detection=True,
            ),
        )
        first = [s for s in probe.snapshots if s.robot_id == 0][0]
        assert first.multiplicities is not None
        assert sorted(first.multiplicities) == [2]

    def test_frames_preserve_perceived_distances(self):
        probe = SnapshotProbe()
        snapshots = self._run_probe(probe, use_random_frames=True)
        for snapshot in snapshots:
            for p in snapshot.neighbours:
                assert p.norm() == pytest.approx(0.5, abs=1e-9) or p.norm() == pytest.approx(
                    1.0, abs=1e-9
                )


class TestKNestAIntegration:
    def test_kknps_under_knesta_with_matching_k(self):
        configuration = random_connected_configuration(7, seed=21)
        result = run_simulation(
            configuration.positions,
            KKNPSAlgorithm(k=3),
            KNestAScheduler(k=3),
            SimulationConfig(max_activations=20000, convergence_epsilon=0.05, seed=21, k_bound=3),
        )
        assert result.converged
        assert result.cohesion_maintained

    def test_ando_under_knesta_random_schedule_runs(self):
        configuration = random_connected_configuration(6, seed=22)
        result = run_simulation(
            configuration.positions,
            AndoAlgorithm(),
            KNestAScheduler(k=2),
            SimulationConfig(max_activations=8000, convergence_epsilon=0.05, seed=22),
        )
        assert result.activations_processed > 0
        assert result.final_hull_diameter <= configuration.hull_diameter() + 1e-9
