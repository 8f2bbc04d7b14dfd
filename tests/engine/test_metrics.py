"""Tests for the metrics collector."""

import pytest
from reference.visibility import dense_visibility_edges

from repro.engine import MetricsCollector
from repro.geometry import Point


SQUARE = [Point(0, 0), Point(0.9, 0), Point(0.9, 0.9), Point(0, 0.9)]


class TestMetricsCollector:
    def test_observe_builds_samples(self):
        collector = MetricsCollector(visibility_range=1.0)
        collector.bind_initial(SQUARE)
        sample = collector.observe(0.0, SQUARE, 0, full=True)
        assert sample.hull_diameter == pytest.approx(0.9 * 2 ** 0.5)
        assert sample.hull_perimeter == pytest.approx(3.6)
        assert sample.hull_radius == pytest.approx(0.45 * 2 ** 0.5)
        assert sample.min_pairwise_distance == pytest.approx(0.9)
        assert sample.initial_edges_preserved
        assert sample.broken_edge_count == 0
        assert collector.latest() is sample

    def test_step_sample_measures_diameter_and_cohesion_only(self):
        collector = MetricsCollector(visibility_range=1.0)
        collector.bind_initial(SQUARE)
        full = collector.observe(0.0, SQUARE, 0, full=True)
        step = collector.observe(1.0, SQUARE, 1)
        assert (step.hull_diameter, step.broken_edge_count) == (
            full.hull_diameter, full.broken_edge_count
        )
        assert step.hull_perimeter is step.hull_radius is step.min_pairwise_distance is None
        assert step.initial_edges_preserved
        assert list(collector.samples) == [full, step]

    def test_cohesion_violation_is_sticky(self):
        collector = MetricsCollector(visibility_range=1.0)
        collector.bind_initial(SQUARE)
        moved = list(SQUARE)
        moved[0] = Point(-5, 0)
        collector.observe(1.0, moved, 1)
        assert collector.cohesion_ever_violated
        # Coming back does not clear the flag.
        collector.observe(2.0, SQUARE, 2)
        assert collector.cohesion_ever_violated
        assert collector.samples[-1].initial_edges_preserved

    def test_first_time_below(self):
        collector = MetricsCollector(visibility_range=1.0)
        collector.bind_initial(SQUARE)
        collector.observe(0.0, SQUARE, 0)
        shrunk = [Point(p.x * 0.01, p.y * 0.01) for p in SQUARE]
        collector.observe(5.0, shrunk, 1)
        assert collector.first_time_below(0.1) == 5.0
        assert collector.first_time_below(1e-9) is None

    def test_monotonicity_helpers(self):
        collector = MetricsCollector(visibility_range=1.0)
        collector.bind_initial(SQUARE)
        collector.observe(0.0, SQUARE, 0)
        collector.observe(1.0, [p * 0.5 for p in SQUARE], 1)
        collector.observe(2.0, [p * 0.25 for p in SQUARE], 2)
        assert collector.monotone_hull_diameter()
        collector.observe(3.0, [p * 2.0 for p in SQUARE], 3)
        assert not collector.monotone_hull_diameter()

    def test_single_robot_metrics(self):
        collector = MetricsCollector(visibility_range=1.0)
        collector.bind_initial([Point(0, 0)])
        sample = collector.observe(0.0, [Point(0, 0)], 0, full=True)
        assert sample.hull_diameter == 0.0
        assert sample.min_pairwise_distance == 0.0
        assert sample.hull_radius == sample.hull_perimeter == 0.0
        assert collector.observe(1.0, [Point(0, 0)], 1).hull_diameter == 0.0

    def test_converged_predicate(self):
        collector = MetricsCollector(visibility_range=1.0)
        collector.bind_initial(SQUARE)
        sample = collector.observe(0.0, SQUARE, 0)
        assert not sample.converged(0.1)
        assert sample.converged(10.0)


class TestLargeNMode:
    """Past METRICS_DENSE_MAX the collector keeps only the initial edges'
    index arrays and a 3D diameter pairs only the hull vertices; the
    threshold is monkeypatched low so the suite can pin the two modes
    bit-identical on the same configurations."""

    def _positions(self, seed, n=60):
        import numpy as np

        rng = np.random.default_rng(seed)
        arr = rng.uniform(-3.0, 3.0, size=(n, 2))
        # Stretch one axis so some initial edges break after a shuffle.
        return arr

    @pytest.mark.parametrize("seed", range(3))
    def test_large_n_observe_matches_dense(self, seed, monkeypatch):
        import numpy as np

        arr = self._positions(seed)
        moved = arr * 1.1

        dense = MetricsCollector(visibility_range=1.5)
        dense.bind_initial(arr)
        dense_sample = dense.observe(1.0, moved, 1, full=True)

        monkeypatch.setattr("repro.engine.metrics.METRICS_DENSE_MAX", 16)
        large = MetricsCollector(visibility_range=1.5)
        large.bind_initial(arr)
        large_sample = large.observe(1.0, moved, 1, full=True)

        assert large_sample == dense_sample  # frozen dataclass: all floats
        assert large.cohesion_ever_violated == dense.cohesion_ever_violated
        # The large-n bind keeps only the index arrays, sorted like the
        # dense matrix's edge set.
        assert large.initial_edges == set()
        index = np.stack((large._edge_i, large._edge_j), axis=1)
        assert list(map(tuple, index.tolist())) == sorted(dense_visibility_edges(arr, 1.5))

    @pytest.mark.parametrize("seed", range(3))
    def test_large_n_observe_matches_dense_3d(self, seed, monkeypatch):
        import numpy as np
        from reference.dense3 import min_pairwise_distance3_array

        rng = np.random.default_rng(seed)
        arr = rng.uniform(-2.0, 2.0, size=(50, 3))
        moved = arr * 1.1

        dense = MetricsCollector(visibility_range=1.5)
        dense.bind_initial(arr)
        dense_sample = dense.observe(1.0, moved, 1, full=True)

        monkeypatch.setattr("repro.engine.metrics.METRICS_DENSE_MAX", 16)
        monkeypatch.setattr("repro.geometry.pairs.METRICS_DENSE_MAX", 16)
        large = MetricsCollector(visibility_range=1.5)
        large.bind_initial(arr)
        large_sample = large.observe(1.0, moved, 1, full=True)

        assert large_sample == dense_sample
        assert dense_sample.hull_perimeter is dense_sample.hull_radius is None
        # The minimum separation takes no dense branch: pin it to the matrix.
        assert dense_sample.min_pairwise_distance == min_pairwise_distance3_array(moved)
        assert large.initial_edges == set()
        index = zip(large._edge_i.tolist(), large._edge_j.tolist())
        assert list(index) == sorted(dense.initial_edges)


class TestBindInitialEdges:
    """``bind_initial`` enumerates the initial edges from a grid at every
    swarm size; they must equal the dense distance matrix's edge set."""

    @staticmethod
    def _assert_dense_edges(arr, visibility_range):
        collector = MetricsCollector(visibility_range=visibility_range)
        collector.bind_initial(arr)
        dense = dense_visibility_edges(arr, visibility_range)
        assert collector.initial_edges == dense
        index = list(zip(collector._edge_i.tolist(), collector._edge_j.tolist()))
        assert index == sorted(dense)
        return dense

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 9, 33, 200])
    @pytest.mark.parametrize("seed", range(3))
    def test_small_n_edges_match_dense(self, n, seed):
        import numpy as np

        arr = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(n, 2))
        self._assert_dense_edges(arr, 1.5)

    def test_coincident_and_tiny_range(self):
        """A range 10^12 times below the extent needs the floored cell."""
        import numpy as np

        arr = np.array([[0.0, 0.0], [0.0, 0.0], [1e-7, 0.0], [1e3, 1e3]])
        assert self._assert_dense_edges(arr, 1e-9) == {(0, 1)}
        assert self._assert_dense_edges(arr, 1e-6) == {(0, 1), (0, 2), (1, 2)}

    def test_pair_at_exactly_v_plus_eps_is_an_edge(self):
        """The predicate is ``<= V + EPS`` on the matrix's per-pair float."""
        import numpy as np

        from repro.geometry.tolerances import EPS

        reach = 1.0 + EPS
        beyond = np.nextafter(reach, np.inf)
        arr = np.array([
            [-reach / 2.0, 0.0], [reach / 2.0, 0.0],  # exactly V + EPS apart
            [-reach / 2.0, 4.0], [-reach / 2.0 + beyond, 4.0],  # one ulp farther
        ])
        assert np.hypot(*(arr[1] - arr[0])) == reach
        assert np.hypot(*(arr[3] - arr[2])) > reach
        assert self._assert_dense_edges(arr, 1.0) == {(0, 1)}

    def test_pair_across_a_cell_rounding_band(self):
        """``-1e-17`` and ``1.0`` are ``V + EPS`` apart but floor to cells
        two apart at cell ``V + EPS``; the covering cell keeps the pair."""
        import numpy as np

        from repro.geometry.tolerances import EPS

        arr = np.array([[-1e-17, 0.0], [1.0, 0.0]])
        assert self._assert_dense_edges(arr, 1.0 - EPS) == {(0, 1)}

    def test_unlimited_range_pairs_everyone(self):
        import math

        import numpy as np

        arr = np.random.default_rng(4).uniform(-50.0, 50.0, size=(7, 2))
        assert len(self._assert_dense_edges(arr, math.inf)) == 21


class TestBindInitialEdges3:
    """The collector on 3D rows and ``visibility_edges3`` enumerate edges from
    the covering grid; they must equal the dense all-pairs ``Vector3`` scan."""

    @staticmethod
    def _dense_edges3(arr, visibility_range):
        from repro.geometry.tolerances import EPS
        from repro.spatial3d import Vector3

        points = [Vector3.of(p) for p in arr]
        return {
            (i, j)
            for i in range(len(points))
            for j in range(i + 1, len(points))
            if points[i].distance_to(points[j]) <= visibility_range + EPS
        }

    def _assert_dense_edges3(self, arr, visibility_range):
        from repro.spatial3d import visibility_edges3

        dense = self._dense_edges3(arr, visibility_range)
        assert visibility_edges3(arr, visibility_range) == dense
        collector = MetricsCollector(visibility_range=visibility_range)
        collector.bind_initial(arr)
        assert collector.initial_edges == dense
        index = zip(collector._edge_i.tolist(), collector._edge_j.tolist())
        assert list(index) == sorted(dense)
        return dense

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 9, 40])
    @pytest.mark.parametrize("seed", range(3))
    def test_small_n_edges_match_dense(self, n, seed):
        import numpy as np

        arr = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(n, 3))
        self._assert_dense_edges3(arr, 1.5)

    def test_coincident_and_tiny_range(self):
        import numpy as np

        arr = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1e-7], [1e3, 1e3, 1e3]])
        assert self._assert_dense_edges3(arr, 1e-9) == {(0, 1)}
        assert self._assert_dense_edges3(arr, 1e-6) == {(0, 1), (0, 2), (1, 2)}

    def test_pair_at_exactly_v_plus_eps_is_an_edge(self):
        import numpy as np

        from repro.geometry.tolerances import EPS

        reach = 1.0 + EPS
        beyond = np.nextafter(reach, np.inf)
        arr = np.array([
            [0.0, -reach / 2.0, 3.0], [0.0, reach / 2.0, 3.0],  # exactly V + EPS apart
            [4.0, 0.0, -reach / 2.0], [4.0, 0.0, -reach / 2.0 + beyond],  # one ulp farther
        ])
        assert self._assert_dense_edges3(arr, 1.0) == {(0, 1)}

    def test_unlimited_range_pairs_everyone(self):
        import math

        import numpy as np

        arr = np.random.default_rng(4).uniform(-50.0, 50.0, size=(7, 3))
        assert len(self._assert_dense_edges3(arr, math.inf)) == 21


class TestContractingSwarm:
    """A swarm shrinking about its centroid keeps the large-n full sample linear.

    With every min-separation search started at the visibility range, each
    cell fills as the swarm contracts and the pair count grows as the
    inverse square of its scale.  A full sample starts the search at the
    shortest initial edge at the sampled positions instead, which shrinks
    with the swarm; each full sample of the lattice, at every scale, must
    stay exact against the dense oracle and its allocation peak small.
    """

    @pytest.mark.parametrize("dim", [2, 3])
    def test_shrinking_lattice_is_exact_and_small(self, dim):
        import math
        import tracemalloc

        import numpy as np
        import scipy.spatial  # noqa: F401  (the 3D hull's first-use import, kept out of the trace)

        from repro.engine.metrics import METRICS_DENSE_MAX

        axes = (np.arange(60), np.arange(50)) if dim == 2 else (np.arange(13),) * 3
        collector = MetricsCollector(visibility_range=1.0)
        lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        lattice = lattice * 0.7
        assert len(lattice) > METRICS_DENSE_MAX
        collector.bind_initial(lattice)
        centroid = lattice.mean(axis=0)
        for k in range(9):
            arr = centroid + (lattice - centroid) * 0.6**k
            tracemalloc.start()
            try:
                sample = collector.observe(float(k), arr, k, full=True)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, f"observe {k} peaked at {peak / 2**20:.1f} MiB"
            squared = None
            for axis in range(dim):
                delta = arr[:, axis, None] - arr[None, :, axis]
                term = delta * delta
                squared = term if squared is None else squared + term
            assert sample.hull_diameter == math.sqrt(squared.max())
            np.fill_diagonal(squared, math.inf)
            assert sample.min_pairwise_distance == math.sqrt(squared.min())


class TestToleranceDroppedRobot:
    """A robot the chain drops within its collinearity tolerance still counts.

    On an edge shorter than ~3e-5 the chain's tolerance is loose: here
    ``(1e-8, -4e-11)`` lies just outside the segment from ``(0, 0)`` to
    ``(2e-8, 0)`` and is dropped, yet it is 1.00000000004 from the apex,
    farther than any two hull vertices.  The sample diameter must be the
    dense maximum at every swarm size and in the replicate lanes.
    """

    def _positions(self):
        import numpy as np

        rng = np.random.default_rng(0)
        interior = np.stack(
            (1e-8 + rng.uniform(-1e-10, 1e-10, 3000), rng.uniform(0.3, 0.4, 3000)), axis=1
        )
        corners = np.array([[0.0, 0.0], [1e-8, -4e-11], [2e-8, 0.0], [1e-8, 1.0]])
        return np.concatenate((corners, interior))

    def _dense_diameter(self, arr):
        import math

        best = 0.0
        for start in range(0, len(arr), 256):
            dx = arr[start:start + 256, 0, None] - arr[None, :, 0]
            dy = arr[start:start + 256, 1, None] - arr[None, :, 1]
            best = max(best, float((dx * dx + dy * dy).max()))
        return math.sqrt(best)

    def test_sample_diameter_counts_the_dropped_robot(self):
        from repro.engine.metrics import METRICS_DENSE_MAX
        from repro.engine.replicate import _observe_fast
        from repro.geometry.hull import ConvexHull

        arr = self._positions()
        assert len(arr) > METRICS_DENSE_MAX
        dense = self._dense_diameter(arr)
        assert dense == pytest.approx(1.00000000004, abs=1e-15)
        assert ConvexHull.of_array(arr).diameter() == 1.0
        sample = MetricsCollector(visibility_range=1e-3).observe(0.0, arr, 0)
        assert sample.hull_diameter == dense
        lane_metrics = MetricsCollector(visibility_range=1e-3)
        assert _observe_fast(lane_metrics, 0.0, arr, 0).hull_diameter == dense


class TestFullSamplesAtTheEnds:
    """A run takes full samples at t=0 and at its end, step samples between.

    Checked on the per-activation path (k-async), the batched round path
    (ssync) and replicate lanes: the first and last samples equal a
    collector's full observe of the initial and final positions, and every
    sample between them measures only the diameter and the broken edges.
    """

    @staticmethod
    def _factory(scheduler, seed):
        from repro.algorithms import KKNPSAlgorithm
        from repro.engine import SimulationConfig
        from repro.workloads import random_connected_configuration

        def factory():
            configuration = random_connected_configuration(30, seed=seed)
            config = SimulationConfig(
                visibility_range=configuration.visibility_range,
                seed=seed,
                max_activations=240,
            )
            return configuration.positions, KKNPSAlgorithm(k=2), scheduler(), config

        return factory

    @staticmethod
    def _assert_full_only_at_the_ends(result):
        samples = list(result.metrics.samples)
        assert len(samples) > 2
        for sample, positions in ((samples[0], result.initial_positions),
                                  (samples[-1], result.final_positions)):
            oracle = MetricsCollector(visibility_range=result.visibility_range)
            oracle.bind_initial(result.initial_positions)
            expected = oracle.observe(sample.time, positions, sample.activations_processed,
                                      full=True)
            assert sample == expected
        for sample in samples[1:-1]:
            assert sample.hull_perimeter is None
            assert sample.hull_radius is None
            assert sample.min_pairwise_distance is None
        assert result.final_min_pairwise_distance == samples[-1].min_pairwise_distance

    @pytest.mark.parametrize("scheduler", ["k-async", "ssync"])
    def test_single_runs(self, scheduler):
        from repro.engine import Simulator
        from repro.schedulers import KAsyncScheduler, SSyncScheduler

        make = (lambda: KAsyncScheduler(k=2)) if scheduler == "k-async" else SSyncScheduler
        sim = Simulator(*self._factory(make, seed=4)())
        assert sim._round_batching  # the default: only ssync's rounds are held whole
        self._assert_full_only_at_the_ends(sim.run())

    def test_replicate_lanes(self):
        from repro.engine.replicate import run_replicated_simulations
        from repro.schedulers import SSyncScheduler

        results = run_replicated_simulations(
            [self._factory(SSyncScheduler, seed) for seed in range(3)]
        )
        for result in results:
            self._assert_full_only_at_the_ends(result)
