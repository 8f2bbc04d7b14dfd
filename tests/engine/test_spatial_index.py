"""Tests for the uniform spatial hash grid and its exactness guarantee."""

from __future__ import annotations

import math

import numpy as np
import pytest
from reference.object_engine import Robot

from repro.algorithms import KKNPSAlgorithm
from repro.engine import SimulationConfig, Simulator, UniformGridIndex, run_simulation
from repro.model import KinematicArrays
from repro.schedulers import KAsyncScheduler, SSyncScheduler
from repro.workloads import random_connected_configuration


class TestGridMaintenance:
    def test_requires_finite_positive_range(self):
        with pytest.raises(ValueError):
            UniformGridIndex(0.0)
        with pytest.raises(ValueError):
            UniformGridIndex(math.inf)

    def test_settle_and_candidates(self):
        grid = UniformGridIndex(1.0)
        grid.settle(0, 0.5, 0.5)
        grid.settle(1, 1.5, 0.5)   # adjacent cell
        grid.settle(2, 3.5, 0.5)   # two cells away in x: out of the 3x3 block
        assert grid.candidates(0.5, 0.5).tolist() == [0, 1]
        assert grid.candidates(0.5, 0.5, exclude=0).tolist() == [1]

    def test_moving_robot_spans_segment_bbox(self):
        grid = UniformGridIndex(1.0)
        grid.begin_move(7, 0.5, 0.5, 2.5, 0.5)
        # The mover is discoverable from every cell its segment crosses.
        for x in (0.5, 1.5, 2.5):
            assert 7 in grid.candidates(x, 0.5).tolist()
        grid.settle(7, 2.5, 0.5)
        assert 7 not in grid.candidates(0.5, 0.5, ).tolist()
        assert 7 in grid.candidates(2.5, 0.5).tolist()
        assert len(grid.cells_of(7)) == 1

    def test_remove(self):
        grid = UniformGridIndex(1.0)
        grid.settle(3, 0.0, 0.0)
        grid.remove(3)
        assert grid.candidates(0.0, 0.0).size == 0
        assert len(grid) == 0

    def test_boundary_of_cell_points(self):
        """Points exactly on cell edges stay discoverable from both sides."""
        grid = UniformGridIndex(1.0)
        side = grid.cell_size
        grid.settle(0, side, 0.0)          # exactly on the x-boundary
        grid.settle(1, side, side)         # exactly on a corner
        grid.settle(2, 2 * side, 2 * side)
        # Observers just left/below the boundary still see them in the block.
        eps = 1e-9
        assert 0 in grid.candidates(side - eps, 0.0).tolist()
        assert 0 in grid.candidates(side + eps, 0.0).tolist()
        assert 1 in grid.candidates(side - eps, side - eps).tolist()
        assert 1 in grid.candidates(side + eps, side + eps).tolist()

    def test_negative_coordinates(self):
        grid = UniformGridIndex(1.0)
        grid.settle(0, -0.5, -0.5)
        grid.settle(1, 0.5, 0.5)
        assert grid.candidates(-0.1, -0.1).tolist() == [0, 1]


class TestGridExactness:
    """Grid candidates must always cover the true visible set."""

    @pytest.mark.parametrize("seed", range(8))
    def test_candidates_superset_of_visible(self, seed):
        rng = np.random.default_rng(seed)
        n, v = 60, 1.0
        positions = rng.uniform(-4.0, 4.0, size=(n, 2))
        arrays = KinematicArrays.from_positions(positions)
        grid = UniformGridIndex(v)
        for i in range(n):
            grid.settle(i, positions[i, 0], positions[i, 1])
        # Start some moves and finish others to mix phases.
        movers = rng.choice(n, size=n // 3, replace=False)
        for j, i in enumerate(movers):
            robot = Robot.view(arrays, int(i))
            robot.begin_activation(float(j))
            target = positions[i] + rng.uniform(-v / 8, v / 8, size=2)
            robot.begin_move(positions[i], target, float(j), float(j) + 1.0)
            grid.begin_move(int(i), positions[i, 0], positions[i, 1], target[0], target[1])
        look_time = float(rng.uniform(0.0, n // 3 + 1.0))
        interpolated = arrays.positions_at(look_time)
        for observer in range(0, n, 7):
            if Robot.view(arrays, observer).is_motile():
                continue
            ox, oy = positions[observer]
            candidates = set(grid.candidates(ox, oy, exclude=observer).tolist())
            for other in range(n):
                if other == observer:
                    continue
                d = math.hypot(
                    interpolated[other, 0] - ox, interpolated[other, 1] - oy
                )
                if d <= v + 1e-9:
                    assert other in candidates, (
                        f"robot {other} visible at d={d} but not a grid candidate"
                    )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grid_and_dense_runs_bit_identical(self, seed):
        configuration = random_connected_configuration(60, seed=seed)
        results = []
        for spatial in (True, False):
            config = SimulationConfig(
                seed=seed,
                max_activations=250,
                stop_at_convergence=False,
                spatial_index=spatial,
            )
            results.append(
                run_simulation(
                    configuration.positions,
                    KKNPSAlgorithm(k=1),
                    SSyncScheduler(),
                    config,
                )
            )
        grid_run, dense_run = results
        assert tuple(grid_run.final_configuration.positions) == tuple(
            dense_run.final_configuration.positions
        )
        assert grid_run.metrics.samples == dense_run.metrics.samples
        for a, b in zip(grid_run.records, dense_run.records):
            assert a.destination == b.destination
            assert a.neighbours_seen == b.neighbours_seen

    def test_grid_and_dense_with_midmove_looks(self):
        """k-async interleavings make robots look while others are mid-move."""
        configuration = random_connected_configuration(50, seed=4)
        results = []
        for spatial in (True, False):
            config = SimulationConfig(
                seed=4,
                max_activations=250,
                stop_at_convergence=False,
                spatial_index=spatial,
                k_bound=2,
            )
            results.append(
                run_simulation(
                    configuration.positions,
                    KKNPSAlgorithm(k=2),
                    KAsyncScheduler(k=2),
                    config,
                )
            )
        grid_run, dense_run = results
        assert tuple(grid_run.final_configuration.positions) == tuple(
            dense_run.final_configuration.positions
        )
        assert grid_run.metrics.samples == dense_run.metrics.samples

    def test_simulator_builds_grid_only_when_worthwhile(self):
        configuration = random_connected_configuration(10, seed=0)
        auto = Simulator(
            configuration.positions, KKNPSAlgorithm(k=1), SSyncScheduler(),
            SimulationConfig(round_batching=False),
        )
        assert auto._grid is None  # small n: dense fallback
        forced = Simulator(
            configuration.positions, KKNPSAlgorithm(k=1), SSyncScheduler(),
            SimulationConfig(spatial_index=True, round_batching=False),
        )
        assert forced._grid is not None
        disabled = Simulator(
            configuration.positions, KKNPSAlgorithm(k=1), SSyncScheduler(),
            SimulationConfig(spatial_index=False, round_batching=False),
        )
        assert disabled._grid is None

    def test_round_batching_replaces_incremental_grid(self):
        # Under a round-structured scheduler the batched fast path owns
        # spatial lookups (a sharded grid per round), so the incremental
        # index is skipped; per-activation schedulers still build it.
        configuration = random_connected_configuration(10, seed=0)
        batched = Simulator(
            configuration.positions, KKNPSAlgorithm(k=1), SSyncScheduler(),
            SimulationConfig(spatial_index=True),
        )
        assert batched._round_batching and batched._grid is None
        asynchronous = Simulator(
            configuration.positions, KKNPSAlgorithm(k=2), KAsyncScheduler(k=2),
            SimulationConfig(spatial_index=True),
        )
        assert not asynchronous._round_batching and asynchronous._grid is not None

    def test_unlimited_visibility_forces_dense(self):
        from repro.algorithms import CenterOfGravityAlgorithm

        configuration = random_connected_configuration(40, seed=0)
        simulator = Simulator(
            configuration.positions,
            CenterOfGravityAlgorithm(),
            SSyncScheduler(),
            SimulationConfig(spatial_index=True),
        )
        assert simulator._grid is None


class TestGrid3D:
    """The dimension-generic grid in 3-space: 3x3x3 blocks, same exactness."""

    def test_settle_and_candidates_3d(self):
        grid = UniformGridIndex(1.0, dim=3)
        grid.settle(0, 0.5, 0.5, 0.5)
        grid.settle(1, 1.5, 0.5, 0.5)   # adjacent cell in x
        grid.settle(2, 0.5, 0.5, 1.5)   # adjacent cell in z
        grid.settle(3, 3.5, 0.5, 0.5)   # out of the 3x3x3 block
        assert grid.candidates(0.5, 0.5, 0.5).tolist() == [0, 1, 2]
        assert grid.candidates(0.5, 0.5, 0.5, exclude=0).tolist() == [1, 2]

    def test_moving_robot_spans_segment_bbox_3d(self):
        grid = UniformGridIndex(1.0, dim=3)
        grid.begin_move(7, 0.5, 0.5, 0.5, 2.5, 0.5, 2.5)
        for x, z in ((0.5, 0.5), (1.5, 1.5), (2.5, 2.5)):
            assert 7 in grid.candidates(x, 0.5, z).tolist()
        grid.settle(7, 2.5, 0.5, 2.5)
        assert 7 not in grid.candidates(0.5, 0.5, 0.5).tolist()
        assert len(grid.cells_of(7)) == 1

    def test_coordinate_arity_enforced(self):
        grid = UniformGridIndex(1.0, dim=3)
        with pytest.raises(ValueError):
            grid.settle(0, 0.5, 0.5)
        with pytest.raises(ValueError):
            grid.begin_move(0, 0.0, 0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            grid.candidates(0.0, 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_candidates_superset_of_visible_3d(self, seed):
        rng = np.random.default_rng(seed)
        n, v = 80, 1.0
        positions = rng.uniform(-3.0, 3.0, size=(n, 3))
        grid = UniformGridIndex(v, dim=3)
        for i in range(n):
            grid.settle(i, positions[i, 0], positions[i, 1], positions[i, 2])
        for observer in range(0, n, 5):
            ox, oy, oz = positions[observer]
            candidates = set(
                grid.candidates(ox, oy, oz, exclude=observer).tolist()
            )
            deltas = positions - positions[observer]
            distances = np.sqrt((deltas * deltas).sum(axis=1))
            for other in range(n):
                if other != observer and distances[other] <= v + 1e-9:
                    assert other in candidates


class TestShardedGridIndex:
    """The batch-built block-sharded grid: exactness and replicate isolation."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_candidates_cover_all_within_cell_size(self, dim, seed):
        from repro.engine.spatial_index import ShardedGridIndex

        rng = np.random.default_rng(seed)
        n, cell = 80, 0.9
        positions = rng.uniform(-3.0, 3.0, size=(n, dim))
        shard = ShardedGridIndex(positions, cell)
        deltas = positions[:, None, :] - positions[None, :, :]
        distances = np.sqrt((deltas * deltas).sum(axis=-1))
        for robot in range(n):
            candidates = shard.candidates(robot)
            # Ascending, includes the robot itself (callers drop it at d=0).
            assert robot in candidates.tolist()
            assert np.all(np.diff(candidates) > 0)
            within = set(np.flatnonzero(distances[robot] <= cell).tolist())
            assert within <= set(candidates.tolist())

    @pytest.mark.parametrize("seed", range(4))
    def test_neighbour_pairs_cover_close_pairs_exactly_once(self, seed):
        from repro.engine.spatial_index import ShardedGridIndex

        rng = np.random.default_rng(seed)
        n, cell = 70, 0.8
        positions = rng.uniform(-2.5, 2.5, size=(n, 2))
        shard = ShardedGridIndex(positions, cell)
        i, j = shard.neighbour_pairs()
        assert np.all(i < j)
        pairs = list(zip(i.tolist(), j.tolist()))
        assert len(pairs) == len(set(pairs))  # each pair at most once
        deltas = positions[:, None, :] - positions[None, :, :]
        distances = np.sqrt((deltas * deltas).sum(axis=-1))
        close = {
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if distances[a, b] <= cell
        }
        assert close <= set(pairs)

    def test_replicate_batching_isolates_runs(self):
        from repro.engine.spatial_index import ShardedGridIndex

        rng = np.random.default_rng(9)
        runs, n = 3, 40
        # Identical coordinates in every run: without run-keyed blocks the
        # replicates would alias into shared candidate sets.
        base = rng.uniform(-2.0, 2.0, size=(n, 2))
        tensor = np.broadcast_to(base, (runs, n, 2))
        shard = ShardedGridIndex.from_replicates(tensor, 0.9)
        single = ShardedGridIndex(base, 0.9)
        for run in range(runs):
            offset = run * n
            for robot in range(n):
                flat = shard.candidates(offset + robot)
                assert np.all(flat >= offset) and np.all(flat < offset + n)
                assert np.array_equal(flat - offset, single.candidates(robot))
        i, j = shard.neighbour_pairs()
        assert np.array_equal(i // n, j // n)  # no pair crosses runs

    def test_min_pairwise_grid_matches_dense(self):
        from repro.engine.metrics import min_pairwise_distance_grid

        rng = np.random.default_rng(5)
        for dim in (2, 3):
            for _ in range(4):
                arr = rng.uniform(-4.0, 4.0, size=(60, dim))
                deltas = arr[:, None, :] - arr[None, :, :]
                squared = (deltas * deltas).sum(axis=-1)
                np.fill_diagonal(squared, math.inf)
                dense = float(math.sqrt(squared.min()))
                # Start far below the true minimum so the cell-doubling
                # escalation path is exercised too.
                for initial_cell in (1.0, 1e-3):
                    assert min_pairwise_distance_grid(arr, initial_cell) == dense
        # Exact ties: a lattice of binary fractions puts many pairs at
        # exactly the minimum, including searches started right at it.
        for dim in (2, 3):
            axes = (np.arange(-3, 4) * 0.5,) * dim
            lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
            lattice = lattice.reshape(-1, dim)
            for initial_cell in (0.5, 0.625, 1.0, 1e-3, 40.0):
                assert min_pairwise_distance_grid(lattice, initial_cell) == 0.5

    def test_cell_keys_that_would_overflow_are_refused(self):
        from repro.engine.metrics import min_pairwise_distance_grid
        from repro.engine.spatial_index import ShardedGridIndex

        far = np.array([[0.0, 0.0, 0.0], [1e7, 1e7, 1e7]])
        with pytest.raises(OverflowError):
            ShardedGridIndex(far, 0.1)
        # The min-separation search floors its start at 1e-6 of the
        # extent, so however small the hint it never reaches the guard.
        assert min_pairwise_distance_grid(far, 1e-12) == math.sqrt(3 * 1e7 * 1e7)

    def test_min_pairwise_grid_small_sets(self):
        from repro.engine.metrics import min_pairwise_distance_grid

        assert min_pairwise_distance_grid(np.zeros((0, 2)), 1.0) == 0.0
        assert min_pairwise_distance_grid(np.zeros((1, 2)), 1.0) == 0.0
        two = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert min_pairwise_distance_grid(two, 1.0) == 5.0
