"""Per-activation Looks read the dense interpolation; rounds read the carried pairs.

A round reads the carried visible pairs from
:data:`repro.engine.spatial_index.GRID_MIN_ROBOTS` robots on
(:meth:`ContinuousKernel._round_pairs`); every heaped activation's Look
sees every other robot interpolated at its instant, whatever the size.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from reference.object_engine import ObjectSimulator, Robot

from repro.algorithms import KKNPSAlgorithm
from repro.engine import SimulationConfig, Simulator, run_simulation, spatial_index
from repro.geometry.pairs import VisiblePairs
from repro.geometry.tolerances import EPS
from repro.model import KinematicArrays
from repro.model.robot import PHASE_MOVING
from repro.schedulers import (
    AsyncScheduler,
    KAsyncScheduler,
    KNestAScheduler,
    SSyncScheduler,
)
from repro.spatial3d import (
    AsyncSimulation3Config,
    KKNPS3Algorithm,
    Kernel3,
    Simulation3Config,
    positions_as_array3,
    random_connected_configuration3,
    run_simulation3,
)
from repro.workloads import random_connected_configuration


def _mix_phases(arrays: KinematicArrays, rng: np.random.Generator, reach: float) -> float:
    """Begin moves for a third of the robots; returns a Look instant among them.

    Moves start one time unit apart, so at the instant some have not
    started, one is in flight and some have ended unfinalised; every
    fourth move has a zero span.
    """
    n = arrays.n
    movers = rng.choice(n, size=n // 3, replace=False)
    for j, i in enumerate(movers.tolist()):
        start = float(j)
        arrays.begin_activation_at(i, start)
        target = arrays.position[i] + rng.uniform(-reach, reach, size=arrays.dim)
        end = start if j % 4 == 3 else start + 1.0
        arrays.begin_move_at(i, arrays.position[i].copy(), target, start, end)
    return float(rng.uniform(0.0, n // 3 + 1.0))


def _position_at3(arrays: KinematicArrays, i: int, time: float) -> tuple:
    """One robot's position at ``time``, coordinate by coordinate (the scalar oracle)."""
    if arrays.phase[i] != PHASE_MOVING:
        return tuple(float(c) for c in arrays.position[i])
    start, end = float(arrays.move_start[i]), float(arrays.move_end[i])
    origin = [float(c) for c in arrays.move_origin[i]]
    destination = [float(c) for c in arrays.move_destination[i]]
    if time >= end or (time > start and end - start <= EPS):
        return tuple(destination)
    if time <= start:
        return tuple(origin)
    t = (time - start) / (end - start)
    return tuple(o + (d - o) * t for o, d in zip(origin, destination))


def _per_activation_kernel(dim, scheduler, *, seed):
    """kknps(k=2) on 30 robots under ``scheduler``: 90 activations, sampled each time."""
    settings = dict(seed=seed, max_activations=90, stop_at_convergence=False)
    if dim == 2:
        configuration = random_connected_configuration(30, seed=seed)
        return Simulator(
            configuration.positions, KKNPSAlgorithm(k=2), scheduler,
            SimulationConfig(**settings),
        )
    configuration = random_connected_configuration3(30, seed=seed)
    return Kernel3(
        KinematicArrays.from_array(positions_as_array3(configuration.positions)),
        KKNPS3Algorithm(k=2), scheduler, AsyncSimulation3Config(**settings),
    )


class TestDenseLooks:
    """A heaped activation's Look sees every other robot where it is at that instant."""

    @pytest.mark.parametrize("seed", range(8))
    def test_look_reads_every_other_robot_interpolated(self, seed, pairs_from):
        pairs_from(0)
        rng = np.random.default_rng(seed)
        n = 60
        positions = rng.uniform(-4.0, 4.0, size=(n, 2))
        sim = Simulator(
            positions, KKNPSAlgorithm(k=2), KAsyncScheduler(k=2), SimulationConfig()
        )
        arrays = sim._arrays
        look_time = _mix_phases(arrays, rng, 1.0 / 8)
        robots = [Robot.view(arrays, i) for i in range(n)]
        expected = [(p.x, p.y) for p in (r.position_at(look_time) for r in robots)]
        for observer in range(0, n, 7):
            others, every = sim._look_positions(observer, look_time)
            assert [tuple(row) for row in every.tolist()] == expected
            assert [tuple(row) for row in others.tolist()] == (
                expected[:observer] + expected[observer + 1:]
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_look_reads_every_other_robot_interpolated_3d(self, seed, pairs_from):
        pairs_from(0)
        rng = np.random.default_rng(seed)
        n = 80
        kernel = Kernel3(
            KinematicArrays.from_array(rng.uniform(-3.0, 3.0, size=(n, 3))),
            KKNPS3Algorithm(k=2), KAsyncScheduler(k=2), AsyncSimulation3Config(),
        )
        arrays = kernel._arrays
        look_time = _mix_phases(arrays, rng, 1.0 / 8)
        expected = [_position_at3(arrays, i, look_time) for i in range(n)]
        for observer in range(0, n, 5):
            others, every = kernel._look_positions(observer, look_time)
            assert [tuple(row) for row in every.tolist()] == expected
            assert [tuple(row) for row in others.tolist()] == (
                expected[:observer] + expected[observer + 1:]
            )

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sample_reuses_the_look_interpolation(self, monkeypatch, dim):
        """One interpolation pass per sampled activation, plus the t=0 sample's."""
        calls = []
        interpolate = KinematicArrays.positions_at
        monkeypatch.setattr(
            KinematicArrays, "positions_at",
            lambda self, time: calls.append(time) or interpolate(self, time),
        )
        kernel = _per_activation_kernel(dim, KAsyncScheduler(k=2), seed=3)
        assert kernel.run_kernel().processed == 90
        assert len(calls) == 1 + 90

    def test_midmove_looks_match_the_object_engine(self, pairs_from):
        """k-async interleavings make robots look while others are mid-move."""
        pairs_from(0)
        configuration = random_connected_configuration(50, seed=4)
        runs = []
        for engine in (Simulator, ObjectSimulator):
            config = SimulationConfig(
                seed=4, max_activations=250, stop_at_convergence=False, k_bound=2,
            )
            runs.append(
                engine(
                    configuration.positions, KKNPSAlgorithm(k=2), KAsyncScheduler(k=2),
                    config,
                ).run()
            )
        array_run, object_run = runs
        assert array_run.final_positions.tobytes() == object_run.final_positions.tobytes()
        assert array_run.metrics.samples == object_run.metrics.samples
        assert array_run.records == object_run.records


def _refresh_spy(monkeypatch) -> list:
    """Every pair set a ``VisiblePairs.refresh`` call refreshed, in call order."""
    refreshed = []
    refresh = VisiblePairs.refresh
    monkeypatch.setattr(
        VisiblePairs, "refresh",
        lambda self, rows: refreshed.append(self) or refresh(self, rows),
    )
    return refreshed


class TestPerActivationIgnoresThreshold:
    """A per-activation run builds no pairs, even with the threshold at 0."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize(
        "scheduler",
        [lambda: KAsyncScheduler(k=2), lambda: KNestAScheduler(k=2), AsyncScheduler],
        ids=["kasync", "knesta", "async"],
    )
    def test_no_pairs_are_refreshed(self, monkeypatch, pairs_from, scheduler, dim):
        pairs_from(0)
        refreshed = _refresh_spy(monkeypatch)
        kernel = _per_activation_kernel(dim, scheduler(), seed=1)
        assert kernel.run_kernel().processed == 90
        assert refreshed == []
        assert kernel._pairs is None  # nor set any up at t=0


def _uniform_rows(n: int, dim: int) -> np.ndarray:
    """``n`` robots uniform in a cube of side ``0.6 n^(1/d)``: a few within V = 1 each."""
    side = 0.6 * n ** (1.0 / dim)
    return np.random.default_rng(n).uniform(0.0, side, size=(n, dim))


#: One round-structured run of ``rows`` through each entry point.
ROUND_ENTRIES = {
    "Simulator": lambda rows: Simulator(
        rows, KKNPSAlgorithm(k=1), SSyncScheduler(),
        SimulationConfig(max_activations=len(rows), stop_at_convergence=False),
    ).run(),
    "Kernel3": lambda rows: Kernel3(
        KinematicArrays.from_array(rows), KKNPS3Algorithm(k=1), SSyncScheduler(),
        AsyncSimulation3Config(max_activations=len(rows), stop_at_convergence=False),
    ).run_kernel(),
    "run_simulation3": lambda rows: run_simulation3(
        rows, KKNPS3Algorithm(k=1), Simulation3Config(max_rounds=2)
    ),
}


class TestRoundPairs:
    """A round reads the carried pairs from ``GRID_MIN_ROBOTS`` robots on, exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grid_and_dense_runs_bit_identical(self, seed, pairs_from):
        configuration = random_connected_configuration(60, seed=seed)
        results = []
        for threshold in (0, math.inf):
            pairs_from(threshold)
            config = SimulationConfig(
                seed=seed,
                max_activations=250,
                stop_at_convergence=False,
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

    def test_pairs_only_when_worthwhile(self, pairs_from):
        positions = random_connected_configuration(10, seed=0).positions
        default = spatial_index.GRID_MIN_ROBOTS
        for threshold, carried in ((default, False), (0, True), (10, True), (11, False)):
            pairs_from(threshold)
            sim = Simulator(
                positions, KKNPSAlgorithm(k=1), SSyncScheduler(), SimulationConfig()
            )
            pairs = sim._round_pairs(sim._arrays.position)
            assert (pairs is not None) is carried

    @pytest.mark.parametrize("entry", sorted(ROUND_ENTRIES))
    @pytest.mark.parametrize("short", [1, 0], ids=["threshold-1", "threshold"])
    def test_pairs_from_the_threshold(self, monkeypatch, entry, short):
        """One size threshold, planar and 3D: ``GRID_MIN_ROBOTS - 1`` gathers densely."""
        n = spatial_index.GRID_MIN_ROBOTS - short
        refreshed = _refresh_spy(monkeypatch)
        ROUND_ENTRIES[entry](_uniform_rows(n, 2 if entry == "Simulator" else 3))
        assert bool(refreshed) is (short == 0)
        if refreshed:
            carried = refreshed[-1]
            fresh = VisiblePairs(carried.reach, carried.keeps).refresh(carried.rows)
            assert len(carried.keys) and carried.keys.tobytes() == fresh.keys.tobytes()

    def test_threshold_is_the_recorded_crossover(self):
        """``GRID_MIN_ROBOTS`` is the smallest recorded planar size from which the pairs win.

        An arm wins a row of ``BENCH_grid_threshold.json`` when it was
        faster in at least 9 in 10 alternating pairs and its median is
        ahead by more than the other arm's IQR.  The pairs must win the
        planar row at that size and every larger one, and no 3D row at
        or above it may be won by the dense gather.
        """
        bench = Path(__file__).resolve().parents[2] / "BENCH_grid_threshold.json"
        recorded = json.loads(bench.read_text())

        def winner(row):
            grid, dense = row["grid_s"], row["dense_s"]
            ahead = dense["median"] - grid["median"]
            if 10 * row["grid_wins"] >= 9 * row["pairs"] and ahead > dense["iqr"]:
                return "grid"
            if 10 * (row["pairs"] - row["grid_wins"]) >= 9 * row["pairs"] and -ahead > grid["iqr"]:
                return "dense"
            return None

        spatial = recorded["round_shard_3d"]
        assert [row["won_by"] for row in recorded["round_shard_planar"] + spatial] == [
            winner(row) for row in recorded["round_shard_planar"] + spatial
        ]
        rows = sorted(recorded["round_shard_planar"], key=lambda row: row["n"])
        wins = [winner(row) == "grid" for row in rows]
        first = next(k for k in range(len(rows)) if all(wins[k:]))
        threshold = spatial_index.GRID_MIN_ROBOTS
        assert rows[first]["n"] == recorded["pairs_win_from"] == threshold
        assert recorded["grid_min_robots"] == threshold
        dense_wins = [row["n"] for row in spatial if winner(row) == "dense"]
        assert recorded["dense_wins_3d"] == dense_wins
        assert all(n < threshold for n in dense_wins)

    def test_unlimited_visibility_forces_dense(self, pairs_from):
        from repro.algorithms import CenterOfGravityAlgorithm

        pairs_from(0)
        configuration = random_connected_configuration(40, seed=0)
        simulator = Simulator(
            configuration.positions,
            CenterOfGravityAlgorithm(),
            SSyncScheduler(),
            SimulationConfig(),
        )
        assert math.isinf(simulator._effective_range())
        assert simulator._round_pairs(simulator._arrays.position) is None


class TestShardedGridIndex:
    """The batch-built grid's one enumerator: exactness and replicate isolation."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_row_candidates_are_each_rows_cell_neighbours(self, dim, seed):
        """``warm_candidates(rows)``: each row with every other robot of its 3^d cells."""
        from repro.engine.spatial_index import ShardedGridIndex

        rng = np.random.default_rng(seed)
        n, cell = 80, 0.9
        positions = rng.uniform(-3.0, 3.0, size=(n, dim))
        shard = ShardedGridIndex(positions, cell)
        cells = np.floor(positions / cell)
        deltas = positions[:, None, :] - positions[None, :, :]
        distances = np.sqrt((deltas * deltas).sum(axis=-1))
        rows = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        chosen = set(rows.tolist())
        i, j = shard.warm_candidates(rows)
        pairs = list(zip(i.tolist(), j.tolist()))
        assert len(pairs) == len(set(pairs))  # each directed pair at most once
        assert set(pairs) == {
            (a, b)
            for a in sorted(chosen)
            for b in range(n)
            if b != a and np.abs(cells[a] - cells[b]).max() <= 1
        }
        # So every close pair comes from each of its ends that is a row,
        assert {
            (a, b) for a in sorted(chosen) for b in range(n) if b != a and distances[a, b] <= cell
        } <= set(pairs)
        # and a pair of two rows comes once from each end.
        both = {(a, b) for a, b in pairs if b in chosen}
        assert both == {(b, a) for a, b in both}
        # The rows' pairs are the every-row pairs that touch them, from the rows' ends.
        every = set(zip(*(side.tolist() for side in shard.neighbour_pairs())))
        assert set(pairs) == (
            {(a, b) for a, b in every if a in chosen} | {(b, a) for a, b in every if b in chosen}
        )

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
        # Identical coordinates in every run: without run-keyed cells the
        # replicates would alias into shared pairs.
        base = rng.uniform(-2.0, 2.0, size=(n, 2))
        tensor = np.broadcast_to(base, (runs, n, 2))
        shard = ShardedGridIndex.from_replicates(tensor, 0.9)
        single = ShardedGridIndex(base, 0.9)
        for run in range(runs):
            offset = run * n
            for robot in range(n):
                i, j = shard.warm_candidates(np.array([offset + robot]))
                assert np.all(i == offset + robot) and np.all(j // n == run)
                ref_i, ref_j = single.warm_candidates(np.array([robot]))
                assert sorted(zip(i - offset, j - offset)) == sorted(zip(ref_i, ref_j))
        # Rows of every run at once: still no pair crosses two runs.
        i, j = shard.warm_candidates(np.arange(0, runs * n, 3))
        assert len(i) and np.array_equal(i // n, j // n)
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
