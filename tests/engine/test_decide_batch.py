"""Pins: the flat whole-round decide equals the per-robot round decide.

:func:`repro.engine.decide_batch.decide_round_flat` decides a round of
1…k lanes in one pass; the kernel's per-robot path
(``Simulator._round_decide_rows``) decides the same round robot by
robot.  These pins call both on the same committed rows and RNG states
and compare every target, realised endpoint, neighbour count and the
final RNG states bitwise.  Unlike the end-to-end pins, they can hand the
pipeline progress fractions below one, which the built-in round
schedulers never produce, so the rigidity constant ``xi`` is exercised
too.  The pipeline's helpers (flat perception, per-lane frame draws,
the collapse guard) are pinned against their scalar counterparts, and
the row-budget chunking must change no output and bound a round's peak
memory.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro.algorithms import KKNPSAlgorithm
from repro.algorithms.kknps import kknps_destinations_all
from repro.engine import SimulationConfig, Simulator, decide_batch
from repro.engine.decide_batch import (
    COLLAPSE_GUARD_DIST,
    GUARD_CELL,
    _draw_frames,
    collapse_hazard_lanes,
    decide_round_flat,
    perceive_flat,
)
from repro.engine.spatial_index import ShardedGridIndex
from repro.geometry.tolerances import EPS
from repro.geometry.transforms import SymmetricDistortion, random_frame
from repro.model.errors import MotionModel, PerceptionModel
from repro.model.types import RoundBatch
from repro.schedulers import SSyncScheduler
from repro.sweeps import RunSpec
from repro.sweeps.runner import planar_setup
from repro.workloads import random_connected_configuration

DISTORTION = SymmetricDistortion(amplitude=0.1, frequency=2)
PERCEPTION = {
    "exact": PerceptionModel.exact(),
    "over-5": PerceptionModel(distance_error=0.05, bias="over"),
    "under-5": PerceptionModel(distance_error=0.05, bias="under"),
    "distortion-10": PerceptionModel(distortion=DISTORTION),
    "over-5-distortion-10": PerceptionModel(
        distance_error=0.05, bias="over", distortion=DISTORTION
    ),
}


def _sim(n, seed, *, perception="exact", frames=True, reflection=True, xi=1.0, k=1,
         visibility_range=None):
    configuration = random_connected_configuration(n, seed=seed)
    config = SimulationConfig(
        visibility_range=(
            configuration.visibility_range
            if visibility_range is None
            else visibility_range
        ),
        perception=PERCEPTION[perception],
        motion=MotionModel.rigid() if xi == 1.0 else MotionModel(xi=xi),
        seed=seed,
        use_random_frames=frames,
        allow_reflection=reflection,
    )
    return Simulator(
        configuration.positions, KKNPSAlgorithm(k=k), SSyncScheduler(), config
    )


def _round(n, seed, *, every_robot, partial_progress):
    """A round over ``n`` robots: all of them or a random ascending subset."""
    rng = np.random.default_rng(1000 + seed)
    if every_robot:
        ids = np.arange(n)
    else:
        ids = np.flatnonzero(rng.random(n) < 0.5)
    progress = (
        rng.uniform(0.05, 1.0, size=len(ids)) if partial_progress else None
    )
    return RoundBatch(ids, 0.0, progress=progress)


def _shard(sim, committed, grid):
    if not grid:
        return None
    return ShardedGridIndex(committed, sim._effective_range() + 2.0 * EPS)


def _assert_rows_equal(got, expected):
    target, realized, seen = got
    ref_target, ref_realized, ref_seen = expected
    assert target.tobytes() == ref_target.tobytes()
    assert realized.tobytes() == ref_realized.tobytes()
    assert seen.tolist() == ref_seen.tolist()


class TestPerceiveFlat:
    @pytest.mark.parametrize("name", sorted(PERCEPTION))
    def test_flat_rows_equal_per_activation(self, name):
        """Perceiving stacked rows equals perceiving each activation alone."""
        model = PERCEPTION[name]
        rng = np.random.default_rng(7)
        segments = []
        for _ in range(9):
            rows = rng.uniform(-1.0, 1.0, size=(int(rng.integers(0, 6)), 2))
            if len(rows) and rng.random() < 0.4:
                # An unmeasurable row the perception must report verbatim.
                rows[int(rng.integers(0, len(rows)))] *= 1e-15
            segments.append(rows)
        flat = np.concatenate(segments)
        px, py = perceive_flat(model, flat[:, 0].copy(), flat[:, 1].copy())
        expected = np.concatenate(
            [model.perceive_array(rows) for rows in segments if len(rows)]
        )
        assert np.column_stack((px, py)).tobytes() == expected.tobytes()


class TestDrawFrames:
    @pytest.mark.parametrize("allow_reflection", [True, False])
    @pytest.mark.parametrize("counts", [(4,), (3, 0, 2), (0, 5)])
    def test_draws_equal_random_frame_per_lane(self, allow_reflection, counts):
        """Each lane draws its frames from its own RNG, in activation order."""
        lanes = [np.random.default_rng(50 + lane) for lane in range(len(counts))]
        twins = [np.random.default_rng(50 + lane) for lane in range(len(counts))]
        cos_neg, sin_neg, cos_pos, sin_pos, reflections = _draw_frames(
            list(zip(lanes, counts)), allow_reflection
        )
        frames = [
            random_frame(twin, allow_reflection=allow_reflection)
            for twin, count in zip(twins, counts)
            for _ in range(count)
        ]
        assert len(reflections) == len(frames) == sum(counts)
        for row, frame in enumerate(frames):
            assert cos_neg[row] == math.cos(-frame.rotation)
            assert sin_neg[row] == math.sin(-frame.rotation)
            assert cos_pos[row] == math.cos(frame.rotation)
            assert sin_pos[row] == math.sin(frame.rotation)
            assert reflections[row] == frame.reflected
        if not allow_reflection:
            assert not reflections.any()
        for lane, twin in zip(lanes, twins):
            assert lane.bit_generator.state == twin.bit_generator.state


class TestCollapseHazardLanes:
    @staticmethod
    def _lanes(lanes, n, seed):
        """Well-separated lanes: jittered lattice points at spacing 0.1."""
        rng = np.random.default_rng(seed)
        side = int(math.ceil(math.sqrt(n)))
        lattice = np.array(
            [(0.1 * (i % side), 0.1 * (i // side)) for i in range(n)], dtype=float
        )
        return np.concatenate(
            [lattice + rng.uniform(-0.02, 0.02, size=(n, 2)) for _ in range(lanes)]
        )

    def test_separated_lanes_are_clear(self):
        flat = self._lanes(4, 30, seed=1)
        assert not collapse_hazard_lanes(flat, 4, 30).any()

    @pytest.mark.parametrize("offset", [
        (3e-12, 0.0), (0.0, -3e-12), (2.5e-12, 2.5e-12), (0.0, 0.0),
    ])
    def test_close_pair_flags_only_its_lane(self, offset):
        flat = self._lanes(3, 20, seed=2)
        # Put robot 7 of lane 1 within the guard of robot 3 of lane 1.
        flat[20 + 7] = flat[20 + 3] + np.asarray(offset)
        assert math.hypot(*offset) < COLLAPSE_GUARD_DIST
        assert collapse_hazard_lanes(flat, 3, 20).tolist() == [False, True, False]

    @pytest.mark.parametrize("seed", range(4))
    def test_pair_straddling_cell_boundaries_is_caught(self, seed):
        """A guard-close pair is flagged wherever it sits in the cell grid."""
        rng = np.random.default_rng(60 + seed)
        flat = self._lanes(2, 16, seed=seed)
        # A corner of the quantisation grid near (0.3, 0.2), then a pair
        # whose members sit on either side of it on both axes.
        corner = np.floor(np.array([0.3, 0.2]) / GUARD_CELL) * GUARD_CELL
        gap = rng.uniform(0.1, 1.0) * COLLAPSE_GUARD_DIST / (2.0 * math.sqrt(2.0))
        signs = rng.choice([-1.0, 1.0], size=2)
        flat[16 + 5] = corner + signs * gap
        flat[16 + 9] = corner - signs * gap
        assert math.dist(flat[16 + 5], flat[16 + 9]) < COLLAPSE_GUARD_DIST
        assert collapse_hazard_lanes(flat, 2, 16).tolist() == [False, True]


#: (perception, frames, reflection, xi, partial progress, every robot, grid, k)
ONE_LANE_CASES = [
    pytest.param("exact", True, True, 1.0, False, True, True, 1,
                 id="exact-framed-grid"),
    pytest.param("exact", False, False, 1.0, False, True, False, 1,
                 id="exact-frameless-dense"),
    pytest.param("over-5", True, False, 1.0, False, False, True, 1,
                 id="over-unreflected-subset-grid"),
    pytest.param("under-5", True, True, 1.0, False, True, False, 2,
                 id="under-k2-dense"),
    pytest.param("distortion-10", True, True, 1.0, False, False, True, 1,
                 id="distortion-subset-grid"),
    pytest.param("exact", True, True, 0.5, True, True, True, 1,
                 id="xi50-partial-grid"),
    pytest.param("over-5", False, False, 0.5, True, False, False, 1,
                 id="xi50-partial-frameless-subset-dense"),
    pytest.param("exact", True, True, 0.25, True, False, True, 2,
                 id="xi25-partial-k2-subset-grid"),
]


class TestDecideRoundFlat:
    @pytest.mark.parametrize(
        "perception,frames,reflection,xi,partial,every_robot,grid,k", ONE_LANE_CASES
    )
    def test_one_lane_equals_per_robot(
        self, perception, frames, reflection, xi, partial, every_robot, grid, k
    ):
        n = 40
        sim = _sim(n, 3, perception=perception, frames=frames,
                   reflection=reflection, xi=xi, k=k)
        committed = sim._arrays.position.copy()
        executed = _round(n, 3, every_robot=every_robot, partial_progress=partial)
        assert len(executed)
        start = sim.rng.bit_generator.state
        flat = sim._round_decide_batch(
            0.0, committed, _shard(sim, committed, grid), executed
        )
        flat_state = sim.rng.bit_generator.state
        sim.rng.bit_generator.state = start
        reference = sim._round_decide_rows(
            0.0, committed, _shard(sim, committed, grid), executed
        )
        _assert_rows_equal(flat, reference)
        assert flat_state == sim.rng.bit_generator.state
        if partial and xi < 1.0:
            # Some robots really were cut short of their targets.
            assert not np.array_equal(flat[0], flat[1])

    @pytest.mark.parametrize("perception,frames,reflection,xi", [
        pytest.param("exact", True, True, 1.0, id="exact-framed"),
        pytest.param("over-5", True, False, 1.0, id="over-unreflected"),
        pytest.param("distortion-10", False, False, 1.0, id="distortion-frameless"),
        pytest.param("under-5", True, True, 0.5, id="under-xi50"),
    ])
    def test_lane_group_equals_each_lane_per_robot(
        self, perception, frames, reflection, xi
    ):
        """A group's rows, sliced per lane, equal each lane decided alone.

        The middle lane executes nothing this round (as a crashed or
        capped lane may), so it must draw nothing from its RNG.
        """
        n = 16
        sims = [
            _sim(n, seed, perception=perception, frames=frames,
                 reflection=reflection, xi=xi, visibility_range=1.0)
            for seed in (5, 6, 7)
        ]
        batches = [
            _round(n, 5, every_robot=True, partial_progress=xi < 1.0),
            RoundBatch([], 0.0),
            _round(n, 7, every_robot=False, partial_progress=xi < 1.0),
        ]
        starts = [sim.rng.bit_generator.state for sim in sims]
        tensor = np.stack([sim._arrays.position for sim in sims])
        effective = sims[0]._effective_range()
        consts = sims[0].algorithm.decide_consts()
        target, realized, seen = decide_round_flat(
            sims[0].config,
            effective,
            lambda px, py, s, e: kknps_destinations_all(px, py, s, e, consts),
            tensor.reshape(-1, 2),
            ShardedGridIndex.from_replicates(tensor, effective + 2.0 * EPS),
            np.concatenate(
                [batch.robot_ids + slot * n for slot, batch in enumerate(batches)]
            ),
            np.concatenate([batch.progress for batch in batches]),
            [(sim.rng, len(batch)) for sim, batch in zip(sims, batches)],
        )
        offset = 0
        for sim, batch, start in zip(sims, batches, starts):
            ends = sim.rng.bit_generator.state
            sim.rng.bit_generator.state = start
            rows = slice(offset, offset + len(batch))
            reference = sim._round_decide_rows(
                0.0, sim._arrays.position, None, batch
            )
            _assert_rows_equal((target[rows], realized[rows], seen[rows]), reference)
            assert ends == sim.rng.bit_generator.state
            offset += len(batch)
        assert offset == len(target)
        assert sims[1].rng.bit_generator.state == starts[1]

    def test_coincident_lanes_stay_isolated(self):
        """Replicates at byte-identical positions see only their own lane."""
        n = 12
        sims = [_sim(n, 4, frames=True) for _ in range(3)]
        for slot, sim in enumerate(sims):
            sim.rng = np.random.default_rng(90 + slot)
        tensor = np.stack([sim._arrays.position for sim in sims])
        assert (tensor[0] == tensor[1]).all() and (tensor[1] == tensor[2]).all()
        effective = sims[0]._effective_range()
        consts = sims[0].algorithm.decide_consts()
        batch = RoundBatch(np.arange(n), 0.0)
        target, _, seen = decide_round_flat(
            sims[0].config,
            effective,
            lambda px, py, s, e: kknps_destinations_all(px, py, s, e, consts),
            tensor.reshape(-1, 2),
            ShardedGridIndex.from_replicates(tensor, effective + 2.0 * EPS),
            np.arange(3 * n),
            np.ones(3 * n),
            [(sim.rng, n) for sim in sims],
        )
        for slot in range(3):
            sims[slot].rng = np.random.default_rng(90 + slot)
            reference = sims[slot]._round_decide_rows(0.0, tensor[slot], None, batch)
            rows = slice(slot * n, (slot + 1) * n)
            assert seen[rows].tolist() == reference[2].tolist()
            assert target[rows].tobytes() == reference[0].tobytes()
        # Different private frames, same positions: the lanes' targets differ.
        assert target[:n].tobytes() != target[n:2 * n].tobytes()

    def test_empty_round_draws_nothing(self):
        sim = _sim(10, 2)
        start = sim.rng.bit_generator.state
        committed = sim._arrays.position
        target, realized, seen = decide_round_flat(
            sim.config,
            sim._effective_range(),
            sim.algorithm.compute_array_rounds,
            committed,
            None,
            np.empty(0, dtype=np.intp),
            np.empty(0, dtype=np.float64),
            [(sim.rng, 0)],
        )
        assert target.shape == (0, 2) and realized.shape == (0, 2)
        assert seen.shape == (0,)
        assert sim.rng.bit_generator.state == start


class TestRowBudget:
    """Chunking the row stages by ``ROW_BUDGET`` changes no output."""

    @pytest.mark.parametrize("budget", [1, 7, 64, None])
    @pytest.mark.parametrize("lanes,grid", [(1, True), (1, False), (3, True)],
                             ids=["grid-1-lane", "dense-1-lane", "grid-3-lanes"])
    def test_rows_equal_per_robot_at_any_budget(self, monkeypatch, budget, lanes, grid):
        if budget is not None:
            monkeypatch.setattr(decide_batch, "ROW_BUDGET", budget)
        n = 30
        sims = [_sim(n, seed, visibility_range=1.0) for seed in range(8, 8 + lanes)]
        batches = [
            _round(n, seed, every_robot=seed % 2 == 0, partial_progress=False)
            for seed in range(8, 8 + lanes)
        ]
        starts = [sim.rng.bit_generator.state for sim in sims]
        tensor = np.stack([sim._arrays.position for sim in sims])
        effective = sims[0]._effective_range()
        consts = sims[0].algorithm.decide_consts()
        shard = (
            ShardedGridIndex.from_replicates(tensor, effective + 2.0 * EPS)
            if grid
            else None
        )
        target, realized, seen = decide_round_flat(
            sims[0].config,
            effective,
            lambda px, py, s, e: kknps_destinations_all(px, py, s, e, consts),
            tensor.reshape(-1, 2),
            shard,
            np.concatenate(
                [batch.robot_ids + slot * n for slot, batch in enumerate(batches)]
            ),
            np.concatenate([batch.progress for batch in batches]),
            [(sim.rng, len(batch)) for sim, batch in zip(sims, batches)],
        )
        offset = 0
        for sim, batch, start in zip(sims, batches, starts):
            ends = sim.rng.bit_generator.state
            sim.rng.bit_generator.state = start
            rows = slice(offset, offset + len(batch))
            reference = sim._round_decide_rows(
                0.0, sim._arrays.position, None, batch
            )
            _assert_rows_equal((target[rows], realized[rows], seen[rows]), reference)
            assert ends == sim.rng.bit_generator.state
            offset += len(batch)
        assert offset == len(target)

    def test_grid_round_peak_memory_is_bounded(self):
        """One 20k-activation round at n = 4·10^4 stays under 40 MiB."""
        spec = RunSpec("kknps", "ssync", "grid", 40_000, seed=1, max_activations=40_000)
        configuration, algorithm, scheduler, config = planar_setup(spec)
        sim = Simulator(configuration.positions, algorithm, scheduler, config)
        committed = sim._arrays.position
        shard = sim._round_shard(committed)
        assert shard is not None
        executed = RoundBatch(np.arange(0, 40_000, 2), 0.0)
        tracemalloc.start()
        try:
            sim._round_decide_batch(0.0, committed, shard, executed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20
