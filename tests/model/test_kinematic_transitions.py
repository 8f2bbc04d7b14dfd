"""The index-array transitions of KinematicArrays match the row-level ones."""

import math

import numpy as np
import pytest

from repro.model.robot import PHASE_IDLE, PHASE_MOVING, KinematicArrays


def _travelled(origin, destination):
    """One trajectory's length, the scalar way: hypot in 2D, summed squares else."""
    if len(origin) == 2:
        return math.hypot(
            float(destination[0]) - float(origin[0]), float(destination[1]) - float(origin[1])
        )
    total = 0.0
    for axis in range(len(origin)):
        delta = float(destination[axis]) - float(origin[axis])
        total += delta * delta
    return math.sqrt(total)


def _stores(dim, n=40, seed=0):
    rng = np.random.default_rng(seed)
    positions = rng.normal(scale=3.0, size=(n, dim))
    return KinematicArrays.from_array(positions), KinematicArrays.from_array(positions), rng


@pytest.mark.parametrize("dim", [2, 3])
def test_begin_and_finish_moves_match_row_transitions(dim):
    batched, rows, rng = _stores(dim)
    for _ in range(3):
        ids = np.flatnonzero(rng.random(batched.n) < 0.5)
        destinations = batched.position[ids] + rng.normal(size=(len(ids), dim))
        batched.begin_moves(ids, destinations, 1.0, 1.5)
        for k, i in enumerate(ids.tolist()):
            rows.begin_activation_at(i, 1.0)
            rows.begin_move_at(i, rows.position[i].copy(), destinations[k], 1.0, 1.5)
        batched.finish_moves(ids)
        for i in ids.tolist():
            rows.total_distance[i] += _travelled(rows.move_origin[i], rows.move_destination[i])
            rows.position[i] = rows.move_destination[i]
            rows.phase[i] = PHASE_IDLE
    for name in ("position", "move_origin", "move_destination", "move_start",
                 "move_end", "phase", "activation_count", "total_distance"):
        assert np.array_equal(getattr(batched, name), getattr(rows, name)), name


def test_begin_moves_names_the_first_busy_robot():
    arrays, _, _ = _stores(2, n=6)
    arrays.begin_moves(np.array([1, 4]), np.zeros((2, 2)), 0.0, 0.5)
    with pytest.raises(RuntimeError, match="robot 4"):
        arrays.begin_moves(np.array([0, 4, 5]), np.zeros((3, 2)), 1.0, 1.5)
    assert arrays.phase[0] == PHASE_IDLE  # nothing was half-applied


def test_begin_moves_rejects_a_backwards_move():
    arrays, _, _ = _stores(2, n=3)
    with pytest.raises(ValueError):
        arrays.begin_moves(np.array([0]), np.zeros((1, 2)), 2.0, 1.0)


def test_finish_moves_names_an_idle_robot():
    arrays, _, _ = _stores(2, n=4)
    arrays.begin_moves(np.array([2]), np.ones((1, 2)), 0.0, 0.5)
    with pytest.raises(RuntimeError, match="robot 3"):
        arrays.finish_moves(np.array([2, 3]))
    assert arrays.phase[2] == PHASE_MOVING
    arrays.finish_moves(np.array([], dtype=np.intp))
