"""Property tests pinning the 3D array engine bit-identical to the object path.

Mirrors the planar engine's methodology (`tests/engine/test_engine_modes.py`):
the per-robot reference loop (:mod:`reference.object_engine3`) defines
the semantics, and the array engine must reproduce its floats exactly —
positions, diameter histories, convergence/cohesion flags — across
frames on/off, activation subsets, non-rigid motion, asynchrony bounds
and both neighbour-query paths (grid and dense).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from reference.object_engine3 import run_simulation3_object

from repro.spatial3d import (
    KKNPS3Algorithm,
    Simulation3Config,
    lattice_configuration3,
    line_configuration3,
    positions_as_array3,
    random_connected_configuration3,
    run_simulation3,
)


def _final_positions(result) -> np.ndarray:
    return positions_as_array3(result.final_configuration.positions)


def _run(positions, algorithm, **config):
    return run_simulation3(positions, algorithm, Simulation3Config(**config))


def _run_object(positions, algorithm, **config):
    return run_simulation3_object(positions, algorithm, Simulation3Config(**config))


def assert_runs_identical(result_a, result_b):
    """Bit-identical outcomes: positions, history and every flag."""
    assert np.array_equal(_final_positions(result_a), _final_positions(result_b))
    assert result_a.diameter_history == result_b.diameter_history
    assert result_a.rounds_executed == result_b.rounds_executed
    assert result_a.converged == result_b.converged
    assert result_a.cohesion_maintained == result_b.cohesion_maintained
    assert result_a.activations_executed == result_b.activations_executed


class TestArrayObjectParity:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("rotate_frames", [True, False])
    def test_random_workloads_bit_identical(self, seed, rotate_frames):
        configuration = random_connected_configuration3(12, seed=seed)
        base = dict(
            visibility_range=configuration.visibility_range,
            max_rounds=80,
            convergence_epsilon=0.05,
            activation_probability=0.6,
            xi=0.5,
            seed=seed,
            rotate_frames=rotate_frames,
        )
        array = _run(configuration.positions, KKNPS3Algorithm(k=2), **base)
        obj = _run_object(configuration.positions, KKNPS3Algorithm(k=2), **base)
        assert_runs_identical(array, obj)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_asynchrony_bounds_bit_identical(self, k):
        configuration = lattice_configuration3(2, spacing=0.6)
        base = dict(
            visibility_range=configuration.visibility_range,
            max_rounds=200,
            convergence_epsilon=0.05,
            activation_probability=0.7,
            xi=0.5,
            seed=11 + k,
        )
        array = _run(configuration.positions, KKNPS3Algorithm(k=k), **base)
        obj = _run_object(configuration.positions, KKNPS3Algorithm(k=k), **base)
        assert_runs_identical(array, obj)

    def test_full_activation_rigid_bit_identical(self):
        configuration = line_configuration3(7, spacing=0.7)
        base = dict(
            visibility_range=configuration.visibility_range,
            max_rounds=150,
            convergence_epsilon=0.05,
            activation_probability=1.0,
            xi=1.0,
            seed=5,
        )
        array = _run(configuration.positions, KKNPS3Algorithm(k=1), **base)
        obj = _run_object(configuration.positions, KKNPS3Algorithm(k=1), **base)
        assert_runs_identical(array, obj)

    def test_coincident_robots_bit_identical(self):
        # Coincident robots (distance below the visibility tolerance) are
        # invisible to each other on both paths; a stack of them must not
        # desynchronize the engines.
        base_configuration = random_connected_configuration3(6, seed=3)
        positions = list(base_configuration.positions)
        positions.append(positions[0])  # exact coincidence
        positions.append(positions[2])
        config = dict(
            visibility_range=base_configuration.visibility_range,
            max_rounds=60,
            convergence_epsilon=0.05,
            activation_probability=0.8,
            xi=0.5,
            seed=9,
        )
        array = _run(positions, KKNPS3Algorithm(k=2), **config)
        obj = _run_object(positions, KKNPS3Algorithm(k=2), **config)
        assert_runs_identical(array, obj)


class TestGridDenseEquivalence3D:
    @pytest.mark.parametrize("seed", range(4))
    def test_grid_equals_dense_bit_identical(self, seed, pairs_from):
        configuration = random_connected_configuration3(30, seed=seed)
        base = dict(
            visibility_range=configuration.visibility_range,
            max_rounds=50,
            convergence_epsilon=0.01,
            activation_probability=0.7,
            xi=0.5,
            seed=seed,
        )
        pairs_from(0)
        grid = _run(configuration.positions, KKNPS3Algorithm(k=1), **base)
        pairs_from(math.inf)
        dense = _run(configuration.positions, KKNPS3Algorithm(k=1), **base)
        assert_runs_identical(grid, dense)

    def test_grid_object_and_dense_all_agree(self, pairs_from):
        configuration = random_connected_configuration3(25, seed=17)
        base = dict(
            visibility_range=configuration.visibility_range,
            max_rounds=40,
            convergence_epsilon=0.02,
            activation_probability=0.6,
            xi=0.5,
            seed=17,
        )
        pairs_from(0)
        grid = _run(configuration.positions, KKNPS3Algorithm(k=2), **base)
        obj = _run_object(configuration.positions, KKNPS3Algorithm(k=2), **base)
        assert_runs_identical(grid, obj)


class TestEngine3Config:
    def test_result_counts_activations(self):
        configuration = line_configuration3(4, spacing=0.7)
        result = _run(
            configuration.positions,
            KKNPS3Algorithm(k=1),
            visibility_range=configuration.visibility_range,
            max_rounds=5,
            convergence_epsilon=1e-12,
            activation_probability=1.0,
            xi=1.0,
            seed=0,
        )
        # Full activation: every robot activates every round.
        assert result.activations_executed == 4 * result.rounds_executed
