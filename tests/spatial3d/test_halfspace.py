"""Tests for the fast open-half-space decision against the LP oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.spatial3d import Vector3, fits_in_open_halfspace, fits_in_open_halfspace_array


class TestKnownCases:
    def test_empty_is_false(self):
        assert not fits_in_open_halfspace_array(np.empty((0, 3)))

    def test_single_direction_fits(self):
        assert fits_in_open_halfspace_array(np.array([[0.0, 0.0, 1.0]]))

    def test_antipodal_pair_does_not_fit(self):
        directions = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        assert not fits_in_open_halfspace_array(directions)

    def test_orthant_fits(self):
        directions = np.array(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.6, 0.5, 0.4]]
        )
        assert fits_in_open_halfspace_array(directions)

    def test_tetrahedron_surrounding_origin_does_not_fit(self):
        directions = np.array(
            [
                [1.0, 1.0, 1.0],
                [1.0, -1.0, -1.0],
                [-1.0, 1.0, -1.0],
                [-1.0, -1.0, 1.0],
            ]
        )
        assert not fits_in_open_halfspace_array(directions)

    def test_near_zero_rows_ignored(self):
        directions = np.array([[1e-15, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert fits_in_open_halfspace_array(directions)
        assert not fits_in_open_halfspace_array(np.array([[1e-15, 0.0, 0.0]]))


class TestAgainstLinprogOracle:
    """The fast test agrees with the retained LP formulation away from
    the decision boundary (both are margin-thresholded, so ties exactly
    on the boundary may differ — the engine treats any False as "stay
    put", which is always safe)."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_direction_sets_agree(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 9))
        directions = rng.normal(size=(m, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        fast = fits_in_open_halfspace_array(directions)
        oracle = fits_in_open_halfspace([Vector3.of(d) for d in directions])
        assert fast == oracle

    @pytest.mark.parametrize("seed", range(10))
    def test_clearly_separable_sets_accepted(self, seed):
        # Directions drawn inside a 60-degree cone around a random axis:
        # always strictly inside an open half-space.
        rng = np.random.default_rng(100 + seed)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        directions = axis + 0.5 * rng.normal(size=(6, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        keep = directions @ axis > 0.6
        if not keep.any():
            pytest.skip("cone sample degenerate for this seed")
        assert fits_in_open_halfspace_array(directions[keep])

    @pytest.mark.parametrize("seed", range(10))
    def test_surrounding_sets_rejected(self, seed):
        # A set containing near-antipodal pairs of every member cannot fit.
        rng = np.random.default_rng(200 + seed)
        half = rng.normal(size=(4, 3))
        half /= np.linalg.norm(half, axis=1, keepdims=True)
        directions = np.vstack([half, -half])
        assert not fits_in_open_halfspace_array(directions)


class TestNearZeroRows:
    """Near-zero rows are dropped before normalising, wherever they sit."""

    @pytest.mark.parametrize("seed", range(10))
    def test_inserted_near_zero_rows_never_change_the_verdict(self, seed):
        rng = np.random.default_rng(300 + seed)
        rows = rng.normal(size=(int(rng.integers(1, 8)), 3))
        padded = rows
        for _ in range(int(rng.integers(1, 4))):
            at = int(rng.integers(0, len(padded) + 1))
            tiny = rng.normal(size=3) * 1e-15
            padded = np.insert(padded, at, tiny, axis=0)
        assert fits_in_open_halfspace_array(padded) == fits_in_open_halfspace_array(rows)
