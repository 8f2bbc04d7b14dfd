"""Property tests: the array snapshot path is equivalent to the object path.

``build_snapshot`` runs a batched numpy pipeline;
:func:`reference.object_engine.build_snapshot_objects` keeps the
per-Point reference pipeline.  These tests pin their equivalence, bit
for bit, over random configurations crossed with
every feature that changes the pipeline: private frames (rotation,
reflection, scale), perception error models (including random draws,
where both paths must consume the RNG stream identically), coincident
robots, multiplicity detection, range revelation and the k-bound
pass-through.
"""

from __future__ import annotations

import numpy as np
import pytest
from reference.object_engine import build_snapshot_objects

from repro.geometry import Point
from repro.geometry.transforms import LocalFrame, SymmetricDistortion
from repro.model import PerceptionModel, build_snapshot


def _random_others(rng: np.random.Generator, m: int, *, duplicates: bool = False):
    others = rng.normal(scale=1.2, size=(m, 2))
    if duplicates and m >= 4:
        # Exact duplicates of earlier rows plus one robot on the observer.
        others[m // 2] = others[0]
        others[m // 2 + 1] = others[1]
        others[-1] = (0.0, 0.0)
    return others


def _assert_equivalent(observer, others, visibility_range, *, rng_seed=0, **kwargs):
    first = build_snapshot(
        observer,
        others,
        visibility_range,
        rng=np.random.default_rng(rng_seed),
        **kwargs,
    )
    second = build_snapshot_objects(
        observer,
        [Point.of(p) for p in others],
        visibility_range,
        rng=np.random.default_rng(rng_seed),
        **kwargs,
    )
    assert first.neighbours == second.neighbours
    assert first.multiplicities == second.multiplicities
    assert first.visibility_range == second.visibility_range
    assert first.k_bound == second.k_bound
    assert first.time == second.time
    assert first.robot_id == second.robot_id
    return first


class TestSnapshotPathEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_plain_visibility_filtering(self, seed):
        rng = np.random.default_rng(seed)
        others = _random_others(rng, int(rng.integers(0, 30)))
        snap = _assert_equivalent((0.1, -0.2), others, 1.0)
        for p in snap.neighbours:
            assert p.norm() <= 1.0 + 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_with_random_frames(self, seed):
        rng = np.random.default_rng(seed)
        others = _random_others(rng, 12)
        frame = LocalFrame(
            Point.origin(),
            rotation=float(rng.uniform(0, 2 * np.pi)),
            reflected=bool(rng.integers(0, 2)),
            scale=float(rng.uniform(0.5, 2.0)),
        )
        _assert_equivalent((0.0, 0.3), others, 1.5, frame=frame)

    @pytest.mark.parametrize(
        "perception",
        [
            PerceptionModel(distance_error=0.1, bias="over"),
            PerceptionModel(distance_error=0.1, bias="under"),
            PerceptionModel(distance_error=0.1, bias="random"),
            PerceptionModel(distortion=SymmetricDistortion(amplitude=0.2, frequency=4)),
            PerceptionModel(
                distance_error=0.05,
                bias="random",
                distortion=SymmetricDistortion(amplitude=0.1, frequency=2),
            ),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 3])
    def test_with_perception_errors(self, perception, seed):
        rng = np.random.default_rng(seed)
        others = _random_others(rng, 15, duplicates=True)
        _assert_equivalent((0.0, 0.0), others, 2.0, perception=perception, rng_seed=seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_with_coincident_robots(self, seed):
        rng = np.random.default_rng(seed)
        others = _random_others(rng, 14, duplicates=True)
        snap = _assert_equivalent(
            (0.0, 0.0), others, 3.0, multiplicity_detection=True, rng_seed=seed
        )
        assert snap.multiplicities is not None
        assert sum(snap.multiplicities) >= snap.neighbour_count()

    def test_near_coincident_cluster(self):
        # Points within, at and just above the coincidence epsilon.
        eps = 1e-12
        others = [
            (0.5, 0.5),
            (0.5 + 0.4 * eps, 0.5),
            (0.5, 0.5 + 0.9 * eps),
            (0.5 + 5 * eps, 0.5),
            (0.7, 0.5),
        ]
        snap = _assert_equivalent((0.0, 0.0), others, 2.0, multiplicity_detection=True)
        assert snap.neighbour_count() < len(others)

    def test_axis_aligned_grid_configuration(self):
        # Many robots sharing exact x coordinates (lexsort runs with ties).
        others = [(0.2 * i, 0.2 * j) for i in range(5) for j in range(5)]
        _assert_equivalent((0.45, 0.45), others, 0.5)

    def test_collinear_vertical_stack(self):
        others = [(0.3, 0.1 * j) for j in range(12)]
        _assert_equivalent((0.0, 0.0), others, 1.0)

    @pytest.mark.parametrize("k_bound", [None, 1, 3])
    @pytest.mark.parametrize("reveal_range", [False, True])
    def test_metadata_passthrough(self, k_bound, reveal_range):
        rng = np.random.default_rng(5)
        others = _random_others(rng, 9)
        snap = _assert_equivalent(
            (0.0, 0.0),
            others,
            1.0,
            k_bound=k_bound,
            reveal_range=reveal_range,
            time=4.25,
            robot_id=3,
        )
        assert snap.k_bound == k_bound
        assert (snap.visibility_range == 1.0) if reveal_range else (
            snap.visibility_range is None
        )

    def test_empty_and_single_inputs(self):
        _assert_equivalent((1.0, 1.0), [], 1.0)
        _assert_equivalent((1.0, 1.0), [(1.5, 1.0)], 1.0)
        _assert_equivalent((1.0, 1.0), [(1.0, 1.0)], 1.0)  # observer-coincident only
