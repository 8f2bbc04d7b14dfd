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

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.object_engine import build_snapshot_objects

from repro.geometry import Point
from repro.geometry.transforms import LocalFrame, SymmetricDistortion
from repro.model import PerceptionModel, build_snapshot
from repro.model import snapshot as snapshot_module


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


@given(
    clusters=st.integers(1, 6),
    m=st.integers(2, 90),
    seed=st.integers(0, 2**32 - 1),
    multiplicity=st.booleans(),
    block_pairs=st.sampled_from((1 << 20, 7)),
)
@settings(max_examples=80, deadline=None)
def test_coincident_clusters_collapse_like_the_object_path(
    clusters, m, seed, multiplicity, block_pairs
):
    """Clusters of coincident rows and rows at, inside and just beyond the
    coincidence epsilon of a cluster centre, on both sides of the scalar
    certificate's size, with the collapse scan's guard run in one block or
    in blocks of a few rows.  Centres and offsets are multiples of powers
    of two, so row differences are exact and an axis-aligned offset of
    exactly ``eps`` puts a pair on the ``<= eps`` boundary itself."""
    unit = 2.0**-50
    eps = 768 * unit
    rng = np.random.default_rng(seed)
    centres = rng.integers(-800, 800, size=(clusters, 2)) * 2.0**-10
    steps = rng.choice((0, 384, 767, 768, 769, 1536), size=(m, 2))
    steps *= rng.choice((-1, 1), size=(m, 2))
    axis = rng.integers(0, 3, size=m)  # offset along x, along y, or both
    steps[axis == 0, 1] = 0
    steps[axis == 1, 0] = 0
    others = centres[rng.integers(0, clusters, size=m)] + steps * unit
    with mock.patch.object(snapshot_module, "_COLLAPSE_BLOCK_PAIRS", block_pairs):
        snap = _assert_equivalent(
            (1.0, 1.0), others, 4.0, multiplicity_detection=multiplicity,
            coincidence_eps=eps,
        )
    assert snap.neighbour_count() <= m


@pytest.mark.parametrize("m", [5, 40])
def test_negative_coincidence_eps_collapses_nothing(m):
    """No pair is within a negative distance, so even equal rows, on both
    sides of the scalar certificate's size, stay apart, as on the object path."""
    rng = np.random.default_rng(m)
    others = rng.uniform(0.0, 2.0, size=(m, 2))
    others[m // 2:] = others[0]
    snap = _assert_equivalent((1.0, 1.0), others, 4.0, coincidence_eps=-1e-12)
    assert snap.neighbour_count() == m


@given(
    m=st.integers(33, 120),
    runs=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
    y_close=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_collapse_certificate_matches_the_exact_scan(m, runs, seed, y_close):
    """Past the scalar certificate's size, runs of rows whose x differ by at
    most, or just past, ``eps`` — with spread y, or (``y_close``) with some
    rows of one run on a shared y, so a near-coincident pair may have rows
    of other y between them in x order — collapse exactly as the
    first-representative scan does: the certificate skips the scan only
    when no pair is within ``eps``.  Rows are multiples of powers of two,
    so differences are exact and an offset of exactly ``eps`` sits on the
    ``<= eps`` boundary."""
    unit = 2.0**-50
    eps = 768 * unit
    rng = np.random.default_rng(seed)
    rows = rng.integers(-2**20, 2**20, size=(m, 2)) * 2.0**-20
    for run in range(runs):
        members = rng.choice(m, size=int(rng.integers(2, 9)), replace=False)
        steps = rng.choice((0, 384, 768, 769), size=len(members))
        rows[members, 0] = rows[members[0], 0] + steps * unit
        if y_close and run == 0:
            rows[members[rng.random(len(members)) < 0.5], 1] = rows[members[0], 1]
    collapsed, counts = snapshot_module._collapse_coincident_array(rows, eps)
    expected, expected_counts = snapshot_module._collapse_coincident_scan(rows, eps)
    assert collapsed.tolist() == expected.tolist()
    assert counts.tolist() == expected_counts.tolist()
