"""Workload generators: initial robot configurations for the experiments.

All generators guarantee the property every limited-visibility experiment
needs: the visibility graph of the generated configuration is connected —
by construction, or (``annulus``, ``disk``) by rejecting samples until
:func:`~repro.model.visibility.is_connected` accepts one.  Random
generators take an explicit numpy ``Generator`` (or a seed) so runs are
reproducible.

Configurations are built as ``(n, 2)`` rows with the floats and RNG order
of placing one ``Point`` per robot (``Point.polar`` plus addition); angles
go through ``math.cos``/``math.sin``, as ``np.cos`` need not round alike.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

from ..model.configuration import Configuration
from ..model.visibility import is_connected

RngLike = Union[int, np.random.Generator, None]


def _rng(seed: RngLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _polar_rows(radius, angles) -> np.ndarray:
    """``Point.polar(radius, angle)`` of every angle (``radius`` scalar or per angle) as rows."""
    angles = np.asarray(angles, dtype=float).tolist()
    cos = np.fromiter(map(math.cos, angles), dtype=float, count=len(angles))
    sin = np.fromiter(map(math.sin, angles), dtype=float, count=len(angles))
    return np.column_stack((radius * cos, radius * sin))


def _disk_offsets(rng: np.random.Generator, radius: float, count: int) -> np.ndarray:
    """``count`` offsets uniform in a disk; each draws its radius, then its angle."""
    radii = np.empty(count)
    angles = np.empty(count)
    for k in range(count):
        radii[k] = radius * math.sqrt(rng.random())
        angles[k] = rng.uniform(0.0, 2.0 * math.pi)
    return _polar_rows(radii, angles)


def line_configuration(
    n: int, *, spacing: float = 0.8, visibility_range: float = 1.0
) -> Configuration:
    """``n`` robots evenly spaced on a horizontal line (connected when spacing <= V)."""
    if n < 1:
        raise ValueError("need at least one robot")
    if spacing > visibility_range:
        raise ValueError("spacing beyond the visibility range would disconnect the line")
    rows = np.zeros((n, 2))
    rows[:, 0] = np.arange(n) * spacing
    return Configuration.of(rows, visibility_range)


def grid_configuration(
    rows: int, cols: int, *, spacing: float = 0.7, visibility_range: float = 1.0
) -> Configuration:
    """A ``rows x cols`` grid of robots (connected when spacing <= V)."""
    if rows < 1 or cols < 1:
        raise ValueError("grid must have at least one row and one column")
    if spacing > visibility_range:
        raise ValueError("spacing beyond the visibility range would disconnect the grid")
    xs = np.tile(np.arange(cols) * spacing, rows)
    ys = np.repeat(np.arange(rows) * spacing, cols)
    return Configuration.of(np.column_stack((xs, ys)), visibility_range)


def truncated_grid_configuration(
    n: int, *, spacing: float = 0.7, visibility_range: float = 1.0
) -> Configuration:
    """Exactly ``n`` robots filling a near-square grid in row-major order.

    The last row may be partial; row-major truncation keeps the grid
    connected, since every robot still has its left or lower neighbour at
    ``spacing``.  This is the exact-count form the sweep engine needs: a
    grid point labelled ``n`` must actually simulate ``n`` robots.
    """
    if n < 1:
        raise ValueError("need at least one robot")
    if spacing > visibility_range:
        raise ValueError("spacing beyond the visibility range would disconnect the grid")
    cols = max(1, math.ceil(math.sqrt(n)))
    index = np.arange(n)
    rows = np.column_stack(((index % cols) * spacing, (index // cols) * spacing))
    return Configuration.of(rows, visibility_range)


def ring_configuration(
    n: int, *, visibility_range: float = 1.0, chord_fraction: float = 0.9
) -> Configuration:
    """``n`` robots on a circle whose neighbouring chord is ``chord_fraction * V``."""
    if n < 3:
        raise ValueError("a ring needs at least three robots")
    if not 0.0 < chord_fraction <= 1.0:
        raise ValueError("chord_fraction must lie in (0, 1]")
    chord = chord_fraction * visibility_range
    radius = chord / (2.0 * math.sin(math.pi / n))
    rows = _polar_rows(radius, 2.0 * math.pi * np.arange(n) / n)
    return Configuration.of(rows, visibility_range)


def random_connected_configuration(
    n: int,
    *,
    visibility_range: float = 1.0,
    attach_radius_fraction: float = 0.9,
    spread: float = 0.75,
    seed: RngLike = 0,
) -> Configuration:
    """A random connected configuration built by incremental attachment.

    Each new robot is placed within ``attach_radius_fraction * V`` of a
    uniformly chosen existing robot, which guarantees connectivity by
    construction while producing irregular, sprawling shapes.  ``spread``
    biases how far from the anchor new robots land.
    """
    if n < 1:
        raise ValueError("need at least one robot")
    if not 0.0 < attach_radius_fraction <= 1.0:
        raise ValueError("attach_radius_fraction must lie in (0, 1]")
    rng = _rng(seed)
    xs = [0.0]
    ys = [0.0]
    max_radius = attach_radius_fraction * visibility_range
    while len(xs) < n:
        anchor = int(rng.integers(0, len(xs)))
        radius = max_radius * (spread + (1.0 - spread) * rng.random())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        xs.append(xs[anchor] + radius * math.cos(angle))
        ys.append(ys[anchor] + radius * math.sin(angle))
    return Configuration.of(np.column_stack((xs, ys)), visibility_range)


def clustered_configuration(
    n_clusters: int,
    robots_per_cluster: int,
    *,
    visibility_range: float = 1.0,
    cluster_radius_fraction: float = 0.3,
    seed: RngLike = 0,
    cluster_sizes: Optional[Sequence[int]] = None,
) -> Configuration:
    """Several tight clusters joined by a chain of bridging robots.

    The cluster centres sit on a line ``1.2 V`` apart with one bridging
    robot midway between consecutive clusters; with the default cluster
    radius (``0.3 V``) every cluster member is within ``0.9 V`` of the
    nearest bridge, so the configuration is connected but has long thin
    'corridors' — a stress shape for cohesion.

    ``cluster_sizes`` overrides the uniform ``robots_per_cluster`` with an
    explicit per-cluster count (one entry per cluster), which lets callers
    hit an exact total robot count.
    """
    if n_clusters < 1 or robots_per_cluster < 1:
        raise ValueError("need at least one cluster with at least one robot")
    if cluster_radius_fraction > 0.35:
        raise ValueError("cluster_radius_fraction above 0.35 can disconnect a cluster from its bridge")
    if cluster_sizes is None:
        cluster_sizes = [robots_per_cluster] * n_clusters
    if len(cluster_sizes) != n_clusters or any(size < 1 for size in cluster_sizes):
        raise ValueError("cluster_sizes needs one positive entry per cluster")
    rng = _rng(seed)
    cluster_gap = 1.2 * visibility_range
    cluster_radius = cluster_radius_fraction * visibility_range
    blocks = []
    for c, size in enumerate(cluster_sizes):
        blocks.append(np.array([c * cluster_gap, 0.0]) + _disk_offsets(rng, cluster_radius, size))
        if c + 1 < n_clusters:
            blocks.append(np.array([[(c + 0.5) * cluster_gap, 0.0]]))
    return Configuration.of(np.concatenate(blocks), visibility_range)


def blob_configuration(
    n: int,
    *,
    n_blobs: int = 3,
    visibility_range: float = 1.0,
    blob_radius_fraction: float = 0.2,
    centre_gap_fraction: float = 0.55,
    seed: RngLike = 0,
) -> Configuration:
    """``n`` robots split into dense blobs scattered by incremental attachment.

    Each blob centre is placed at ``centre_gap_fraction * V`` from a
    uniformly chosen earlier centre (chain connectivity of the blobs), and
    every robot lands within ``blob_radius_fraction * V`` of its centre.
    With ``centre_gap_fraction + 2 * blob_radius_fraction <= 1`` every robot
    of a blob sees every robot of the blob its centre attached to, so the
    configuration is connected by construction — unlike
    :func:`clustered_configuration` there are no bridging robots, which
    makes this the harsher cohesion workload of the two.
    """
    if n < 1:
        raise ValueError("need at least one robot")
    if n_blobs < 1:
        raise ValueError("need at least one blob")
    if n < n_blobs:
        raise ValueError("need at least one robot per blob")
    if centre_gap_fraction + 2.0 * blob_radius_fraction > 1.0:
        raise ValueError(
            "centre gap plus two blob radii beyond the visibility range would "
            "disconnect adjacent blobs"
        )
    rng = _rng(seed)
    centres = [(0.0, 0.0)]
    gap = centre_gap_fraction * visibility_range
    while len(centres) < n_blobs:
        ax, ay = centres[int(rng.integers(0, len(centres)))]
        angle = rng.uniform(0.0, 2.0 * math.pi)
        centres.append((ax + gap * math.cos(angle), ay + gap * math.sin(angle)))
    blob_radius = blob_radius_fraction * visibility_range
    sizes = [n // n_blobs + (1 if b < n % n_blobs else 0) for b in range(n_blobs)]
    blocks = [
        np.array(centre) + _disk_offsets(rng, blob_radius, size)
        for centre, size in zip(centres, sizes)
    ]
    return Configuration.of(np.concatenate(blocks), visibility_range)


def annulus_configuration(
    n: int,
    *,
    inner_radius: float = 0.5,
    outer_radius: float = 1.2,
    visibility_range: float = 1.0,
    seed: RngLike = 0,
    max_attempts: int = 400,
) -> Configuration:
    """Uniformly random points in an annulus, rejected until connected.

    The hole in the middle forces the visibility graph around a ring — a
    stress shape for congregation, since the hull must collapse through a
    region no robot starts in.  Raises if no connected sample is found
    within ``max_attempts`` (narrow the annulus or raise V).
    """
    if n < 2:
        raise ValueError("an annulus workload needs at least two robots")
    if not 0.0 <= inner_radius < outer_radius:
        raise ValueError("need 0 <= inner_radius < outer_radius")
    rng = _rng(seed)
    for _ in range(max_attempts):
        # Uniform by area: r^2 uniform on [inner^2, outer^2].
        radii = np.sqrt(
            rng.uniform(inner_radius**2, outer_radius**2, n)
        )
        angles = rng.uniform(0.0, 2.0 * math.pi, n)
        rows = _polar_rows(radii, angles)
        if is_connected(rows, visibility_range):
            return Configuration.of(rows, visibility_range)
    raise RuntimeError(
        f"no connected configuration of {n} robots found in the annulus "
        f"[{inner_radius}, {outer_radius}] with V={visibility_range} "
        f"after {max_attempts} attempts"
    )


def random_disk_configuration(
    n: int,
    *,
    disk_radius: float = 2.0,
    visibility_range: float = 1.0,
    seed: RngLike = 0,
    max_attempts: int = 200,
) -> Configuration:
    """Uniformly random points in a disk, rejected until connected.

    Useful as an 'unstructured' workload; raises if no connected sample is
    found within ``max_attempts`` (choose a smaller disk or larger V).
    """
    rng = _rng(seed)
    for _ in range(max_attempts):
        radii = disk_radius * np.sqrt(rng.random(n))
        angles = rng.uniform(0.0, 2.0 * math.pi, n)
        rows = _polar_rows(radii, angles)
        if is_connected(rows, visibility_range):
            return Configuration.of(rows, visibility_range)
    raise RuntimeError(
        f"no connected configuration of {n} robots found in a disk of radius {disk_radius} "
        f"with V={visibility_range} after {max_attempts} attempts"
    )


def polygon_configuration(
    n: int, *, side_length: float = 1.0, visibility_range: float = 1.0
) -> Configuration:
    """A regular ``n``-gon with the given side length.

    With ``side_length == visibility_range`` this is the frozen
    configuration used in the paper's error-tolerance arguments (Section 6.1
    and Section 7.2.1): any algorithm that refuses to move the apex of a
    near-degenerate triple must freeze on it.
    """
    if n < 3:
        raise ValueError("a polygon needs at least three vertices")
    circumradius = side_length / (2.0 * math.sin(math.pi / n))
    rows = _polar_rows(circumradius, 2.0 * math.pi * np.arange(n) / n)
    return Configuration.of(rows, visibility_range)


def two_robot_configuration(separation: float, *, visibility_range: float = 1.0) -> Configuration:
    """Two robots at the given separation (the minimal interesting configuration)."""
    return Configuration.of([(0.0, 0.0), (separation, 0.0)], visibility_range)
