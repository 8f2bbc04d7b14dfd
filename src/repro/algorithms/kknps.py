"""The paper's convergence algorithm (Kirkpatrick-Kostitsyna-Navarra-Prencipe-Santoro).

Upon activation a robot ``Y``:

1. observes its visible neighbours and sets ``V_Y`` to the distance of the
   farthest one (a tentative lower bound on the unknown range ``V``);
2. classifies neighbours farther than ``V_Y / 2`` as *distant*;
3. builds, for every distant neighbour ``X``, the ``1/k``-scaled safe
   region ``S^{V_Y/(8k)}_{Y}(X)``: a disk of radius ``V_Y/(8k)`` centred at
   that same distance from ``Y`` toward ``X``;
4. chooses its destination (Section 5 of the paper):

   * if the distant neighbours do not fit in an open half-plane through
     ``Y`` (``Y`` is in the convex hull of their directions) the
     intersection of the safe regions is ``Y`` itself, so ``Y`` stays put;
   * with exactly one distant neighbour, the destination is the centre of
     its safe region;
   * with two or more, the destination is the midpoint of the segment
     joining the centres of the safe regions of the two distant
     neighbours that bound the smallest sector containing all distant
     neighbours (the extreme directions).

Every planned move has length at most ``V_Y / 8`` (at most ``V/8``).

Error tolerance (Section 6.1): a bounded relative distance error
``delta`` is handled by scaling the perceived ``V_Y`` by ``1/(1+delta)``;
a bounded-skew compass distortion is handled by shrinking the safe-region
radius so that it is contained in the intersection of the safe regions of
all possible true neighbour directions.

Besides the per-snapshot :meth:`KKNPSAlgorithm.compute` and its float
core :meth:`~KKNPSAlgorithm.compute_relative`, the rule has a batched
form over many activations' perceived rows stacked end to end:
:func:`kknps_destinations_all` (numpy over the flat rows) and its scalar
transcription :func:`kknps_destination_segment`, both bit-identical to
``compute_relative`` per activation.  The engine's flat round decide
(:mod:`repro.engine.decide_batch`) reaches them through
:meth:`~KKNPSAlgorithm.compute_array_rounds` for a single run, and the
replicate engine calls :func:`kknps_destinations_all` with the constants
a group of lanes shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..geometry.angles import extreme_directions, fits_in_open_halfplane
from ..geometry.point import Point
from ..geometry.tolerances import EPS
from ..model.snapshot import Snapshot
from .base import ConvergenceAlgorithm
from .safe_regions import kknps_safe_region_local

#: :meth:`KKNPSAlgorithm.decide_consts` — ``(close_fraction,
#: distance_error_tolerance, alpha, radius_divisor, shrink)``.
DecideConsts = Tuple[float, float, float, float, float]


@dataclass
class KKNPSAlgorithm(ConvergenceAlgorithm):
    """The paper's k-Async cohesive-convergence algorithm.

    Parameters
    ----------
    k:
        The asynchrony bound the system is promised to respect; the safe
        regions (and hence every move) are scaled by ``1/k``.  ``k = 1``
        is the base formulation (sufficient for SSync, 1-NestA and
        1-Async).
    distance_error_tolerance:
        The relative distance-measurement error bound ``delta`` the
        algorithm is designed to tolerate; the perceived ``V_Y`` is scaled
        by ``1/(1 + delta)`` so that it never overestimates ``V``.
    skew_tolerance:
        The compass-skew bound ``lambda`` tolerated; safe regions are
        shrunk by the factor ``max(0, 1 - 2*lambda)``, a conservative
        inner approximation of the intersection over all consistent true
        directions.
    close_fraction:
        The distant/close threshold as a fraction of ``V_Y`` (the paper
        uses 1/2 and notes the choice is somewhat arbitrary).
    radius_divisor:
        The safe-region radius is ``V_Y / radius_divisor`` before scaling
        (the paper uses 8; exposed for the ablation bench).
    """

    k: int = 1
    distance_error_tolerance: float = 0.0
    skew_tolerance: float = 0.0
    close_fraction: float = 0.5
    radius_divisor: float = 8.0

    requires_visibility_range = False

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("the asynchrony bound k must be at least 1")
        if self.distance_error_tolerance < 0.0 or self.distance_error_tolerance >= 1.0:
            raise ValueError("distance error tolerance must lie in [0, 1)")
        if self.skew_tolerance < 0.0 or self.skew_tolerance >= 0.5:
            raise ValueError("skew tolerance must lie in [0, 0.5)")
        if not 0.0 < self.close_fraction < 1.0:
            raise ValueError("close_fraction must lie in (0, 1)")
        if self.radius_divisor < 4.0:
            raise ValueError("radius divisor below 4 violates the safe-region analysis")
        self.name = f"kknps(k={self.k})"

    # -- derived quantities -------------------------------------------------------
    @property
    def alpha(self) -> float:
        """The scaling factor ``1/k`` applied to the basic safe regions."""
        return 1.0 / float(self.k)

    def effective_radius(self, v_lower_bound: float) -> float:
        """Radius of the (scaled, error-shrunk) safe region for bound ``v_lower_bound``."""
        shrink = max(0.0, 1.0 - 2.0 * self.skew_tolerance)
        return self.alpha * v_lower_bound / self.radius_divisor * shrink

    def perceived_range_bound(self, snapshot: Snapshot) -> float:
        """The (error-corrected) lower bound ``V_Y`` used for this activation."""
        v_y = snapshot.farthest_distance()
        if self.distance_error_tolerance > 0.0:
            v_y /= 1.0 + self.distance_error_tolerance
        return v_y

    def distant_neighbours(self, snapshot: Snapshot) -> List[Point]:
        """The perceived positions classified as distant for this activation."""
        v_y = snapshot.farthest_distance()
        if v_y <= EPS:
            return []
        threshold = self.close_fraction * v_y
        norms = snapshot.norms
        distant = [
            p for p, r in zip(snapshot.neighbours, norms) if r > threshold + EPS
        ]
        if not distant:
            # The farthest neighbour is distant by definition.
            distant = [snapshot.farthest_neighbour()]
        return distant

    def max_move_length(self, snapshot: Snapshot) -> float:
        """Upper bound on the move this activation may plan (``V_Y/(8k)``)."""
        return self.effective_radius(self.perceived_range_bound(snapshot))

    # -- the motion rule -------------------------------------------------------------
    def compute(self, snapshot: Snapshot) -> Point:
        """Destination of the observing robot, in snapshot-local coordinates."""
        if not snapshot.has_neighbours():
            return Point.origin()

        v_y = self.perceived_range_bound(snapshot)
        if v_y <= EPS:
            return Point.origin()

        distant = self.distant_neighbours(snapshot)
        directions = [p.unit() for p in distant if p.norm() > EPS]
        if not directions:
            return Point.origin()

        # If the robot lies in the convex hull of its distant neighbours'
        # directions, the intersection of the safe regions is its own
        # location: stay put.
        if not fits_in_open_halfplane(directions):
            return Point.origin()

        radius = self.effective_radius(v_y)
        if radius <= EPS:
            return Point.origin()

        if len(directions) == 1:
            return directions[0] * radius

        i, j = extreme_directions(directions)
        center_i = directions[i] * radius
        center_j = directions[j] * radius
        return center_i.midpoint(center_j)

    def compute_relative(
        self, perceived: np.ndarray, visibility_range: float | None = None
    ) -> Point:
        """The float-core form of :meth:`compute` for the round fast path.

        ``perceived`` holds the perceived neighbour rows in snapshot
        order.  The norms are the scalar ``math.hypot`` values a
        :class:`Snapshot` would cache, the distant threshold uses the raw
        ``V_Y`` exactly as :meth:`distant_neighbours` does, and
        :class:`Point` objects are built only for the (typically tiny)
        distant subset so the direction helpers run verbatim —
        bit-identical destination, a fraction of the allocation.
        """
        rows = perceived.tolist()
        if not rows:
            return Point.origin()
        norms = [math.hypot(px, py) for px, py in rows]
        v_raw = max(norms)
        v_y = v_raw
        if self.distance_error_tolerance > 0.0:
            v_y = v_raw / (1.0 + self.distance_error_tolerance)
        if v_y <= EPS:
            return Point.origin()
        threshold = self.close_fraction * v_raw
        distant = [
            Point(px, py) for (px, py), r in zip(rows, norms) if r > threshold + EPS
        ]
        if not distant:
            farthest = max(range(len(norms)), key=norms.__getitem__)
            distant = [Point(rows[farthest][0], rows[farthest][1])]
        directions = [p.unit() for p in distant if p.norm() > EPS]
        if not directions:
            return Point.origin()
        if not fits_in_open_halfplane(directions):
            return Point.origin()
        radius = self.effective_radius(v_y)
        if radius <= EPS:
            return Point.origin()
        if len(directions) == 1:
            return directions[0] * radius
        i, j = extreme_directions(directions)
        center_i = directions[i] * radius
        center_j = directions[j] * radius
        return center_i.midpoint(center_j)

    def decide_consts(self) -> DecideConsts:
        """The scalar constants the batched decide cores consume.

        In core order: ``(close_fraction, distance_error_tolerance,
        alpha, radius_divisor, shrink)``.
        """
        return (
            self.close_fraction,
            self.distance_error_tolerance,
            self.alpha,
            self.radius_divisor,
            max(0.0, 1.0 - 2.0 * self.skew_tolerance),
        )

    def compute_array_rounds(
        self,
        px: np.ndarray,
        py: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
    ) -> np.ndarray:
        """Whole-round batch form of :meth:`compute_relative`.

        ``px``/``py`` are the flat perceived neighbour coordinates of many
        activations stacked end to end; activation ``a`` owns the rows
        ``starts[a]:ends[a]``.  Returns an ``(acts, 2)`` array whose row
        ``a`` is bit-identical to
        ``compute_relative(rows[starts[a]:ends[a]])`` (see
        :func:`kknps_destinations_all`).
        """
        return kknps_destinations_all(px, py, starts, ends, self.decide_consts())

    def describe(self) -> str:
        """One-line description including the error tolerances."""
        parts = [self.name]
        if self.distance_error_tolerance > 0.0:
            parts.append(f"delta={self.distance_error_tolerance}")
        if self.skew_tolerance > 0.0:
            parts.append(f"lambda={self.skew_tolerance}")
        if self.radius_divisor != 8.0:
            parts.append(f"divisor={self.radius_divisor}")
        return ", ".join(parts)

    # -- introspection used by tests and the verification benches ---------------------
    def safe_regions(self, snapshot: Snapshot):
        """The (scaled) safe regions of this activation's distant neighbours."""
        v_y = self.perceived_range_bound(snapshot)
        shrink = max(0.0, 1.0 - 2.0 * self.skew_tolerance)
        return [
            kknps_safe_region_local(
                p, v_y * shrink, alpha=self.alpha, radius_divisor=self.radius_divisor
            )
            for p in self.distant_neighbours(snapshot)
        ]

    def destination_respects_safe_regions(self, snapshot: Snapshot, *, eps: float = 1e-9) -> bool:
        """Check that the computed destination lies in every distant safe region."""
        from ..geometry.pointloc import points_in_all_disks

        destination = self.compute(snapshot)
        verdict = points_in_all_disks(
            self.safe_regions(snapshot),
            np.array([destination.x]),
            np.array([destination.y]),
            eps=eps,
        )
        return bool(verdict[0])


def kknps_destination_segment(
    px: np.ndarray,
    py: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    consts: DecideConsts,
    lo: int,
    hi: int,
    out: np.ndarray,
) -> None:
    """Local-frame KKNPS destinations for activations ``lo..hi`` (exclusive).

    ``px``/``py`` are the flat perceived neighbour coordinates of *all*
    activations; activation ``a`` owns rows ``starts[a]:ends[a]``, and
    ``consts`` is :meth:`KKNPSAlgorithm.decide_consts`.  The body is a
    faithful scalar transcription of :meth:`KKNPSAlgorithm.compute_relative`
    (same ``math.hypot`` norms, same distant classification, same
    half-plane/extreme-direction helpers), so each output row is
    bit-identical to what the per-robot round decider computes for the
    same perceived rows.
    """
    if hi <= lo:
        return
    close_fraction, tol, alpha, divisor, shrink = consts
    starts_l = starts.tolist()
    ends_l = ends.tolist()
    # All rows this slice touches, hoisted into plain lists once; the norms
    # come from the same ``math.hypot`` the per-robot tier applies per row
    # (``np.hypot`` is not bit-identical to it on every platform).
    row_lo = starts_l[lo]
    row_hi = ends_l[hi - 1]
    pxl = px[row_lo:row_hi].tolist()
    pyl = py[row_lo:row_hi].tolist()
    norms_all = list(map(math.hypot, pxl, pyl))
    atan2 = math.atan2
    pi_gate = math.pi + EPS
    two_pi = 2.0 * math.pi
    # Accumulate into plain lists and write the slice once at the end —
    # per-activation numpy scalar stores cost more than the arithmetic.
    out_x = [0.0] * (hi - lo)
    out_y = [0.0] * (hi - lo)
    for a in range(lo, hi):
        s = starts_l[a] - row_lo
        e = ends_l[a] - row_lo
        if s == e:
            continue
        norms = norms_all[s:e]
        v_raw = max(norms)
        v_y = v_raw
        if tol > 0.0:
            v_y = v_raw / (1.0 + tol)
        if v_y <= EPS:
            continue
        # ``norms[k] > threshold + EPS`` with the sum hoisted (same float
        # every iteration).
        threshold_eps = close_fraction * v_raw + EPS
        distant = [k for k, nk in enumerate(norms) if nk > threshold_eps]
        if not distant:
            distant = [max(range(len(norms)), key=norms.__getitem__)]
        directions: List[Tuple[float, float]] = []
        for k in distant:
            nk = norms[k]
            if nk > EPS:
                directions.append((pxl[s + k] / nk, pyl[s + k] / nk))
        if not directions:
            continue
        if len(directions) == 1:
            # A single direction's maximum gap is the full circle, which
            # always clears the half-plane gate.
            radius = alpha * v_y / divisor * shrink
            if radius <= EPS:
                continue
            out_x[a - lo] = directions[0][0] * radius
            out_y[a - lo] = directions[0][1] * radius
            continue
        # Inline ``max_angular_gap`` over the atan2 angles: atan2 lands in
        # [-pi, pi], where ``normalize_angle_positive`` reduces to a bare
        # ``+ 2*pi`` for negatives (``math.fmod`` is exact below one
        # period), so the listcomp below is bit-identical to it.
        angles = [atan2(dy, dx) for dx, dy in directions]
        normalized = [t + two_pi if t < 0.0 else t for t in angles]
        order = sorted(range(len(normalized)), key=normalized.__getitem__)
        best_gap = -1.0
        gap_i = gap_j = order[0]
        last = len(order) - 1
        for idx in range(last + 1):
            i2 = order[idx]
            if idx == last:
                j2 = order[0]
                gap = normalized[j2] - normalized[i2] + two_pi
            else:
                j2 = order[idx + 1]
                gap = normalized[j2] - normalized[i2]
            if gap > best_gap:
                best_gap = gap
                gap_i = i2
                gap_j = j2
        if not best_gap > pi_gate:
            # The distant directions do not fit in an open half-plane:
            # the robot stays put (compute_relative returns the origin).
            continue
        radius = alpha * v_y / divisor * shrink
        if radius <= EPS:
            continue
        # extreme_directions(directions) == (j, i) of the max gap's (i, j).
        ix, iy = directions[gap_j]
        jx, jy = directions[gap_i]
        cix, ciy = ix * radius, iy * radius
        cjx, cjy = jx * radius, jy * radius
        out_x[a - lo] = (cix + cjx) / 2.0
        out_y[a - lo] = (ciy + cjy) / 2.0
    out[lo:hi, 0] = out_x
    out[lo:hi, 1] = out_y


def kknps_destinations_all(
    px: np.ndarray,
    py: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    consts: DecideConsts,
) -> np.ndarray:
    """All activations' local KKNPS destinations, batched over the flat rows.

    Value-identical to :func:`kknps_destination_segment` over ``0..acts``:
    the per-row norms still come from ``math.hypot`` (``np.hypot`` is not
    bit-identical to it everywhere), while everything built on them —
    per-activation maxima (picks, no arithmetic), the distant threshold,
    the unit directions, the radius — uses elementwise ufuncs in the same
    operation order as the scalar core, which numpy evaluates with the
    same IEEE arithmetic.  Only the angular-gap scan (a sort over each
    activation's few distant directions) stays scalar, and activations
    whose distant set is empty take the scalar core verbatim for its
    argmax fallback.  Returns the ``(acts, 2)`` destinations.
    """
    acts = len(starts)
    rows = len(px)
    out = np.zeros((acts, 2), dtype=np.float64)
    if acts == 0 or rows == 0:
        return out
    close_fraction, tol, alpha, divisor, shrink = consts
    counts = ends - starts
    norms_all = np.fromiter(
        map(math.hypot, px.tolist(), py.tolist()), dtype=np.float64, count=rows
    )
    nonempty = counts > 0
    safe_starts = np.minimum(starts, rows - 1)
    v_raw = np.maximum.reduceat(norms_all, safe_starts)
    # x / 1.0 is exactly x, so the unconditional division matches the
    # scalar core's ``if tol > 0.0`` guard bit for bit.
    v_y = v_raw / (1.0 + tol)
    active = nonempty & (v_y > EPS)
    threshold_eps = close_fraction * v_raw + EPS
    row_act = np.repeat(np.arange(acts, dtype=np.int64), counts)
    distant_mask = norms_all > threshold_eps[row_act]
    distant_count = np.bincount(row_act[distant_mask], minlength=acts)
    valid_mask = distant_mask & (norms_all > EPS)
    valid_rows = np.flatnonzero(valid_mask)
    vcount = np.bincount(row_act[valid_rows], minlength=acts)
    # Same operation order as the scalar ``alpha * v_y / divisor * shrink``.
    radius = alpha * v_y / divisor * shrink
    # Unit directions of the valid distant rows, in the scalar core's
    # enumeration order (ascending row index within each activation).
    ux = px[valid_rows] / norms_all[valid_rows]
    uy = py[valid_rows] / norms_all[valid_rows]
    vstarts = np.zeros(acts + 1, dtype=np.int64)
    np.cumsum(vcount, out=vstarts[1:])
    single = active & (distant_count > 0) & (vcount == 1) & (radius > EPS)
    if single.any():
        first = vstarts[:-1][single]
        out[single, 0] = ux[first] * radius[single]
        out[single, 1] = uy[first] * radius[single]
    fallback = np.flatnonzero(active & (distant_count == 0))
    for a in fallback.tolist():
        # Every distant candidate filtered out: the scalar core promotes
        # the overall-farthest neighbour; reuse it verbatim.
        kknps_destination_segment(px, py, starts, ends, consts, a, a + 1, out)
    multi_mask = active & (vcount >= 2)
    multi = np.flatnonzero(multi_mask)
    if not len(multi):
        return out
    pi_gate = math.pi + EPS
    two_pi = 2.0 * math.pi
    # The angular-gap scan, batched.  Per activation the scalar core sorts
    # its directions by normalised angle (a stable sort — lexsort likewise),
    # walks consecutive gaps plus the wrap-around gap last, and keeps the
    # FIRST gap strictly exceeding the running best, i.e. the first
    # occurrence of the maximum in that scan order.  Every step below is a
    # pick or the same left-to-right subtraction, so the selected
    # directions — and the midpoint arithmetic on them — are identical.
    vact = np.repeat(np.arange(acts, dtype=np.int64), vcount)
    m_rows = np.flatnonzero(multi_mask[vact])
    m_act = vact[m_rows]
    angles = np.fromiter(
        map(math.atan2, uy[m_rows].tolist(), ux[m_rows].tolist()),
        dtype=np.float64,
        count=len(m_rows),
    )
    # atan2 lands in [-pi, pi], where ``normalize_angle_positive`` reduces
    # to a bare ``+ 2*pi`` for negatives (``math.fmod`` is exact below one
    # period).
    normalized = np.where(angles < 0.0, angles + two_pi, angles)
    order = np.lexsort((normalized, m_act))
    sn = normalized[order]
    seg_counts = vcount[multi]
    bounds = np.zeros(len(multi) + 1, dtype=np.int64)
    np.cumsum(seg_counts, out=bounds[1:])
    seg_lo = bounds[:-1]
    seg_hi = bounds[1:]
    gaps = np.empty(len(m_rows), dtype=np.float64)
    gaps[:-1] = sn[1:] - sn[:-1]
    gaps[seg_hi - 1] = (sn[seg_lo] - sn[seg_hi - 1]) + two_pi
    seg_of = np.repeat(np.arange(len(multi)), seg_counts)
    best_gap = np.maximum.reduceat(gaps, seg_lo)
    position = np.arange(len(m_rows), dtype=np.int64)
    first_best = np.minimum.reduceat(
        np.where(gaps == best_gap[seg_of], position, len(m_rows)), seg_lo
    )
    chosen = np.flatnonzero((best_gap > pi_gate) & (radius[multi] > EPS))
    if not len(chosen):
        return out
    p_i = first_best[chosen]
    p_j = np.where(p_i == seg_hi[chosen] - 1, seg_lo[chosen], p_i + 1)
    rows_sorted = m_rows[order]
    row_i = rows_sorted[p_i]
    row_j = rows_sorted[p_j]
    r = radius[multi[chosen]]
    cix = ux[row_j] * r
    ciy = uy[row_j] * r
    cjx = ux[row_i] * r
    cjy = uy[row_i] * r
    out[multi[chosen], 0] = (cix + cjx) / 2.0
    out[multi[chosen], 1] = (ciy + cjy) / 2.0
    return out
