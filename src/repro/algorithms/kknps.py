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

The rule is written twice.  :meth:`KKNPSAlgorithm.compute` decides one
activation from its snapshot's perceived rows, as plain floats; every
per-robot decide of the engine runs it.  :func:`kknps_destinations_all`
decides many activations at once, numpy over their perceived rows
stacked end to end, bit-identical to ``compute`` per activation.  The
engine's flat round decide (:mod:`repro.engine.decide_batch`) reaches it
through :meth:`~KKNPSAlgorithm.compute_array_rounds` for a single run,
and the replicate engine calls it with the constants a group of lanes
shares.  The ``Point``-form rule, written as the paper states it, is the
test oracle both are pinned against (``tests/reference/rules.py``).

Both forms settle the commonest case first: a robot with a distant
neighbour in each open quadrant is surrounded (no gap between distant
directions can exceed pi), so it stays put without the angular scan.
``compute`` tests its exact distant rows; the batched core certifies
with ``np.hypot`` norms and a relative margin (:func:`_surrounded`) and
runs its exact pipeline (:func:`_kknps_destinations_exact`) on the
other activations only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..geometry.angles import max_angular_gap
from ..geometry.point import Point
from ..geometry.tolerances import EPS
from ..model.snapshot import Snapshot
from .base import ConvergenceAlgorithm
from .safe_regions import kknps_safe_region_local, point_respects_disks

#: :meth:`KKNPSAlgorithm.decide_consts` — ``(close_fraction,
#: distance_error_tolerance, alpha, radius_divisor, shrink)``.
DecideConsts = Tuple[float, float, float, float, float]

#: Relative margin of the batched surround certificate
#: (:func:`_surrounded`), thousands of ulps: far above the gap between
#: ``np.hypot`` and ``math.hypot``.
_CERTIFY_MARGIN = 1e-12

#: The sign pairs of the four open quadrants (:meth:`KKNPSAlgorithm.compute`).
_OPEN_QUADRANTS = frozenset({(1, 1), (-1, 1), (-1, -1), (1, -1)})


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
        """Destination of the observing robot, in snapshot-local coordinates.

        Reads the snapshot's perceived rows as plain floats: the norms are
        ``math.hypot`` per row (as :attr:`Snapshot.norms`), the distant
        threshold uses the raw ``V_Y`` exactly as
        :meth:`distant_neighbours` does, and each distant direction is a
        unit vector divided out as :meth:`Point.unit` does it.  One
        :func:`max_angular_gap` over their angles decides both the
        half-plane test and the extreme pair.
        """
        rows = snapshot.rows.tolist()
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
        # Every distant norm exceeds EPS: above ``threshold + EPS``, or the
        # farthest one, at least ``v_y``.
        distant = [(px, py, r) for (px, py), r in zip(rows, norms) if r > threshold + EPS]
        if not distant:
            # The farthest neighbour is distant by definition.
            farthest = max(range(len(norms)), key=norms.__getitem__)
            distant = [(*rows[farthest], v_raw)]
        elif _OPEN_QUADRANTS <= {
            ((px > 0.0) - (px < 0.0), (py > 0.0) - (py < 0.0)) for px, py, _ in distant
        }:
            # A distant direction in each open quadrant leaves no gap
            # wider than pi (up to rounding far below EPS): the scan
            # below would stay put too.
            return Point.origin()
        ux = [px / r for px, _, r in distant]
        uy = [py / r for _, py, r in distant]
        gap, i, j = max_angular_gap([math.atan2(y, x) for x, y in zip(ux, uy)])
        # If the robot lies in the convex hull of its distant neighbours'
        # directions (no gap wider than a half-plane), the intersection of
        # the safe regions is its own location: stay put.
        if not gap > math.pi + EPS:
            return Point.origin()
        radius = self.effective_radius(v_y)
        if radius <= EPS:
            return Point.origin()
        # The midpoint of the safe-region centres at the gap's two ends,
        # the extreme directions; a lone direction (i == j) gives its own
        # centre exactly.
        return Point(
            (ux[j] * radius + ux[i] * radius) / 2.0,
            (uy[j] * radius + uy[i] * radius) / 2.0,
        )

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
        """Whole-round batch form of :meth:`compute`.

        ``px``/``py`` are the flat perceived neighbour coordinates of many
        activations stacked end to end; activation ``a`` owns the rows
        ``starts[a]:ends[a]``.  Returns an ``(acts, 2)`` array whose row
        ``a`` is bit-identical to :meth:`compute` on a snapshot of the
        rows ``starts[a]:ends[a]`` (see :func:`kknps_destinations_all`).
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
        return point_respects_disks(
            self.compute(snapshot), self.safe_regions(snapshot), eps=eps
        )


def kknps_destinations_all(
    px: np.ndarray,
    py: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    consts: DecideConsts,
) -> np.ndarray:
    """All activations' local KKNPS destinations, batched over the flat rows.

    Row ``a`` is bit-identical to :meth:`KKNPSAlgorithm.compute` on a
    snapshot of the rows ``starts[a]:ends[a]``.  The activations whose
    distant rows certainly surround the robot (:func:`_surrounded`) stay
    put, ``(+0.0, +0.0)`` as the exact rule leaves them; only the rest
    are gathered, each keeping its row order (the exact scan breaks ties
    by it), and decided by :func:`_kknps_destinations_exact`.  Returns
    the ``(acts, 2)`` destinations.
    """
    acts = len(starts)
    out = np.zeros((acts, 2), dtype=np.float64)
    if acts == 0 or len(px) == 0:
        return out
    counts = ends - starts
    rest = np.flatnonzero(~_surrounded(px, py, starts, counts, consts[0]))
    if len(rest):
        rest_counts = counts[rest]
        rest_ends = np.cumsum(rest_counts)
        rest_starts = rest_ends - rest_counts
        rows = np.arange(rest_ends[-1]) + np.repeat(starts[rest] - rest_starts, rest_counts)
        out[rest] = _kknps_destinations_exact(
            px[rows], py[rows], rest_starts, rest_ends, consts
        )
    return out


def _surrounded(
    px: np.ndarray,
    py: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    close_fraction: float,
) -> np.ndarray:
    """Which activations' exact rule certainly keeps the robot where it is.

    A row is *certainly distant* when its ``np.hypot`` norm clears the
    distant threshold of the activation's largest such norm with a
    relative margin of ``_CERTIFY_MARGIN`` on every factor.  ``np.hypot``
    is within an ulp or two of ``math.hypot``, far inside that margin, so
    a certainly distant row is distant (and longer than ``EPS``) under
    the exact norms too.  An activation is certified when its certainly
    distant rows include one in each open quadrant (strict sign tests,
    so zeros and NaN never count).  Each such row's exact direction
    angle lies in the closed quadrant of its signs, so no gap between
    consecutive directions, wrap-around included, exceeds pi by more
    than a few ulps of rounding — far below ``EPS``.  The exact scan's
    ``best_gap > pi + EPS`` is then false and it leaves the row at its
    initial ``(+0.0, +0.0)``; more distant rows only shrink the gaps.
    """
    acts = len(starts)
    norms = np.hypot(px, py)
    nonempty = counts > 0
    v = np.zeros(acts, dtype=np.float64)
    v[nonempty] = np.maximum.reduceat(norms, starts[nonempty])
    up = 1.0 + _CERTIFY_MARGIN
    bound = (close_fraction * v * up + EPS) * up
    row_act = np.repeat(np.arange(acts, dtype=np.int64), counts)
    distant = norms * (1.0 - _CERTIFY_MARGIN) > bound[row_act]
    right, left = px > 0.0, px < 0.0
    upper, lower = py > 0.0, py < 0.0
    quadrants = (
        (right & upper).view(np.uint8)
        | (left & upper).view(np.uint8) << 1
        | (left & lower).view(np.uint8) << 2
        | (right & lower).view(np.uint8) << 3
    )
    quadrants[~distant] = 0
    seen = np.zeros(acts, dtype=np.uint8)
    seen[nonempty] = np.bitwise_or.reduceat(quadrants, starts[nonempty])
    return seen == 15


def _kknps_destinations_exact(
    px: np.ndarray,
    py: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    consts: DecideConsts,
) -> np.ndarray:
    """The exact batched rule behind :func:`kknps_destinations_all`.

    Row ``a`` is bit-identical to :meth:`KKNPSAlgorithm.compute` on a
    snapshot of the rows ``starts[a]:ends[a]``: the per-row norms come
    from ``math.hypot`` (``np.hypot`` is not bit-identical to it
    everywhere), while everything built on them — per-activation maxima
    (picks, no arithmetic), the distant threshold, the unit directions,
    the radius — uses elementwise ufuncs in the same operation order as
    the per-snapshot rule, which numpy evaluates with the same IEEE
    arithmetic.  Only the angular-gap scan (a sort over each activation's
    few distant directions) is a per-activation reduction.  Returns the
    ``(acts, 2)`` destinations.
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
    # Reduce over the non-empty activations only: their starts increase
    # strictly, so each reduction spans exactly one activation's rows.
    v_raw = np.zeros(acts, dtype=np.float64)
    v_raw[nonempty] = np.maximum.reduceat(norms_all, starts[nonempty])
    # x / 1.0 is exactly x, so the unconditional division matches the
    # rule's ``if tol > 0.0`` guard bit for bit.
    v_y = v_raw / (1.0 + tol)
    active = nonempty & (v_y > EPS)
    threshold_eps = close_fraction * v_raw + EPS
    row_act = np.repeat(np.arange(acts, dtype=np.int64), counts)
    distant_mask = norms_all > threshold_eps[row_act]
    distant_count = np.bincount(row_act[distant_mask], minlength=acts)
    no_distant = np.flatnonzero(nonempty & (distant_count == 0))
    if len(no_distant):
        # No row clears the threshold (a tiny V_Y): the farthest row, the
        # first one on ties, is distant by definition.
        farthest = np.flatnonzero(norms_all == v_raw[row_act])
        distant_mask[farthest[np.searchsorted(farthest, starts[no_distant])]] = True
    valid_mask = distant_mask & (norms_all > EPS)
    valid_rows = np.flatnonzero(valid_mask)
    vcount = np.bincount(row_act[valid_rows], minlength=acts)
    # Same operation order as the rule's ``alpha * v_y / divisor * shrink``.
    radius = alpha * v_y / divisor * shrink
    # Unit directions of the valid distant rows, in the rule's enumeration
    # order (ascending row index within each activation).
    ux = px[valid_rows] / norms_all[valid_rows]
    uy = py[valid_rows] / norms_all[valid_rows]
    vstarts = np.zeros(acts + 1, dtype=np.int64)
    np.cumsum(vcount, out=vstarts[1:])
    single = active & (vcount == 1) & (radius > EPS)
    if single.any():
        first = vstarts[:-1][single]
        out[single, 0] = ux[first] * radius[single]
        out[single, 1] = uy[first] * radius[single]
    multi_mask = active & (vcount >= 2)
    multi = np.flatnonzero(multi_mask)
    if not len(multi):
        return out
    pi_gate = math.pi + EPS
    two_pi = 2.0 * math.pi
    # The angular-gap scan, batched.  Per activation the rule sorts
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
