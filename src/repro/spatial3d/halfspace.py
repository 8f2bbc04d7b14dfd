"""Fast exact open-half-space decisions for the 3D destination rule.

The 3D rule stays put unless the distant neighbours' directions all fit
strictly inside some open half-space (equivalently: the origin lies
outside the convex hull of the unit directions).  The original
implementation decided this with a ``scipy.optimize.linprog`` call per
activation — hundreds of microseconds of solver setup for a
three-variable LP, which dominates the whole Look-Compute step once the
rest of the engine is vectorized.

:func:`fits_in_open_halfspace_array` decides the same question with
Wolfe's minimum-norm-point algorithm over the hull of the directions:
maintain an affinely independent corral ``S`` (at most four unit
directions in 3-space) and its convex minimum-norm combination ``x``,
and repeatedly pull in the direction ``x`` separates worst until no
direction improves.  The iteration terminates finitely; at the optimum
``x*``, the margin of the best separating normal is exactly ``|x*|``, so

* ``|x*|`` above the decision margin certifies the half-space (the
  normal is ``x* / |x*|``, checked explicitly against every direction
  before answering True), and
* everything else — origin inside the hull, boundary cases, numerical
  degeneracy, iteration-cap exhaustion — answers False, which makes the
  robot stay put: always safe under the paper's safe-ball analysis.

The computation is deterministic pure numpy, so the array and object
engine modes (which share this function) stay bit-identical.  The
LP-based :func:`repro.spatial3d.vector3.fits_in_open_halfspace` is kept
as the reference oracle; ``tests/spatial3d/test_halfspace.py``
cross-checks the two.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..geometry.tolerances import EPS

#: Margin below which a point counts as lying on the hull boundary
#: (mirrors the strict-positivity threshold the LP formulation used).
DECISION_MARGIN = 1e-7

#: Major-cycle cap.  Wolfe's algorithm terminates finitely (each cycle
#: strictly decreases ``|x|``); the cap only guards against numerical
#: stalls, where answering False (stay put) is the safe default.
MAX_ITERATIONS = 64

#: Barycentric coordinates below this are treated as zero when deciding
#: whether the affine minimizer lies inside the current corral.
_COORD_TOL = 1e-12


def _affine_minimizer(points: np.ndarray) -> Optional[np.ndarray]:
    """Barycentric coordinates of the min-norm point of an affine hull.

    Solves the KKT system of ``min |sum_i lambda_i p_i|`` subject to
    ``sum_i lambda_i = 1``; returns None when the system is singular
    (affinely dependent corral — numerically degenerate input).
    """
    k = len(points)
    system = np.empty((k + 1, k + 1), dtype=float)
    system[:k, :k] = points @ points.T
    system[:k, k] = 1.0
    system[k, :k] = 1.0
    system[k, k] = 0.0
    rhs = np.zeros(k + 1, dtype=float)
    rhs[k] = 1.0
    try:
        solution = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        return None
    return solution[:k]


def fits_in_open_halfspace_array(
    directions: np.ndarray,
    *,
    eps: float = EPS,
    decision_margin: float = DECISION_MARGIN,
    max_iterations: int = MAX_ITERATIONS,
) -> bool:
    """True when all rows of ``directions`` fit in some open half-space.

    ``directions`` is an ``(m, 3)`` array; near-zero rows are ignored,
    everything else is normalised.  Returns False for an empty input
    (matching the LP-based predicate this replaces).
    """
    d = np.asarray(directions, dtype=float).reshape(-1, 3)
    if d.size == 0:
        return False
    norms = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])
    keep = norms > eps
    if not keep.any():
        return False
    d = d[keep] / norms[keep, None]

    # Wolfe's minimum-norm-point iteration.  Start from the direction the
    # centroid separates worst (a likely member of the optimal corral).
    centroid = d.mean(axis=0)
    corral: List[int] = [int((d @ centroid).argmin())]
    weights = np.array([1.0])
    x = d[corral[0]].copy()

    for _ in range(max_iterations):
        dots = d @ x
        worst = int(dots.argmin())
        if dots[worst] > float(x @ x) - 1e-12 or worst in corral:
            break  # no direction improves: x is the minimum-norm point
        corral.append(worst)
        weights = np.append(weights, 0.0)
        # Minor cycles: pull x to the affine minimizer of the corral,
        # dropping points whose barycentric coordinate would go negative.
        while True:
            candidate = _affine_minimizer(d[corral])
            if candidate is None:
                # Degenerate corral: abandon refinement, decide on current x.
                break
            if (candidate > _COORD_TOL).all():
                weights = candidate
                x = candidate @ d[corral]
                break
            # Largest feasible step from `weights` toward `candidate`.
            shrinking = candidate < weights
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = weights[shrinking] / (weights[shrinking] - candidate[shrinking])
            theta = float(min(1.0, ratios.min()))
            weights = weights + theta * (candidate - weights)
            alive = weights > _COORD_TOL
            if alive.all():
                # Numerical edge: nothing actually hit zero; accept.
                x = weights @ d[corral]
                break
            corral = [index for index, keep_it in zip(corral, alive) if keep_it]
            weights = weights[alive]
            weights = weights / weights.sum()
            x = weights @ d[corral]

    # Certify explicitly: only answer True when x separates every
    # direction with margin above the threshold.
    nx = float(np.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2]))
    if nx <= decision_margin:
        return False
    return bool(float((d @ x).min()) > decision_margin * nx)
