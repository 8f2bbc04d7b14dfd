"""The round engine behind :func:`repro.spatial3d.run_simulation3`.

The round simulator is a **thin adapter over the dimension-generic
continuous-time kernel** (:class:`~repro.engine.kernel.ContinuousKernel`):
the round semantics live in :class:`Round3Scheduler` (one simultaneous
batch per round, per-round measurement and stopping at round boundaries)
and :class:`_RoundKernel3` (the historical Look filter, frame rotation
and ``uniform(xi, 1)`` fraction draws, in the historical RNG order),
while the activation pipeline itself — round consumption, the round's
carried visible pairs, phase transitions — is the same kernel that runs
planar and continuous-time 3D simulations.

Its outcomes are **bit-identical** to the historical per-robot
:class:`~repro.spatial3d.vector3.Vector3` loop, which
``tests/reference/object_engine3.py`` keeps as the oracle that
``tests/spatial3d/test_engine3.py`` pins this engine against.  Three
things make that hold by construction rather than by luck:

* the RNG is consumed in the historical order (one ``random(n)`` draw per
  round for the activation subset, then per activated robot a rotation
  and a progress fraction) — numpy's ``Generator`` fills vectorized draws
  from the same bitstream as repeated scalar draws;
* rotations are applied through explicit component expressions (no BLAS
  matmul, whose summation order is build-dependent), evaluated in the
  same order scalar Python would;
* the destination rule itself is one shared numeric core
  (``compute_array``), which the per-robot loop reaches through
  ``compute``'s delegation.

Round semantics through the kernel, spelled out: every activated robot
of round ``r`` Looks at ``t = r`` — robots activated earlier in the same
round have begun moves whose span starts at ``r``, so interpolating them
at ``r`` yields their move *origins*, i.e. exactly the round-start
positions — and every move ends at ``r + 0.5``, inside the round.  The
:class:`Round3Scheduler` measures diameter and cohesion from the
interpolated end-of-round state before drawing the next subset, so a
converged run stops without consuming further RNG, exactly like the
historical loop.

The adapter binds one :class:`~repro.engine.metrics.MetricsCollector`:
the kernel takes its full t=0 and final samples into it, and the
scheduler one step sample per round boundary, whose diameter and broken
edges make the round history and the cohesion flag.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from ..engine.kernel import ContinuousKernel, Decision
from ..engine.metrics import MetricsCollector
from ..model.robot import KinematicArrays
from ..model.types import Activation, RoundBatch, SchedulerClass
from ..schedulers.base import Scheduler
from .kknps3 import KKNPS3Algorithm

#: The visibility filter tolerance of the round engine (the historical
#: constant of the 3D simulator; distinct from the geometric EPS used by
#: the cohesion predicate).
VIS_EPS = 1e-12


def random_rotation3(rng: np.random.Generator) -> np.ndarray:
    """A uniformly random (Haar) rotation via QR of a Gaussian matrix."""
    matrix, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(matrix) < 0:
        matrix[:, 0] = -matrix[:, 0]
    return matrix


def rotate_rows3(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Apply a 3x3 rotation to every row of an ``(m, 3)`` array.

    Written as explicit fused column expressions so the result is
    bit-identical to rotating each row with scalar arithmetic (BLAS
    matmul kernels do not guarantee a summation order).
    """
    x, y, z = rows[:, 0], rows[:, 1], rows[:, 2]
    out = np.empty_like(rows)
    out[:, 0] = matrix[0, 0] * x + matrix[0, 1] * y + matrix[0, 2] * z
    out[:, 1] = matrix[1, 0] * x + matrix[1, 1] * y + matrix[1, 2] * z
    out[:, 2] = matrix[2, 0] * x + matrix[2, 1] * y + matrix[2, 2] * z
    return out


def visible_relative3(
    observer: np.ndarray, pool, visibility_range: float
) -> np.ndarray:
    """Relative positions of the robots in ``pool`` visible from ``observer``.

    The 3D extension's one visibility filter, shared by the round adapter
    and the continuous-time 3D kernel so the two engines cannot diverge
    on who sees whom: distances within ``(VIS_EPS, V + VIS_EPS]`` (the
    lower bound drops the observer itself on a dense pool and any
    coincident robot on every pool), computed with the explicit component
    expressions the historical loop used.
    """
    pool = np.asarray(pool, dtype=float).reshape(-1, 3)
    delta = pool - observer
    return delta[visible_mask3(delta[:, 0], delta[:, 1], delta[:, 2], visibility_range)]


def visible_mask3(
    dx: np.ndarray, dy: np.ndarray, dz: np.ndarray, visibility_range: float
) -> np.ndarray:
    """The 3D Look filter over offsets ``(dx, dy, dz)``: ``(VIS_EPS, V + VIS_EPS]``.

    The verdict ignores the offsets' signs, so it also decides a pair of
    robots from either end (:class:`~repro.geometry.pairs.VisiblePairs`).
    """
    distances = np.sqrt(dx * dx + dy * dy + dz * dz)
    return (distances <= visibility_range + VIS_EPS) & (distances > VIS_EPS)


def rotate_back3(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Apply the inverse (transpose) of a rotation to one 3-vector."""
    x, y, z = float(vector[0]), float(vector[1]), float(vector[2])
    return np.array(
        [
            matrix[0, 0] * x + matrix[1, 0] * y + matrix[2, 0] * z,
            matrix[0, 1] * x + matrix[1, 1] * y + matrix[2, 1] * z,
            matrix[0, 2] * x + matrix[1, 2] * y + matrix[2, 2] * z,
        ],
        dtype=float,
    )


class RoundOutcome:
    """What one run of the round loop produced.

    ``metrics`` is the run's collector (None from a loop that measures
    without one): its t=0 sample, one step sample per round boundary and
    the final full sample.
    """

    __slots__ = (
        "final_positions",
        "diameter_history",
        "converged_round",
        "cohesion_maintained",
        "activations_executed",
        "metrics",
    )

    def __init__(
        self,
        final_positions: np.ndarray,
        diameter_history: List[float],
        converged_round: Optional[int],
        cohesion_maintained: bool,
        activations_executed: int,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        self.final_positions = final_positions
        self.diameter_history = diameter_history
        self.converged_round = converged_round
        self.cohesion_maintained = cohesion_maintained
        self.activations_executed = activations_executed
        self.metrics = metrics


class _RoundKernelConfig:
    """The duck-typed kernel configuration of one round-adapter run."""

    __slots__ = (
        "visibility_range", "xi", "rotate_frames", "spatial_index", "seed",
        "max_activations", "max_time", "convergence_epsilon",
        "stop_at_convergence", "record_every", "crashed_robots",
    )

    def __init__(self, *, visibility_range, xi, rotate_frames, spatial_index, max_rounds, n):
        self.visibility_range = visibility_range
        self.xi = xi
        self.rotate_frames = rotate_frames
        self.spatial_index = spatial_index
        self.seed = 0  # unused: the adapter injects the caller's generator
        # Bound generously: the scheduler exhausts after max_rounds rounds.
        self.max_activations = max_rounds * max(n, 1) + 1
        self.max_time = math.inf
        # Unsatisfiable on purpose: the scheduler owns the round engine's
        # convergence decision, taken at round boundaries, so the kernel's
        # own samples (t=0 and final) never flag a converged_time.
        self.convergence_epsilon = -1.0
        self.stop_at_convergence = False
        # Skip per-activation sampling: the scheduler samples each round.
        self.record_every = self.max_activations + 1
        self.crashed_robots = ()


class Round3Scheduler(Scheduler):
    """The round discipline as a continuous-time scheduler (the adapter's clock).

    Each :meth:`next_batch` call is one round boundary: it first measures
    the configuration the *previous* round produced (one step sample into
    ``metrics``, stamped when the round's moves ended, whose diameter
    enters the run's history and whose broken edges clear the cohesion
    flag, then the convergence check — exactly
    like the historical loop, and crucially *before* any further RNG
    draw), then draws the activated subset for the next round from the
    engine's own generator —
    ``rng.random(n) < p`` with the single-robot fallback — and issues one
    simultaneous batch at ``look_time = round``.  All activated robots
    therefore Look at the start-of-round positions (simultaneous
    activations see each other's move origins), and every move completes
    inside its round.
    """

    scheduler_class = SchedulerClass.SSYNC
    def __init__(
        self,
        *,
        activation_probability: float,
        max_rounds: int,
        convergence_epsilon: float,
        metrics: MetricsCollector,
        move_duration: float = 0.5,
    ) -> None:
        super().__init__()
        self.activation_probability = activation_probability
        self.max_rounds = max_rounds
        self.convergence_epsilon = convergence_epsilon
        self.metrics = metrics
        self.move_duration = move_duration
        self.rounds_issued = 0
        self.activations_issued = 0
        self.converged_round: Optional[int] = None

    def _after_reset(self) -> None:
        self.rounds_issued = 0
        self.activations_issued = 0
        self.converged_round = None

    def next_batch(self, view=None) -> Sequence[Activation]:
        n = self.n_robots
        if self.rounds_issued > 0:
            # End-of-round measurement: every move of the previous round has
            # completed by its round boundary, so the interpolation returns
            # exactly the committed end-of-round positions.  The sample is
            # stamped when those moves ended, the time the kernel's final
            # sample also takes, so sample times never decrease.
            now = float(self.rounds_issued)
            sample = self.metrics.observe(
                now - 1.0 + self.move_duration,
                view.positions_array(now),
                self.activations_issued,
            )
            diameter = sample.hull_diameter
            if diameter <= self.convergence_epsilon and self.converged_round is None:
                self.converged_round = self.rounds_issued
                return []
        if self.rounds_issued >= self.max_rounds:
            return []
        activated = np.flatnonzero(self._rng.random(n) < self.activation_probability)
        if not len(activated):
            activated = np.array([int(self._rng.integers(0, n))], dtype=np.intp)
        look_time = float(self.rounds_issued)
        self.rounds_issued += 1
        self.activations_issued += len(activated)
        return RoundBatch(activated, look_time, move_duration=self.move_duration)

    def describe(self) -> str:
        return f"round3(p={self.activation_probability})"


class _RoundKernel3(ContinuousKernel):
    """The round-mode Look/Compute hooks: historical RNG order, xi-draws.

    Per activated robot the historical loop drew a rotation (when frames
    are on) and then, after computing the destination, the realised
    fraction ``uniform(xi, 1)``; the hook below reproduces both draws in
    that order and applies the fraction directly (``observer +
    displacement * fraction``), bypassing the motion model — the round
    engine's xi-truncation *is* its motion model.
    """

    def _make_metrics(self) -> MetricsCollector:
        return self.scheduler.metrics

    def _pair_rule(self):
        """:func:`visible_relative3`'s filter at the visibility range, for pairs."""
        limit = self.config.visibility_range
        return limit + VIS_EPS, lambda dx, dy, dz: visible_mask3(dx, dy, dz, limit)

    def _decide_move(
        self,
        robot_id: int,
        look_time: float,
        other_positions,
        activation: Activation,
    ) -> Decision:
        cfg = self.config
        observer = self._arrays.position[robot_id]
        rotation = random_rotation3(self.rng) if cfg.rotate_frames else None
        relative = visible_relative3(observer, other_positions, cfg.visibility_range)
        if rotation is not None:
            relative = rotate_rows3(rotation, relative)
        destination_local = self.algorithm.compute_array(relative)
        if rotation is not None:
            displacement = rotate_back3(rotation, destination_local)
        else:
            displacement = destination_local
        fraction = float(self.rng.uniform(cfg.xi, 1.0))
        realized = observer + displacement * fraction
        return realized, realized, len(relative)


def run_rounds_array(
    positions: np.ndarray,
    algorithm: KKNPS3Algorithm,
    *,
    visibility_range: float,
    max_rounds: int,
    convergence_epsilon: float,
    activation_probability: float,
    xi: float,
    rng: np.random.Generator,
    rotate_frames: bool,
    spatial_index: Optional[bool] = None,
) -> RoundOutcome:
    """The round loop as a thin adapter over the continuous-time kernel.

    The round semantics live in :class:`Round3Scheduler` (simultaneous
    round batches, per-round measurement and stopping) and
    :class:`_RoundKernel3` (the historical Look filter and RNG draws);
    the activation pipeline itself — round consumption, the carried
    visible pairs, phase transitions — is the shared
    :class:`~repro.engine.kernel.ContinuousKernel`.  The cohesion
    baseline is the visibility edges of ``positions``, which the
    collector binds.  The outcome is bit-identical to the historical
    per-robot loop (pinned against its oracle by
    ``tests/spatial3d/test_engine3.py``).
    """
    positions = np.array(positions, dtype=float)
    n = len(positions)
    metrics = MetricsCollector(visibility_range=visibility_range)
    scheduler = Round3Scheduler(
        activation_probability=activation_probability,
        max_rounds=max_rounds,
        convergence_epsilon=convergence_epsilon,
        metrics=metrics,
    )
    config = _RoundKernelConfig(
        visibility_range=visibility_range,
        xi=xi,
        rotate_frames=rotate_frames,
        spatial_index=spatial_index,
        max_rounds=max_rounds,
        n=n,
    )
    kernel = _RoundKernel3(
        KinematicArrays.from_array(positions), algorithm, scheduler, config, rng=rng
    )
    outcome = kernel.run_kernel()

    return RoundOutcome(
        outcome.final_positions,
        metrics.diameters()[:-1],
        scheduler.converged_round,
        not metrics.cohesion_ever_violated,
        outcome.processed,
        metrics,
    )

