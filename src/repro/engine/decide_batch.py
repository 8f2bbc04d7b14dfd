"""The planar whole-round decide as one flat pipeline, for 1…k lanes.

A planar round is decided either robot by robot (the kernel's round
decider, through :meth:`repro.engine.simulator.Simulator._decide_move`,
the decide every k-async activation runs) or here, in one pass over a
flat activation axis:
:func:`decide_round_flat` gathers every activation's visible rows a
chunk at a time (from the round's
:class:`~repro.geometry.pairs.VisiblePairs`, which already applied the
Look's distance filter; or every row, filtered here, for a swarm below
:data:`~repro.engine.spatial_index.GRID_MIN_ROBOTS` or an unlimited
range), pre-draws the private frames per lane in activation
order, perceives, runs one KKNPS batch core and maps the destinations
back through the frames and the zero-deviation motion model.  It has
exactly two callers: a single run's round
(:meth:`repro.engine.simulator.Simulator._round_decide_batch`, one lane,
with the run's carried pairs) and a replicate bundle's group of lanes
(:func:`repro.engine.replicate._advance_group`), whose committed rows
stack into one ``(lanes * n, 2)`` array, each lane in its fixed slot,
with the pairs the group holds across rounds.  Every lane of a group
shares each configuration value the pipeline reads, so one ``config``
describes them all; only the RNG streams stay per lane.

Each stage is an elementwise transcription of the per-robot decide's
arithmetic (:func:`~repro.model.snapshot.build_snapshot`, then
:meth:`~repro.algorithms.kknps.KKNPSAlgorithm.compute`), so every
decision — and every RNG draw — is bit-identical to deciding the round
robot by robot.  That holds only for KKNPS under
draw-free perception and motion, which callers check with
``Simulator._batch_decide_eligible``, and for rounds without a
near-coincident pair, which they check with :func:`collapse_hazard_lanes`.

Everything except the frame pre-draw is pure numpy/math over the inputs.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Tuple

import numpy as np

from ..geometry.pairs import ROW_BUDGET, budget_chunks
from ..geometry.tolerances import EPS
from ..model.snapshot import visible_mask

#: A committed pair (within one lane) closer than this demotes the lane's
#: round to the per-robot path: above it, the per-robot decide's
#: ``_collapse_coincident_array(visible, 1e-12)`` is provably the
#: identity for every activation of the round (the relative-coordinate
#: pair distance can differ from the committed one only by subtraction
#: rounding, orders of magnitude below this margin).
COLLAPSE_GUARD_DIST = 4e-12

#: Least cell size of the quantized duplicate test implementing the guard.
#: Any pair with both coordinate gaps below half a cell (5e-12, above the
#: guard distance) shares a cell in at least one of the four offset
#: passes, so hazardous lanes are always caught; hash collisions between
#: distinct cells only ever add false positives (a needless — but still
#: bit-identical — serial round).
GUARD_CELL = 2.5 * COLLAPSE_GUARD_DIST


def perceive_flat(model, px: np.ndarray, py: np.ndarray):
    """Flat transcription of ``PerceptionModel.perceive_array`` (2D, no RNG).

    Every operation is an elementwise ufunc, so applying it to the
    concatenated rows of many activations yields exactly the per-activation
    results (including the near-zero restore that also covers the serial
    path's all-unmeasurable early return).
    """
    no_distance_error = model.distance_error == 0.0 or model.bias == "none"
    no_distortion = model.distortion is None or model.distortion.amplitude == 0.0
    if (no_distance_error and no_distortion) or len(px) == 0:
        return px, py
    r = np.hypot(px, py)
    measurable = r > EPS
    r_perceived = r.copy()
    if model.distance_error > 0.0 and model.bias != "none":
        if model.bias == "over":
            r_perceived[measurable] = r[measurable] * (1.0 + model.distance_error)
        elif model.bias == "under":
            r_perceived[measurable] = r[measurable] * (1.0 - model.distance_error)
    angle = np.arctan2(py, px)
    if model.distortion is not None:
        angle = model.distortion.apply_angle_array(angle)
    out_x = r_perceived * np.cos(angle)
    out_y = r_perceived * np.sin(angle)
    out_x[~measurable] = px[~measurable]
    out_y[~measurable] = py[~measurable]
    return out_x, out_y


def collapse_hazard_lanes(flat_xy: np.ndarray, lanes: int, n: int) -> np.ndarray:
    """Per-lane flag: may this round hold a pair within the collapse guard?

    Quantized-cell duplicate detection in O(lanes * n log n): four passes
    quantize the committed coordinates to cells with the grid shifted by
    half a cell per axis.  Two points both of whose coordinate gaps are
    below half a cell straddle at most one cell boundary per axis across
    the two shifts, so at least one of the four offset combinations lands
    them in the same cell — and equal cells hash to equal keys, so
    sorting each lane's keys and scanning adjacent equalities finds every
    hazardous pair.  Distinct cells may hash alike; that only demotes an
    extra lane to the (bit-identical) serial round.

    Each lane is quantized relative to its own lowest coordinates, in
    half cells ``h``: a power of two at least ``GUARD_CELL / 2`` and
    ``2^-48`` of the lane's extent ``E``.  The offsets are then exact in
    ``int64`` at any coordinate magnitude (at most ``2^48``), the
    division by ``h`` and the floor are exact, and the two shifts are
    ``k >> 1`` and ``(k + 1) >> 1`` of one half-cell index ``k``.  The
    one rounding, of ``x - min``, moves a gap by at most ``2^-52 E``, so
    a pair within the guard still has gaps below ``h``.  A larger cell
    only adds false positives.

    This replaces a ``neighbour_pairs`` distance scan, which degenerates
    to O(n^2) pairs per lane once the swarm contracts inside one grid
    cell; the quantized test stays linearithmic at any density.
    """
    hazard = np.zeros(lanes, dtype=bool)
    columns = [np.ascontiguousarray(flat_xy[:, axis]).reshape(lanes, n) for axis in (0, 1)]
    low = [column.min(axis=1, keepdims=True) for column in columns]
    extent = np.maximum(
        *(column.max(axis=1, keepdims=True) - least for column, least in zip(columns, low))
    )
    # The least power of two at or above the floor: v < ldexp(1, frexp(v)[1]) <= 2v.
    half = np.ldexp(1.0, np.frexp(np.maximum(GUARD_CELL / 2.0, extent * 2.0**-48))[1])
    kx, ky = (
        np.floor((column - least) / half).astype(np.int64)
        for column, least in zip(columns, low)
    )
    mix = np.int64(-7046029254386353131)  # odd 64-bit multiplier
    for ix in (kx >> 1, (kx + 1) >> 1):
        ix = ix * mix
        for iy in (ky >> 1, (ky + 1) >> 1):
            keys = np.sort(ix + iy, axis=1)
            np.logical_or(
                hazard, (keys[:, 1:] == keys[:, :-1]).any(axis=1), out=hazard
            )
    return hazard


#: ``core(px, py, starts, ends)``: the ``(acts, 2)`` local destinations of
#: flat perceived rows, activation ``a`` owning ``starts[a]:ends[a]``.
DecideCore = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]

_TWO_PI = 2.0 * math.pi
_UNIT_DOUBLE = 1.0 / 9007199254740992.0  # 2^-53: next_double's scale


def decide_round_flat(
    config,
    effective_range: float,
    core: DecideCore,
    committed: np.ndarray,
    pairs,
    observers: np.ndarray,
    progress: np.ndarray,
    lane_draws: Sequence[Tuple[np.random.Generator, int]],
):
    """One round's decides for 1…k lanes in a single flat pipeline.

    ``committed`` holds every lane's committed rows stacked, and
    ``pairs`` is the :class:`~repro.geometry.pairs.VisiblePairs` of it
    (None gathers every row and filters it; one lane only).  An
    observer's rows are its visible ids in ascending order, each row
    ``p_other - p_observer`` as the per-robot Look computes it, and
    ``neighbours_seen`` is their count.  ``observers`` are the
    executing robots' rows in ``committed``, lane by lane and in
    activation order within a lane, with their ``progress`` fractions;
    ``lane_draws`` pairs each lane's RNG (a PCG64 generator) with its
    activation count.  ``config`` supplies the values every lane shares
    (frames, reflection, perception, motion xi), ``effective_range`` the
    dense Look filter and ``core`` the KKNPS batch core.  Returns the
    ``(target, realized, neighbours_seen)`` row arrays.  The frames are
    drawn first; the row stages then run over consecutive chunks of at
    most :data:`ROW_BUDGET` gathered rows, which changes no output.
    """
    acts = len(observers)
    n = len(committed)
    flat_x = np.ascontiguousarray(committed[:, 0])
    flat_y = np.ascontiguousarray(committed[:, 1])
    if pairs is not None:
        chunks = pairs.chunks(observers, ROW_BUDGET)
    else:
        # Every row, the observer's too: the filter drops it at distance zero.
        every = np.full(acts, n, np.int64)
        chunks = (
            (lo, hi, np.tile(np.arange(n), hi - lo), every[lo:hi])
            for lo, hi in budget_chunks(every, ROW_BUDGET)
        )

    # Private frames, drawn per lane in activation order (the per-robot
    # decider draws the frame before its empty-candidate check, so every
    # executed activation draws, visible neighbours or not).
    framed = config.use_random_frames
    if framed:
        cos_neg, sin_neg, cos_pos, sin_pos, reflections = _draw_frames(
            lane_draws, config.allow_reflection
        )
    destinations = np.empty((acts, 2), dtype=np.float64)
    vis_counts = np.empty(acts, dtype=np.int64)
    for lo, hi, others, counts in chunks:
        owners = observers[lo:hi]
        # Column-wise mirror of the per-robot ``arr - observer`` — elementwise
        # identical, half the gather traffic.
        rel_x = flat_x[others] - np.repeat(flat_x[owners], counts)
        rel_y = flat_y[others] - np.repeat(flat_y[owners], counts)
        vis_segment = np.concatenate(([0], np.cumsum(counts)))
        if pairs is None:
            keep = visible_mask(rel_x, rel_y, effective_range)
            vis_segment = np.concatenate(([0], np.cumsum(keep)))[vis_segment]
            rel_x = rel_x[keep]
            rel_y = rel_y[keep]
        seen = np.diff(vis_segment)
        local_x = rel_x
        local_y = rel_y
        if framed:
            row_cos = np.repeat(cos_neg[lo:hi], seen)
            row_sin = np.repeat(sin_neg[lo:hi], seen)
            local_x, local_y = (
                row_cos * local_x - row_sin * local_y,
                row_sin * local_x + row_cos * local_y,
            )
            local_y = np.where(np.repeat(reflections[lo:hi], seen), -local_y, local_y)
        perceived_x, perceived_y = perceive_flat(config.perception, local_x, local_y)
        destinations[lo:hi] = core(
            perceived_x, perceived_y, vis_segment[:-1], vis_segment[1:]
        )
        vis_counts[lo:hi] = seen

    # Frame-back and motion, elementwise in the scalar operation order.
    ldx = np.ascontiguousarray(destinations[:, 0])
    ldy = np.ascontiguousarray(destinations[:, 1])
    if framed:
        ldy = np.where(reflections, -ldy, ldy)
        # LocalFrame.to_global at unit scale / zero origin, term-for-term
        # (the 0.0 additions normalise -0.0 exactly as Point.rotated does).
        global_dx = (0.0 + cos_pos * ldx - sin_pos * ldy) + 0.0
        global_dy = (0.0 + sin_pos * ldx + cos_pos * ldy) + 0.0
    else:
        global_dx, global_dy = ldx, ldy
    origin_x = flat_x[observers]
    origin_y = flat_y[observers]
    target_x = origin_x + global_dx
    target_y = origin_y + global_dy
    planned = np.fromiter(
        map(
            math.hypot,
            (origin_x - target_x).tolist(),
            (origin_y - target_y).tolist(),
        ),
        dtype=np.float64,
        count=acts,
    )
    # MotionModel.realize with zero deviation, term-for-term.
    fraction = np.minimum(1.0, np.maximum(config.motion.xi, progress))
    short = planned <= EPS
    realized_x = np.where(short, origin_x, origin_x + (target_x - origin_x) * fraction)
    realized_y = np.where(short, origin_y, origin_y + (target_y - origin_y) * fraction)
    return (
        np.column_stack((target_x, target_y)),
        np.column_stack((realized_x, realized_y)),
        vis_counts,
    )


def _draw_frames(
    lane_draws: Sequence[Tuple[np.random.Generator, int]], allow_reflection: bool
):
    """Every activation's private frame, drawn as ``random_frame`` would.

    Returns the rotation's ``cos``/``sin`` at ``-rotation`` (to local) and
    ``+rotation`` (back to global), via ``math`` exactly as the per-robot
    frame computes them, and the reflection flags (:func:`_replay_lane`).
    """
    drawn = [_replay_lane(rng.bit_generator, count, allow_reflection) for rng, count in lane_draws]
    rotation = np.concatenate([angles for angles, _ in drawn]).tolist()
    negated = [-angle for angle in rotation]
    acts = len(rotation)
    return (
        np.fromiter(map(math.cos, negated), dtype=np.float64, count=acts),
        np.fromiter(map(math.sin, negated), dtype=np.float64, count=acts),
        np.fromiter(map(math.cos, rotation), dtype=np.float64, count=acts),
        np.fromiter(map(math.sin, rotation), dtype=np.float64, count=acts),
        np.concatenate([flags for _, flags in drawn]),
    )


def _replay_lane(bit_generator, count: int, allow_reflection: bool):
    """``count`` frames' rotations and reflections, read from the raw stream.

    Per activation ``random_frame`` draws ``uniform(0, 2π)`` — one raw
    word ``w``: ``0.0 + 2π · ((w >> 11) · 2^-53)`` — and, with reflection,
    ``integers(0, 2)``: bit 31 of a 32-bit half.  A fresh word serves its
    low half and buffers its high half (``has_uint32``/``uinteger``) for
    the next 32-bit draw, across any doubles, even from a previous round;
    the final buffer is written back, leaving the scalar loop's state.
    """
    if not allow_reflection or count == 0:
        raw = bit_generator.random_raw(count)
        return _TWO_PI * ((raw >> np.uint64(11)) * _UNIT_DOUBLE), np.zeros(count, bool)
    state = bit_generator.state
    buffered = int(state["has_uint32"])
    paired = count - buffered  # reflections not served by the buffered half
    fresh = (paired + 1) // 2  # a fresh word serves two of them
    raw = bit_generator.random_raw(count + fresh)
    k = np.arange(count, dtype=np.int64) - buffered
    # A double follows the earlier doubles and the fresh words drawn for
    # earlier reflections; an even k draws a fresh word right after it.
    position = k + buffered + (np.maximum(k, 0) + 1) // 2
    words = raw[position[(k >= 0) & (k % 2 == 0)] + 1]
    reflected = np.empty(count, dtype=bool)
    reflected[:buffered] = state["uinteger"] >> 31
    # Bit 31 of each word's low half, then of its high half.
    halves = np.column_stack(((words >> np.uint64(31)) & np.uint64(1), words >> np.uint64(63)))
    reflected[buffered:] = halves.ravel()[:paired]
    state = bit_generator.state  # re-read: random_raw advanced the generator
    state["has_uint32"] = paired % 2
    if fresh:
        state["uinteger"] = int(words[-1] >> np.uint64(32))
    bit_generator.state = state
    return _TWO_PI * ((raw[position] >> np.uint64(11)) * _UNIT_DOUBLE), reflected
