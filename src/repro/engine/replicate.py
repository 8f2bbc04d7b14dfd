"""Replicate-batched execution: many seed-replicates through one round pass.

A sweep grid whose points differ only by seed re-pays the full per-round
Python overhead once per seed.  This module advances a whole bundle of
such runs ("lanes") together: every global iteration validates one round
per lane, stacks the committed positions into one ``(runs, n, 2)``
tensor, bins it with :meth:`ShardedGridIndex.from_replicates`, and pushes
*all* lanes' activations through one vectorized Look pipeline (candidate
gather, relative offsets, distance filter, private frames, perception)
followed by one scalar KKNPS core pass
(:func:`repro.engine.fanout.kknps_destination_segment`) — optionally
fanned across a shared-memory process pool at mega scale.

Bit-identity contract: every lane owns its own RNG, scheduler, metrics
collector and kinematic arrays, and consumes its RNG stream in exactly
the serial order (frames are pre-drawn per lane in activation order; the
vectorized tiers are restricted to draw-free perception and deviation-free
motion).  Each numpy stage is an elementwise transcription of the serial
fast tier (:meth:`Simulator._round_decider`), so every row a lane
produces is bit-identical to running that lane alone — the sweep store
and aggregator cannot tell the difference.  Anything the vector tier
cannot replicate exactly (other algorithms, random distance error,
deviating motion, trajectory recording, a coincidence-collapse hazard)
drops per-round to the lane's own serial ``_process_round``; a lane whose
scheduler does not issue :class:`~repro.model.types.RoundBatch` rounds
(or whose round finds a robot mid-move) is re-run serially from scratch.

Per-replicate convergence masking falls out of the lane structure: a lane
that converges (or exhausts its activation budget) is finalized and drops
out of the tensor while the stragglers continue.
"""

from __future__ import annotations

import math
import time as _time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.kknps import KKNPSAlgorithm
from ..geometry.hull import ConvexHull
from ..geometry.point import points_to_array
from ..geometry.sec import smallest_enclosing_circle
from ..geometry.tolerances import EPS
from ..model.types import RoundBatch
from .decide_batch import (
    COLLAPSE_GUARD_DIST as _COLLAPSE_GUARD_DIST,
    GUARD_CELL as _GUARD_CELL,
    collapse_hazard_lanes as _collapse_hazard_lanes,
    perceive_flat as _perceive_flat,
)
from .fanout import (
    REPLICATE_FANOUT_MIN_ROBOTS,
    FanoutPool,
    kknps_destinations_all,
)
from .kernel import replay_round
from .logs import RecordLog
from .metrics import MetricsCollector, MetricsSample, min_pairwise_distance_grid
from .simulator import SimulationConfig, SimulationResult, Simulator
from .spatial_index import ShardedGridIndex

#: Grid-cell hint for the next min-pairwise search, as a multiple of the
#: last observed minimum.  The search is exact at any positive cell and
#: doubles until it verifies, so this only trades pair count (quadratic in
#: the cell) against the odds of a retry when the minimum grows between
#: observes.
_HINT_MARGIN = 1.25

#: One bundle member: a zero-argument factory producing the pristine
#: ``(initial_positions, algorithm, scheduler, config)`` of that run.  A
#: factory may be called more than once (the serial-fallback path rebuilds
#: from scratch), so it must return fresh scheduler/algorithm objects.
LaneFactory = Callable[
    [], Tuple[Sequence, object, object, Optional[SimulationConfig]]
]


class _Lane:
    """One bundle member mid-flight: a full serial simulator plus loop state."""

    __slots__ = (
        "index",
        "sim",
        "metrics",
        "recorder",
        "records",
        "aet",
        "processed",
        "popped",
        "converged_time",
        "status",
        "vector_ok",
        "fast_observe",
        "pair_hint",
        "effective",
        "limit",
        "started",
        "result",
    )

    def __init__(self, index: int, sim: Simulator) -> None:
        self.index = index
        self.sim = sim
        self.records = RecordLog()
        self.aet: Dict[int, List[float]] = {i: [] for i in range(sim.n_robots)}
        self.processed = 0
        self.popped = 0
        self.converged_time: Optional[float] = None
        self.status = "active"
        self.pair_hint: Optional[float] = None
        self.result: Optional[SimulationResult] = None


def replicate_vector_eligible(sim: Simulator) -> bool:
    """Whether this run's *configuration* admits the vectorized round tier.

    The vector tier mirrors the serial fast tier float-for-float, which
    is only possible when the round draws no RNG outside the private
    frames and the algorithm core is the KKNPS scalar transcription.
    Ineligible lanes still batch at the round level — they advance through
    their own serial ``_process_round`` — so this gates the inner tier,
    not bundling itself.
    """
    cfg = sim.config
    if cfg.engine_mode != "array" or cfg.multiplicity_detection:
        return False
    if type(sim.algorithm) is not KKNPSAlgorithm:
        return False
    effective = sim._effective_range()
    if not (math.isfinite(effective) and effective > 0.0):
        return False
    perception = cfg.perception
    if perception.distance_error > 0.0 and perception.bias == "random":
        return False
    if cfg.motion.max_deviation(1.0) > 0.0:
        return False
    return True


def _prepare_lane(
    index: int, sim: Simulator, setup_cache: Optional[dict] = None
) -> _Lane:
    """Run the kernel preamble for one lane (mirrors ``run_kernel`` setup).

    Replicates of a seed-independent workload start from byte-identical
    positions, and both expensive preamble steps — ``bind_initial`` (the
    initial visibility edges) and the initial ``metrics.observe`` — are
    deterministic, RNG-free functions of those positions.  When
    ``setup_cache`` is given, their products are therefore computed once
    per distinct initial configuration and replayed into every further
    lane: the edge set is copied, the (read-only) edge index arrays and
    the frozen initial sample are shared.  The lane's RNG stream is
    untouched either way, so the replay is bit-invisible.
    """
    lane = _Lane(index, sim)
    lane.started = _time.perf_counter()
    lane.metrics = sim._make_metrics()
    template = None
    key = None
    if (
        setup_cache is not None
        and type(lane.metrics) is MetricsCollector
        and sim.config.engine_mode == "array"
    ):
        key = (
            sim.n_robots,
            sim.config.visibility_range,
            sim._state.arrays.position.tobytes(),
        )
        template = setup_cache.get(key)
    if template is None:
        sim._bind_metrics(lane.metrics)
    else:
        edges, edge_i, edge_j, _ = template
        lane.metrics.initial_edges = set(edges)
        lane.metrics._edge_i = edge_i
        lane.metrics._edge_j = edge_j
    lane.recorder = sim._make_recorder()
    if lane.recorder is not None:
        lane.recorder.record_all(0.0, sim._sampled_positions(0.0, None))
    sim.scheduler.reset(sim.n_robots, sim.rng)
    if template is None:
        sample = lane.metrics.observe(0.0, sim._sampled_positions(0.0, None), 0)
        if key is not None:
            setup_cache[key] = (
                lane.metrics.initial_edges,
                lane.metrics._edge_i,
                lane.metrics._edge_j,
                sample,
            )
    else:
        sample = template[3]
        lane.metrics.samples.append(sample)
        if sample.broken_edge_count:
            lane.metrics.cohesion_ever_violated = True
    if sample.min_pairwise_distance > 0.0:
        # Seed the observe cell hint from the initial sample so even the
        # first fast observe scans a tight grid instead of a
        # visibility-sized one.
        lane.pair_hint = _HINT_MARGIN * sample.min_pairwise_distance
    lane.effective = sim._effective_range()
    lane.limit = lane.effective + EPS
    lane.vector_ok = (
        replicate_vector_eligible(sim)
        and lane.recorder is None
        and getattr(lane.metrics, "supports_replicated_samples", False)
    )
    lane.fast_observe = lane.vector_ok and type(lane.metrics) is MetricsCollector
    return lane


def _min_pairwise_group(
    arrs: List[np.ndarray], cells: List[float]
) -> List[float]:
    """Exact per-lane minimum separations from one shared replicate grid.

    Any positive cell yields the exact minimum (the grid covers every pair
    at distance at most the cell, the true argmin pair is therefore always
    emitted once the per-lane verification ``best <= cell`` passes, and
    extra emitted pairs can only be farther), so all lanes can share one
    ``from_replicates`` binning at the largest requested cell instead of
    building one grid each.  Per-pair arithmetic matches
    :func:`min_pairwise_distance_grid` term for term; lanes whose
    verification fails at the shared cell fall back to the per-lane
    doubling search, which returns the same exact value.

    Byte-identical position arrays (seed-independent workloads before the
    lanes' RNG streams diverge) are deduplicated first: the result is a
    pure function of the array and the shared cell, so one representative
    per distinct array is computed and replayed.
    """
    unique: Dict[bytes, int] = {}
    member_of: List[int] = []
    rep_arrs: List[np.ndarray] = []
    for arr in arrs:
        key = arr.tobytes()
        rep = unique.get(key)
        if rep is None:
            rep = len(rep_arrs)
            unique[key] = rep
            rep_arrs.append(arr)
        member_of.append(rep)
    if len(rep_arrs) < len(arrs):
        minima = _min_pairwise_group(rep_arrs, [max(cells)] * len(rep_arrs))
        return [minima[rep] for rep in member_of]
    lanes = len(arrs)
    n = len(arrs[0])
    tensor = np.stack(arrs)
    cell = max(cells)
    flat = tensor.reshape(lanes * n, 2)
    extent = float(np.max(flat.max(axis=0) - flat.min(axis=0)))
    floor_cell = extent * 1e-6
    if floor_cell > 0.0 and cell < floor_cell:
        # Keep the grid's integer cell keys far from overflow even if a
        # past round reported a pathologically small separation.
        cell = floor_cell
    if not math.isfinite(cell) or cell <= 0.0:
        cell = 1.0
    shard = ShardedGridIndex.from_replicates(tensor, cell)
    i, j = shard.neighbour_pairs()
    out: List[Optional[float]] = [None] * lanes
    if len(i):
        x = np.ascontiguousarray(flat[:, 0])
        y = np.ascontiguousarray(flat[:, 1])
        dx = x[i] - x[j]
        squared = dx * dx
        dy = y[i] - y[j]
        squared = squared + dy * dy
        lane_of = i // n
        order = np.argsort(lane_of, kind="stable")
        lane_sorted = lane_of[order]
        starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(lane_sorted)) + 1)
        )
        minima = np.minimum.reduceat(squared[order], starts)
        for lane_index, least in zip(lane_sorted[starts].tolist(), minima.tolist()):
            best = math.sqrt(least)
            if best <= cell:
                out[lane_index] = best
    for k in range(lanes):
        if out[k] is None:
            out[k] = min_pairwise_distance_grid(arrs[k], cell * 2.0)
    return out


def _observe_fast(
    lane: _Lane,
    time: float,
    arr: np.ndarray,
    processed: int,
    min_pairwise: Optional[float] = None,
    geometry_cache: Optional[dict] = None,
):
    """``MetricsCollector.observe``, bit-identically, without the dense matrix.

    Applies the collector's own sparse recipe (documented bit-identical to
    the dense path) below the ``METRICS_DENSE_MAX`` switchover: the hull
    diameter is attained between hull vertices and uses the dense path's
    per-pair arithmetic on them, and the minimum separation comes from
    :func:`min_pairwise_distance_grid` — exact at any positive initial
    cell, so the previous round's minimum (doubled) serves as a hint that
    keeps the grid-local pair count linear even in contracted swarms
    (where a visibility-sized cell would degenerate to all ~n^2/2 pairs).
    A caller that already holds the lane's exact minimum (the batched
    per-round group pass) hands it in via ``min_pairwise``.

    Every geometric field of the sample is a pure function of the
    position bytes and the collector's initial edge arrays; when sibling
    lanes still agree byte-for-byte (seed-independent workloads before
    their RNG streams diverge), a caller-scoped ``geometry_cache`` lets
    the first lane's observation serve the rest verbatim — only ``time``
    and ``activations_processed`` stay per-lane.
    """
    metrics = lane.metrics
    n = len(arr)
    if n < 2:
        return metrics.observe(time, arr, processed)
    key = None
    if geometry_cache is not None:
        key = (arr.tobytes(), id(metrics._edge_i))
        cached = geometry_cache.get(key)
        if cached is not None:
            diameter, perimeter, radius, cached_min, broken_count = cached
            if min_pairwise is None:
                min_pairwise = cached_min
            lane.pair_hint = (
                _HINT_MARGIN * min_pairwise if min_pairwise > 0.0 else None
            )
            if broken_count:
                metrics.cohesion_ever_violated = True
            sample = MetricsSample(
                time=time,
                hull_diameter=diameter,
                hull_perimeter=perimeter,
                hull_radius=radius,
                min_pairwise_distance=min_pairwise,
                initial_edges_preserved=not broken_count,
                broken_edge_count=broken_count,
                activations_processed=processed,
            )
            metrics.samples.append(sample)
            return sample
    hull = ConvexHull.of_array(arr)
    hull_arr = points_to_array(hull.vertices)
    hx = hull_arr[:, 0, None] - hull_arr[None, :, 0]
    hy = hull_arr[:, 1, None] - hull_arr[None, :, 1]
    diameter = float(math.sqrt((hx * hx + hy * hy).max()))
    if min_pairwise is None:
        cell = lane.pair_hint
        if cell is None or not math.isfinite(cell) or cell <= 0.0:
            cell = metrics.visibility_range
        floor_cell = diameter * 1e-6
        if floor_cell > 0.0 and cell < floor_cell:
            # Keep the grid's integer cell keys far from overflow even if
            # a past round reported a pathologically small separation.
            cell = floor_cell
        min_pairwise = min_pairwise_distance_grid(arr, cell)
    lane.pair_hint = _HINT_MARGIN * min_pairwise if min_pairwise > 0.0 else None
    broken_count = metrics._broken_edge_count(arr)
    if broken_count:
        metrics.cohesion_ever_violated = True
    perimeter = hull.perimeter()
    radius = smallest_enclosing_circle(hull.vertices).radius
    if key is not None:
        geometry_cache[key] = (
            diameter, perimeter, radius, min_pairwise, broken_count
        )
    sample = MetricsSample(
        time=time,
        hull_diameter=diameter,
        hull_perimeter=perimeter,
        hull_radius=radius,
        min_pairwise_distance=min_pairwise,
        initial_edges_preserved=not broken_count,
        broken_edge_count=broken_count,
        activations_processed=processed,
    )
    metrics.samples.append(sample)
    return sample


def _observe_cell(lane: _Lane) -> float:
    """The grid cell the lane's next fast observe would start from."""
    cell = lane.pair_hint
    if cell is None or not math.isfinite(cell) or cell <= 0.0:
        cell = lane.metrics.visibility_range
    return cell


def _finish_group(lanes: List[_Lane]) -> None:
    """Finish several lanes at once, batching their final observes.

    Lanes of equal swarm size share one :func:`_min_pairwise_group` pass
    over their settled final positions; everything else of the epilogue
    stays per lane.
    """
    by_n: Dict[int, List[_Lane]] = {}
    for lane in lanes:
        if lane.fast_observe and lane.sim.n_robots >= 2:
            by_n.setdefault(lane.sim.n_robots, []).append(lane)
    minima: Dict[int, float] = {}
    for group in by_n.values():
        if len(group) < 2:
            continue
        for lane in group:
            # Idempotent: ``_finish`` settles again and finds no movers.
            lane.sim._settle_moves()
        found = _min_pairwise_group(
            [lane.sim._state.arrays.position for lane in group],
            [_observe_cell(lane) for lane in group],
        )
        for lane, least in zip(group, found):
            minima[id(lane)] = least
    observe_cache: dict = {}
    for lane in lanes:
        _finish(lane, minima.get(id(lane)), observe_cache)


def _finish(
    lane: _Lane,
    min_pairwise: Optional[float] = None,
    observe_cache: Optional[dict] = None,
) -> None:
    """Lane epilogue: mirror of ``run_kernel``'s tail plus ``Simulator.run``."""
    sim = lane.sim
    cfg = sim.config
    final_time = sim._settle_moves()
    final_positions = sim._state.committed_positions()
    if lane.fast_observe:
        final_sample = _observe_fast(
            lane,
            final_time,
            final_positions,
            lane.processed,
            min_pairwise,
            observe_cache,
        )
    else:
        final_sample = lane.metrics.observe(
            final_time, final_positions, lane.processed
        )
    if lane.recorder is not None:
        lane.recorder.record_all(final_time, final_positions)
    if (
        lane.converged_time is None
        and final_sample.hull_diameter <= cfg.convergence_epsilon
    ):
        lane.converged_time = final_time
    lane.result = SimulationResult(
        initial_positions=sim._initial_position_rows,
        final_positions=final_positions.copy(),
        visibility_range=cfg.visibility_range,
        metrics=lane.metrics,
        activations_processed=lane.processed,
        activation_counts=sim.activation_counts(),
        activation_end_times=lane.aet,
        records=lane.records,
        converged=lane.converged_time is not None,
        convergence_time=lane.converged_time,
        cohesion_maintained=not lane.metrics.cohesion_ever_violated,
        final_time=final_time,
        wall_time_seconds=_time.perf_counter() - lane.started,
        trajectories=lane.recorder,
    )
    lane.status = "done"


def _advance_scalar_round(lane: _Lane, batch: RoundBatch) -> None:
    """Advance one lane's round through its own serial code."""
    sim = lane.sim
    processed, popped, converged_time, stop = sim._process_round(
        batch,
        lane.metrics,
        lane.recorder,
        lane.records,
        lane.aet,
        lane.processed,
        lane.popped,
        lane.converged_time,
    )
    lane.processed = processed
    lane.popped = popped
    lane.converged_time = converged_time
    if stop:
        _finish(lane)


def _walk_round(
    lane: _Lane,
    batch: RoundBatch,
    min_pairwise: Optional[float] = None,
    observe_cache: Optional[dict] = None,
) -> Tuple[RoundBatch, bool]:
    """Replay the round's counters without deciding anything yet.

    Determines which activations execute (crash skips, activation caps),
    where the record boundaries fall, and — because every boundary of a
    round observes the same committed geometry — handles the round's
    metrics samples and convergence checks up front.  The metrics
    ``observe`` draws no RNG, so hoisting it before the frame draws leaves
    the lane's stream untouched.
    """
    sim = lane.sim
    cfg = sim.config
    arrays = sim._state.arrays
    executed, first, boundaries, processed, popped = replay_round(
        batch, arrays.crashed, lane.processed, lane.popped,
        cfg.max_activations, cfg.record_every,
    )
    stop = False
    if first is not None:
        look_time = batch.look_time
        if lane.fast_observe:
            sample = _observe_fast(
                lane, look_time, arrays.position, first[1], min_pairwise, observe_cache
            )
        else:
            sample = lane.metrics.observe(look_time, arrays.position, first[1])
        if (
            lane.converged_time is None
            and sample.hull_diameter <= cfg.convergence_epsilon
        ):
            lane.converged_time = look_time
            if cfg.stop_at_convergence:
                stop = True
                n_executed, processed, popped = first
                executed = executed.take(slice(0, n_executed))
                boundaries = 1
        lane.metrics.samples.repeat_last(boundaries - 1, cfg.record_every)
    lane.processed = processed
    lane.popped = popped
    return executed, stop


def _perception_key(model) -> tuple:
    distortion = model.distortion
    return (
        model.distance_error,
        model.bias,
        None
        if distortion is None
        else (distortion.amplitude, distortion.frequency, distortion.phase),
    )


def _advance_vector_group(
    members: List[Tuple[_Lane, RoundBatch, int]],
    grid: ShardedGridIndex,
    flat_xy: np.ndarray,
    n: int,
    pool: Optional[FanoutPool],
    fanout_min: int,
) -> None:
    """One vectorized round over every lane of one ``(n, range)`` group."""
    # Group observe pre-pass: lanes whose walk will certainly hit a record
    # boundary this round (the fast-walk arithmetic, re-derived here) share
    # one grid over the committed tensor for their min-pairwise distances.
    # The shared pass yields the exact same float as each lane's own grid
    # search (see ``_min_pairwise_group``), so this is purely a batching.
    group_mins: Dict[int, float] = {}
    if n >= 2:
        observing: List[int] = []
        for member_index, (lane, batch, _) in enumerate(members):
            if not lane.fast_observe:
                continue
            cfg = lane.sim.config
            if lane.sim._state.arrays.crashed.any():
                # Crash skips make the executed count data-dependent;
                # leave the lane on its per-lane observe path.
                continue
            # Without crashes the walk executes exactly this many entries
            # (cap truncation included), so the first record boundary is
            # predictable: the lane observes iff one falls inside.
            executing = min(
                len(batch),
                cfg.max_activations - lane.processed,
                100 * cfg.max_activations - lane.popped,
            )
            if executing <= 0:
                continue
            record_every = cfg.record_every
            if (lane.processed // record_every + 1) * record_every > (
                lane.processed + executing
            ):
                continue
            observing.append(member_index)
        if len(observing) >= 2:
            found = _min_pairwise_group(
                [members[k][0].sim._state.arrays.position for k in observing],
                [_observe_cell(members[k][0]) for k in observing],
            )
            group_mins = dict(zip(observing, found))
    walked: List[Tuple[_Lane, RoundBatch, bool, int]] = []
    # Sibling lanes with byte-identical committed positions (common until
    # round-1 RNG frames diverge seed-varied replicates) share one round of
    # observe geometry through this per-round cache.
    observe_cache: dict = {}
    for member_index, (lane, batch, slot) in enumerate(members):
        executed, stop = _walk_round(
            lane, batch, group_mins.get(member_index), observe_cache
        )
        walked.append((lane, executed, stop, slot))
    total_activations = sum(len(w[1]) for w in walked)
    if total_activations == 0:
        finishing = [lane for lane, _, stop, _ in walked if stop]
        if finishing:
            _finish_group(finishing)
        return

    # -- flat Look pipeline (mirrors the serial fast tier, batched) -------------
    acts = total_activations
    lane_of = np.empty(acts, dtype=np.int64)
    fids = np.empty(acts, dtype=np.intp)
    write = 0
    for lane_index, (lane, executed, _, slot) in enumerate(walked):
        count = len(executed)
        if not count:
            continue
        lane_of[write : write + count] = lane_index
        fids[write : write + count] = executed.robot_ids + slot * n
        write += count
    grid.warm_candidates()
    slot_list = grid._slot_of_robot[fids].tolist()
    cache = grid._candidate_cache
    candidate_arrays = [cache[slot] for slot in slot_list]
    counts = np.fromiter(
        (c.size for c in candidate_arrays), dtype=np.int64, count=acts
    )
    segment = np.zeros(acts + 1, dtype=np.int64)
    np.cumsum(counts, out=segment[1:])
    candidate_ids = (
        np.concatenate(candidate_arrays)
        if candidate_arrays
        else np.empty(0, dtype=np.intp)
    )
    flat_x = np.ascontiguousarray(flat_xy[:, 0])
    flat_y = np.ascontiguousarray(flat_xy[:, 1])
    # Column-wise mirror of ``rows - np.repeat(observers, counts, axis=0)``
    # on the serial tier — elementwise identical, half the gather traffic.
    rel_x = flat_x[candidate_ids] - np.repeat(flat_x[fids], counts)
    rel_y = flat_y[candidate_ids] - np.repeat(flat_y[fids], counts)
    distance = np.hypot(rel_x, rel_y)
    lane_limits = np.fromiter(
        (lane.limit for lane, _, _, _ in walked),
        dtype=np.float64,
        count=len(walked),
    )
    keep = (distance > 1e-12) & (
        distance <= np.repeat(lane_limits[lane_of], counts)
    )
    keep_cumulative = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(keep, out=keep_cumulative[1:])
    vis_counts = keep_cumulative[segment[1:]] - keep_cumulative[segment[:-1]]
    vis_segment = np.zeros(acts + 1, dtype=np.int64)
    np.cumsum(vis_counts, out=vis_segment[1:])
    vx = rel_x[keep]
    vy = rel_y[keep]

    # -- private frames: pre-draw per lane in activation order ------------------
    rotations = np.zeros(acts, dtype=np.float64)
    reflections = np.zeros(acts, dtype=bool)
    framed = np.zeros(acts, dtype=bool)
    cos_neg = np.ones(acts, dtype=np.float64)
    sin_neg = np.zeros(acts, dtype=np.float64)
    cos_pos = np.ones(acts, dtype=np.float64)
    sin_pos = np.zeros(acts, dtype=np.float64)
    write = 0
    for lane, executed, _, _ in walked:
        cfg = lane.sim.config
        if not cfg.use_random_frames:
            write += len(executed)
            continue
        rng = lane.sim.rng
        allow_reflection = cfg.allow_reflection
        for _ in range(len(executed)):
            rotation = float(rng.uniform(0.0, 2.0 * math.pi))
            reflected = bool(rng.integers(0, 2)) if allow_reflection else False
            rotations[write] = rotation
            reflections[write] = reflected
            framed[write] = True
            cos_neg[write] = math.cos(-rotation)
            sin_neg[write] = math.sin(-rotation)
            cos_pos[write] = math.cos(rotation)
            sin_pos[write] = math.sin(rotation)
            write += 1
    if framed.any():
        row_cos = np.repeat(cos_neg, vis_counts)
        row_sin = np.repeat(sin_neg, vis_counts)
        local_x = row_cos * vx - row_sin * vy
        local_y = row_sin * vx + row_cos * vy
        row_reflected = np.repeat(reflections, vis_counts)
        local_y = np.where(row_reflected, -local_y, local_y)
        if not framed.all():
            row_framed = np.repeat(framed, vis_counts)
            local_x = np.where(row_framed, local_x, vx)
            local_y = np.where(row_framed, local_y, vy)
    else:
        local_x, local_y = vx, vy

    # -- perception (draw-free by eligibility) ----------------------------------
    programs: Dict[tuple, Tuple[List[int], object]] = {}
    for lane_index, (lane, _, _, _) in enumerate(walked):
        model = lane.sim.config.perception
        key = _perception_key(model)
        programs.setdefault(key, ([], model))[0].append(lane_index)
    if len(programs) == 1:
        ((_, model),) = programs.values()
        perceived_x, perceived_y = _perceive_flat(model, local_x, local_y)
    else:
        perceived_x = np.array(local_x, dtype=np.float64, copy=True)
        perceived_y = np.array(local_y, dtype=np.float64, copy=True)
        row_lane = np.repeat(lane_of, vis_counts)
        for lane_indices, model in programs.values():
            mask = np.isin(row_lane, np.asarray(lane_indices, dtype=np.int64))
            px, py = _perceive_flat(model, local_x[mask], local_y[mask])
            perceived_x[mask] = px
            perceived_y[mask] = py

    # -- the KKNPS scalar core (inline or fanned across the pool) ---------------
    lane_consts = [lane.sim.algorithm.decide_consts() for lane, _, _, _ in walked]
    if pool is not None and len(walked) * n >= fanout_min and acts > 1:
        destinations = pool.compute(
            perceived_x,
            perceived_y,
            vis_segment[:-1],
            vis_segment[1:],
            lane_of,
            lane_consts,
        )
    elif len(walked) == 1:
        # One lane: the whole round is one algorithm's batch — route
        # through its own entry point (identical arithmetic; lane_of is
        # all zeros here, so the lane-consts gather is a constant).
        destinations = walked[0][0].sim.algorithm.compute_array_rounds(
            perceived_x, perceived_y, vis_segment[:-1], vis_segment[1:]
        )
    else:
        destinations = np.zeros((acts, 2), dtype=np.float64)
        kknps_destinations_all(
            perceived_x,
            perceived_y,
            vis_segment[:-1],
            vis_segment[1:],
            lane_of,
            lane_consts,
            destinations,
        )

    # -- frame-back, motion, commit (per lane) ----------------------------------
    # The whole frame-back rotation and motion model runs elementwise over
    # the flat activation axis (same operation order as the scalar loop,
    # so the same IEEE results); each lane then commits its slice of rows
    # through the kernel's one round commit.
    ldx = np.ascontiguousarray(destinations[:, 0])
    ldy = np.where(framed & reflections, -destinations[:, 1], destinations[:, 1])
    # LocalFrame.to_global at unit scale / zero origin, kept term-for-term
    # (the 0.0 additions normalise -0.0 exactly as Point.rotated does).
    rot_x = (0.0 + cos_pos * ldx - sin_pos * ldy) + 0.0
    rot_y = (0.0 + sin_pos * ldx + cos_pos * ldy) + 0.0
    global_dx = np.where(framed, rot_x, ldx)
    global_dy = np.where(framed, rot_y, ldy)
    origin_x = flat_x[fids]
    origin_y = flat_y[fids]
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
    progress = np.concatenate([executed.progress for _, executed, _, _ in walked])
    xi_of_lane = np.fromiter(
        (lane.sim.config.motion.xi for lane, _, _, _ in walked),
        dtype=np.float64,
        count=len(walked),
    )
    fraction = np.minimum(1.0, np.maximum(xi_of_lane[lane_of], progress))
    short = planned <= EPS
    realized_x = np.where(short, origin_x, origin_x + (target_x - origin_x) * fraction)
    realized_y = np.where(short, origin_y, origin_y + (target_y - origin_y) * fraction)
    target = np.column_stack((target_x, target_y))
    realized = np.column_stack((realized_x, realized_y))
    offset = 0
    stopping: List[_Lane] = []
    for lane, executed, stop, _ in walked:
        count = len(executed)
        if count:
            rows = slice(offset, offset + count)
            lane.sim._commit_round(
                executed, target[rows], realized[rows], vis_counts[rows],
                lane.records, lane.aet,
            )
        offset += count
        if stop:
            stopping.append(lane)
    if stopping:
        _finish_group(stopping)


def _drive(lanes: List[_Lane], pool: Optional[FanoutPool], fanout_min: int) -> None:
    """The global iteration loop: one round per active lane."""
    while True:
        rounds: List[Tuple[_Lane, RoundBatch]] = []
        finishing: List[_Lane] = []
        for lane in lanes:
            if lane.status != "active":
                continue
            sim = lane.sim
            cfg = sim.config
            if (
                lane.processed >= cfg.max_activations
                or lane.popped >= 100 * cfg.max_activations
            ):
                finishing.append(lane)
                continue
            if not sim._refill():
                finishing.append(lane)
                continue
            batch, sim._round = sim._round, None
            if batch is not None and batch.look_time > cfg.max_time:
                # The serial loop stops at the first look past the horizon.
                finishing.append(lane)
            elif batch is not None and sim._open_round(batch):
                rounds.append((lane, batch))
            else:
                # The scheduler issued something other than a round, or a
                # robot is mid-move at the round's look instant: bail out
                # to a from-scratch serial re-run, which is always bit-safe.
                lane.status = "fallback"
        if finishing:
            _finish_group(finishing)
        if not rounds:
            break
        scalar_rounds: List[Tuple[_Lane, RoundBatch]] = []
        groups: Dict[tuple, List[Tuple[_Lane, RoundBatch]]] = {}
        for lane, batch in rounds:
            if lane.vector_ok:
                key = (lane.sim.n_robots, lane.effective)
                groups.setdefault(key, []).append((lane, batch))
            else:
                scalar_rounds.append((lane, batch))
        vector_groups = []
        for (n, effective), group_members in groups.items():
            tensor = np.stack(
                [lane.sim._state.arrays.position for lane, _ in group_members]
            )
            grid = ShardedGridIndex.from_replicates(tensor, effective + 2.0 * EPS)
            flat_xy = tensor.reshape(-1, 2)
            hazard = _collapse_hazard_lanes(flat_xy, len(group_members), n)
            vector_members = []
            for member_index, (lane, batch) in enumerate(group_members):
                if hazard[member_index]:
                    # A (near-)coincident pair: the coincidence collapse
                    # may engage, so take the exact serial path this round.
                    scalar_rounds.append((lane, batch))
                else:
                    vector_members.append((lane, batch, member_index))
            if vector_members:
                vector_groups.append((vector_members, grid, flat_xy, n))
        for lane, batch in scalar_rounds:
            _advance_scalar_round(lane, batch)
        for vector_members, grid, flat_xy, n in vector_groups:
            _advance_vector_group(vector_members, grid, flat_xy, n, pool, fanout_min)


def run_replicated_simulations(
    factories: Sequence[LaneFactory],
    *,
    fanout_workers: Optional[int] = None,
    fanout_min_robots: Optional[int] = None,
) -> List[SimulationResult]:
    """Run every member of a replicate bundle, batched round-by-round.

    Returns one :class:`SimulationResult` per factory, in order, each
    bit-identical (timing aside) to ``Simulator(*factory()).run()``.
    ``fanout_workers=0`` disables the shared-memory process fan-out;
    ``None`` auto-sizes it (workers only ever start once a round crosses
    ``fanout_min_robots`` total robots, default
    :data:`~repro.engine.fanout.REPLICATE_FANOUT_MIN_ROBOTS`).
    """
    fanout_min = (
        REPLICATE_FANOUT_MIN_ROBOTS
        if fanout_min_robots is None
        else int(fanout_min_robots)
    )
    lanes: List[_Lane] = []
    fallback_indices: List[int] = []
    setup_cache: dict = {}
    for index, factory in enumerate(factories):
        positions, algorithm, scheduler, config = factory()
        sim = Simulator(positions, algorithm, scheduler, config)
        if not sim._round_batching:
            fallback_indices.append(index)
            continue
        lanes.append(_prepare_lane(index, sim, setup_cache))
    pool = None if fanout_workers == 0 else FanoutPool(fanout_workers)
    try:
        if lanes:
            _drive(lanes, pool, fanout_min)
    finally:
        if pool is not None:
            pool.close()
    results: List[Optional[SimulationResult]] = [None] * len(factories)
    for lane in lanes:
        if lane.status == "fallback" or lane.result is None:
            fallback_indices.append(lane.index)
        else:
            results[lane.index] = lane.result
    for index in fallback_indices:
        positions, algorithm, scheduler, config = factories[index]()
        results[index] = Simulator(positions, algorithm, scheduler, config).run()
    return results
