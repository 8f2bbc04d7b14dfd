"""Replicate-batched execution: many seed-replicates through one round pass.

A sweep grid whose points differ only by seed re-pays the full per-round
Python overhead once per seed.  This module advances a whole bundle of
such runs ("lanes") together: every global iteration validates one round
per lane and groups the lanes by every configuration value the flat
round decide reads (swarm size, visibility range, perception, frames,
reflection, motion xi and the KKNPS constants).  Each group's committed
positions stack into one ``(lanes, n, 2)`` tensor, one
:meth:`ShardedGridIndex.from_replicates` grid bins it, and all of the
group's activations go through one
:func:`~repro.engine.decide_batch.decide_round_flat` pass — the same
pipeline a single run's round takes — with
:func:`~repro.algorithms.kknps.kknps_destinations_all` as its core.

Bit-identity contract: every lane owns its own RNG, scheduler, metrics
collector and kinematic arrays, and consumes its RNG stream in exactly
the serial order (frames are pre-drawn per lane in activation order; the
flat decide is restricted to draw-free perception and deviation-free
motion), so every row a lane produces is bit-identical to running that
lane alone — the sweep store and aggregator cannot tell the difference.
Anything the flat decide cannot replicate exactly (other algorithms,
random distance error, deviating motion, trajectory recording, a
coincidence-collapse hazard) drops per-round to the lane's own serial
``_process_round``; a lane whose scheduler does not produce
:class:`~repro.model.types.RoundBatch` rounds (or whose round finds a
robot mid-move) is re-run serially from its initial state.

Per-replicate convergence masking falls out of the lane structure: a lane
that converges (or exhausts its activation budget) is finalized and drops
out of the tensor while the stragglers continue.
"""

from __future__ import annotations

import math
import time as _time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.kknps import kknps_destinations_all
from ..geometry.hull import ConvexHull
from ..geometry.point import points_to_array
from ..geometry.sec import smallest_enclosing_circle
from ..geometry.tolerances import EPS
from ..model.types import RoundBatch
from .decide_batch import collapse_hazard_lanes, decide_round_flat
from .kernel import replay_round
from .logs import RecordLog
from .metrics import (
    MetricsCollector,
    MetricsSample,
    min_pairwise_distance_grid,
    search_radius_floor,
)
from .simulator import SimulationConfig, SimulationResult, Simulator
from .spatial_index import ShardedGridIndex, covering_cell

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
        "group",
        "fast_observe",
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
        self.result: Optional[SimulationResult] = None


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
    if setup_cache is not None and type(lane.metrics) is MetricsCollector:
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
        lane.metrics.record(template[3])
    effective = sim._effective_range()
    vector_ok = (
        sim._batch_decide_eligible()
        and math.isfinite(effective)
        and effective > 0.0
        and lane.recorder is None
        and getattr(lane.metrics, "supports_replicated_samples", False)
    )
    lane.group = _group_key(sim) if vector_ok else None
    lane.fast_observe = vector_ok and type(lane.metrics) is MetricsCollector
    return lane


def _group_key(sim: Simulator) -> tuple:
    """Every value of a lane's run the flat round decide reads.

    Lanes with equal keys advance as one group: one grid (swarm size and
    visibility range first, so ``_drive`` can unpack them), one
    perception model (a frozen dataclass, equal field by field), one
    frame rule, one motion xi and one set of KKNPS constants.  Only the
    RNG streams differ between them.
    """
    cfg = sim.config
    return (
        sim.n_robots,
        sim._effective_range(),
        cfg.perception,
        cfg.use_random_frames,
        cfg.allow_reflection,
        cfg.motion.xi,
        sim.algorithm.decide_consts(),
    )


def _min_pairwise_group(
    arrs: List[np.ndarray], radii: List[float]
) -> List[float]:
    """Exact per-lane minimum separations from one shared replicate grid.

    Any positive search radius yields the exact minimum (the grid covers
    every pair at distance at most the radius, the true argmin pair is
    therefore always emitted once the per-lane verification ``best <=
    radius`` passes, and extra emitted pairs can only be farther), so all
    lanes can share one ``from_replicates`` binning at the largest
    requested radius instead of building one grid each.  Per-pair
    arithmetic matches :func:`min_pairwise_distance_grid` term for term;
    lanes whose verification fails at the shared radius fall back to the
    per-lane doubling search, which returns the same exact value.

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
        minima = _min_pairwise_group(rep_arrs, [max(radii)] * len(rep_arrs))
        return [minima[rep] for rep in member_of]
    lanes = len(arrs)
    n = len(arrs[0])
    tensor = np.stack(arrs)
    flat = tensor.reshape(lanes * n, 2)
    radius = search_radius_floor(flat, max(radii))
    shard = ShardedGridIndex.from_replicates(tensor, covering_cell(flat, radius))
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
            if best <= radius:
                out[lane_index] = best
    for k in range(lanes):
        if out[k] is None:
            out[k] = min_pairwise_distance_grid(arrs[k], radius * 2.0)
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
    :func:`min_pairwise_distance_grid`, started at the collector's
    separation hint.  A caller that already holds the lane's exact
    minimum (the batched per-round group pass) hands it in via
    ``min_pairwise``.

    Every geometric field of the sample is a pure function of the
    position bytes and the collector's initial edge arrays; when sibling
    lanes still agree byte-for-byte (seed-independent workloads before
    their RNG streams diverge), a caller-scoped ``geometry_cache`` lets
    the first lane's observation serve the rest verbatim — only ``time``
    and ``activations_processed`` stay per-lane.
    """
    metrics = lane.metrics
    if len(arr) < 2:
        return metrics.observe(time, arr, processed)
    key = None
    geometry = None
    if geometry_cache is not None:
        key = (arr.tobytes(), id(metrics._edge_i))
        geometry = geometry_cache.get(key)
    if geometry is None:
        hull = ConvexHull.of_array(arr)
        hull_arr = points_to_array(hull.vertices)
        hx = hull_arr[:, 0, None] - hull_arr[None, :, 0]
        hy = hull_arr[:, 1, None] - hull_arr[None, :, 1]
        if min_pairwise is None:
            min_pairwise = min_pairwise_distance_grid(arr, metrics.separation_radius())
        geometry = (
            float(math.sqrt((hx * hx + hy * hy).max())),
            hull.perimeter(),
            smallest_enclosing_circle(hull.vertices).radius,
            min_pairwise,
            metrics._broken_edge_count(arr),
        )
        if key is not None:
            geometry_cache[key] = geometry
    diameter, perimeter, radius, shared_min, broken_count = geometry
    return metrics.record(
        MetricsSample(
            time=time,
            hull_diameter=diameter,
            hull_perimeter=perimeter,
            hull_radius=radius,
            min_pairwise_distance=shared_min if min_pairwise is None else min_pairwise,
            initial_edges_preserved=not broken_count,
            broken_edge_count=broken_count,
            activations_processed=processed,
        )
    )


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
            [lane.metrics.separation_radius() for lane in group],
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


def _advance_vector_group(
    members: List[Tuple[_Lane, RoundBatch, int]],
    grid: ShardedGridIndex,
    flat_xy: np.ndarray,
) -> None:
    """One flat round decide over every lane of one homogeneous group."""
    n, effective = members[0][0].group[:2]
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
                [members[k][0].metrics.separation_radius() for k in observing],
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
    if sum(len(executed) for _, executed, _, _ in walked):
        lead = walked[0][0].sim
        consts = lead.algorithm.decide_consts()
        target, realized, seen = decide_round_flat(
            lead.config,
            effective,
            lambda px, py, starts, ends: kknps_destinations_all(
                px, py, starts, ends, consts
            ),
            flat_xy,
            grid,
            np.concatenate(
                [executed.robot_ids + slot * n for _, executed, _, slot in walked]
            ),
            np.concatenate([executed.progress for _, executed, _, _ in walked]),
            [(lane.sim.rng, len(executed)) for lane, executed, _, _ in walked],
        )
        # Each lane commits its slice of the rows through the kernel's one
        # round commit.
        offset = 0
        for lane, executed, _, _ in walked:
            count = len(executed)
            if count:
                rows = slice(offset, offset + count)
                lane.sim._commit_round(
                    executed, target[rows], realized[rows], seen[rows],
                    lane.records, lane.aet,
                )
            offset += count
    stopping = [lane for lane, _, stop, _ in walked if stop]
    if stopping:
        _finish_group(stopping)


def _drive(lanes: List[_Lane]) -> None:
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
            if lane.group is not None:
                groups.setdefault(lane.group, []).append((lane, batch))
            else:
                scalar_rounds.append((lane, batch))
        vector_groups = []
        for (n, effective, *_), group_members in groups.items():
            tensor = np.stack(
                [lane.sim._state.arrays.position for lane, _ in group_members]
            )
            grid = ShardedGridIndex.from_replicates(tensor, effective + 2.0 * EPS)
            flat_xy = tensor.reshape(-1, 2)
            hazard = collapse_hazard_lanes(flat_xy, len(group_members), n)
            vector_members = []
            for member_index, (lane, batch) in enumerate(group_members):
                if hazard[member_index]:
                    # A (near-)coincident pair: the coincidence collapse
                    # may engage, so take the exact serial path this round.
                    scalar_rounds.append((lane, batch))
                else:
                    vector_members.append((lane, batch, member_index))
            if vector_members:
                vector_groups.append((vector_members, grid, flat_xy))
        for lane, batch in scalar_rounds:
            _advance_scalar_round(lane, batch)
        for vector_members, grid, flat_xy in vector_groups:
            _advance_vector_group(vector_members, grid, flat_xy)


def run_replicated_simulations(
    factories: Sequence[LaneFactory],
) -> List[SimulationResult]:
    """Run every member of a replicate bundle, batched round-by-round.

    Returns one :class:`SimulationResult` per factory, in order, each
    bit-identical (timing aside) to ``Simulator(*factory()).run()``.
    """
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
    if lanes:
        _drive(lanes)
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
