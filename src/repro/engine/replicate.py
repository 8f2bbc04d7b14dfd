"""Replicate-batched execution: many seed-replicates through one round pass.

A sweep grid whose points differ only by seed re-pays the full per-round
Python overhead once per seed.  This module advances a whole bundle of
such runs ("lanes") together.  A lane is one :class:`Simulator` and its
:class:`~repro.engine.kernel.KernelRun`, advanced by the kernel's own
steps: every global iteration asks each lane's kernel for its next whole
round (:meth:`~repro.engine.kernel.ContinuousKernel._next_round`) and
groups the lanes by every configuration value the flat round decide
reads (swarm size, visibility range, perception, frames, reflection,
motion xi and the KKNPS constants).  Each lane takes its round's samples
through :meth:`~repro.engine.kernel.ContinuousKernel._sample_round`; then
the group's committed positions stack into one ``(lanes, n, 2)`` tensor,
a fresh :class:`~repro.geometry.pairs.VisiblePairs` with run-isolated
keys pairs it (the stack is formed anew each round, so nothing carries
over), and all of the group's activations go through one
:func:`~repro.engine.decide_batch.decide_round_flat` pass — the same
pipeline a single run's round takes — with
:func:`~repro.algorithms.kknps.kknps_destinations_all` as its core.

What the lanes add to a single run is batching only: the flat decide
over a group, a setup shared among byte-identical starts, and round
samples whose geometry is shared among byte-identical lanes
(:func:`_observe_fast`).  Like a single run's, a lane's round samples
measure the diameter and the broken edges only; its t=0 and final
samples are full.

Bit-identity contract: every lane owns its own RNG, scheduler, metrics
collector and kinematic arrays, and consumes its RNG stream in exactly
the serial order (frames are pre-drawn per lane in activation order; the
flat decide is restricted to draw-free perception and deviation-free
motion), so every row a lane produces is bit-identical to running that
lane alone — the sweep store and aggregator cannot tell the difference.
A round the flat decide cannot replicate exactly (other algorithms,
random distance error, deviating motion, trajectory recording, a
coincidence-collapse hazard) takes the lane's own
:meth:`~repro.engine.kernel.ContinuousKernel._process_round`; a lane
whose next step is not a whole round (its scheduler issued a plain
batch, or a robot is mid-move at the round's look) finishes through its
own kernel loop from where it stands.

Per-replicate convergence masking falls out of the lane structure: a lane
that converges (or exhausts its activation budget) is finalized and drops
out of the tensor while the stragglers continue.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.kknps import kknps_destinations_all
from ..geometry.hull import point_set_diameter
from ..geometry.pairs import VisiblePairs
from ..geometry.sec import smallest_enclosing_circle
from ..model.types import RoundBatch
from .decide_batch import collapse_hazard_lanes, decide_round_flat
from .kernel import KernelRun
from .metrics import MetricsCollector, MetricsSample
from .simulator import SimulationConfig, SimulationResult, Simulator

#: One bundle member: a zero-argument factory producing the
#: ``(initial_positions, algorithm, scheduler, config)`` of that run.
#: :func:`run_replicated_simulations` calls each factory once.
LaneFactory = Callable[
    [], Tuple[Sequence, object, object, Optional[SimulationConfig]]
]


class _Lane(NamedTuple):
    """One bundle member: its simulator, its run and its batching choices."""

    sim: Simulator
    run: KernelRun
    #: The lane's flat-decide group (:func:`_group_key`), or None when its
    #: rounds take the kernel's own round step.
    group: Optional[tuple]
    #: Whether the lane's samples go through :func:`_observe_fast`.
    fast_observe: bool


def _prepare_lane(sim: Simulator, setup_cache: Optional[dict] = None) -> _Lane:
    """Begin one lane's run through the kernel's own first step.

    Replicates of a seed-independent workload start from byte-identical
    positions, and both expensive setup steps — ``bind_initial`` (the
    initial visibility edges) and the full t=0 ``metrics.observe`` — are
    deterministic, RNG-free functions of those positions.  When
    ``setup_cache`` is given, they therefore run once per distinct
    initial configuration and the result is replayed into every further
    lane's collector: the edge set is copied, the (read-only) edge index
    arrays and the frozen t=0 sample are shared.  The lane's RNG stream
    is untouched either way, so the replay is bit-invisible.
    """
    metrics = sim._make_metrics()
    if setup_cache is not None and type(metrics) is MetricsCollector:
        positions = sim._sampled_positions(0.0, None)
        key = (sim.n_robots, sim.config.visibility_range, positions.tobytes())
        template = setup_cache.get(key)
        if template is None:
            sim._bind_metrics(metrics)
            metrics.observe(0.0, positions, 0, full=True)
            setup_cache[key] = metrics
        else:
            metrics.initial_edges = set(template.initial_edges)
            metrics._edge_i = template._edge_i
            metrics._edge_j = template._edge_j
            metrics.record(template.samples[0])
        run = sim._begin_run(metrics)
    else:
        run = sim._begin_run()
    effective = sim._effective_range()
    vector_ok = (
        sim._batch_decide_eligible()
        and math.isfinite(effective)
        and effective > 0.0
        and run.recorder is None
        and getattr(run.metrics, "supports_replicated_samples", False)
    )
    return _Lane(
        sim,
        run,
        _group_key(sim) if vector_ok else None,
        vector_ok and type(run.metrics) is MetricsCollector,
    )


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


def _observe_fast(
    metrics: MetricsCollector,
    time: float,
    arr: np.ndarray,
    processed: int,
    geometry_cache: Optional[dict] = None,
    *,
    full: bool = False,
):
    """``metrics.observe``, bit-identically, with shared step geometry.

    A step sample's geometry — the diameter and the broken-edge count —
    is a pure function of the position bytes and the collector's initial
    edge arrays; when sibling lanes still agree byte-for-byte
    (seed-independent workloads before their RNG streams diverge), a
    caller-scoped ``geometry_cache`` lets the first lane's observation
    serve the rest verbatim — only ``time`` and ``activations_processed``
    stay per-lane.  A full sample is the collector's own, with this
    module's :func:`smallest_enclosing_circle`.
    """
    if full:
        return metrics.record(
            metrics.full_sample(time, arr, processed, smallest_enclosing_circle)
        )
    key = None
    geometry = None
    if geometry_cache is not None:
        key = (arr.tobytes(), id(metrics._edge_i))
        geometry = geometry_cache.get(key)
    if geometry is None:
        geometry = (point_set_diameter(arr), metrics._broken_edge_count(arr))
        if key is not None:
            geometry_cache[key] = geometry
    diameter, broken_count = geometry
    return metrics.record(MetricsSample(time, diameter, broken_count, processed))


def _sampler(lane: _Lane, geometry_cache: Optional[dict] = None):
    """The ``observe`` a lane's kernel steps sample with (None: the collector's own)."""
    if not lane.fast_observe:
        return None
    return partial(_observe_fast, lane.run.metrics, geometry_cache=geometry_cache)


def _advance_group(
    members: List[Tuple[_Lane, RoundBatch, int]],
    pairs: VisiblePairs,
    flat_xy: np.ndarray,
) -> None:
    """One round of every lane of one homogeneous group, one flat decide."""
    n, effective = members[0][0].group[:2]
    # Sibling lanes with byte-identical committed positions (common until
    # round-1 RNG frames diverge seed-varied replicates) share one round of
    # observe geometry through this per-round cache.
    geometry_cache: dict = {}
    sampled = []
    for lane, batch, slot in members:
        observe = _sampler(lane, geometry_cache)
        sampled.append((lane, lane.sim._sample_round(batch, lane.run, observe), slot))
    if not any(len(executed) for _, executed, _ in sampled):
        return
    lead = sampled[0][0].sim
    consts = lead.algorithm.decide_consts()
    target, realized, seen = decide_round_flat(
        lead.config,
        effective,
        lambda px, py, starts, ends: kknps_destinations_all(
            px, py, starts, ends, consts
        ),
        flat_xy,
        pairs,
        np.concatenate(
            [executed.robot_ids + slot * n for _, executed, slot in sampled]
        ),
        np.concatenate([executed.progress for _, executed, _ in sampled]),
        [(lane.sim.rng, len(executed)) for lane, executed, _ in sampled],
    )
    # Each lane commits its slice of the rows through the kernel's one
    # round commit.
    offset = 0
    for lane, executed, _ in sampled:
        count = len(executed)
        if count:
            rows = slice(offset, offset + count)
            lane.sim._commit_round(
                executed, target[rows], realized[rows], seen[rows], lane.run
            )
        offset += count


def _drive(lanes: List[_Lane]) -> None:
    """The global iteration loop: one kernel step per active lane."""
    active = lanes
    while active:
        rounds: List[Tuple[_Lane, RoundBatch]] = []
        for lane in active:
            batch = lane.sim._next_round(lane.run)
            if batch is not None:
                rounds.append((lane, batch))
                continue
            # The run stopped, or its next step is not a whole round: the
            # lane finishes through its own kernel loop from here.
            lane.sim._run_loop(lane.run)
            lane.sim._end_run(lane.run, _sampler(lane))
        active = [lane for lane, _ in rounds]
        groups: Dict[tuple, List[Tuple[_Lane, RoundBatch]]] = {}
        for lane, batch in rounds:
            if lane.group is None:
                lane.sim._process_round(batch, lane.run)
            else:
                groups.setdefault(lane.group, []).append((lane, batch))
        for (n, *_), members in groups.items():
            tensor = np.stack(
                [lane.sim._arrays.position for lane, _ in members]
            )
            flat_xy = tensor.reshape(-1, 2)
            hazard = collapse_hazard_lanes(flat_xy, len(members), n)
            vector = []
            for slot, (lane, batch) in enumerate(members):
                if hazard[slot]:
                    # A (near-)coincident pair: the coincidence collapse
                    # may engage, so the lane's own round step decides.
                    lane.sim._process_round(batch, lane.run)
                else:
                    vector.append((lane, batch, slot))
            if vector:
                lead = vector[0][0].sim
                pairs = VisiblePairs(*lead._pair_rule(), runs=len(members))
                _advance_group(vector, pairs.refresh(flat_xy), flat_xy)


def run_replicated_simulations(
    factories: Sequence[LaneFactory],
) -> List[SimulationResult]:
    """Run every member of a replicate bundle, batched round-by-round.

    Returns one :class:`SimulationResult` per factory, in order, each
    bit-identical (timing aside) to ``Simulator(*factory()).run()``.
    """
    setup_cache: dict = {}
    lanes = [
        _prepare_lane(Simulator(*factory()), setup_cache) for factory in factories
    ]
    _drive(lanes)
    return [lane.sim._result(lane.run) for lane in lanes]
