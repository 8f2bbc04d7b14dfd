"""The dimension-generic continuous-time simulation kernel.

This module owns the event-driven activation pipeline that both engines
share: scheduler batches feeding a global ``look_time``-ordered heap,
instantaneous Looks over interpolated ``(n, d)`` kinematic state, phase
transitions on the structure-of-arrays store, spatial-index maintenance,
metrics sampling cadence, and the convergence / horizon stopping rules.
Nothing in here knows the spatial dimension: every position is a row of a
:class:`~repro.model.robot.KinematicArrays` store, every transition is a
row-level operation, and the grid is the dimension-generic
:class:`~repro.engine.spatial_index.UniformGridIndex`.

What *does* depend on the dimension is factored into a handful of hooks a
subclass provides:

* :meth:`ContinuousKernel._decide_move` — the Look/Compute core: build
  the perceived snapshot from the candidate positions (private frame,
  perception error), run the destination rule, realise the move.  The
  planar :class:`~repro.engine.simulator.Simulator` implements it with
  :func:`~repro.model.snapshot.build_snapshot` and 2D ``LocalFrame``
  transforms; the 3D engines implement it with rotation matrices and
  :meth:`~repro.spatial3d.kknps3.KKNPS3Algorithm.compute_array`.
* :meth:`ContinuousKernel._make_metrics` / :meth:`_bind_metrics` — the
  metrics collector.  The kernel only requires that ``observe`` return a
  sample exposing ``hull_diameter`` (for a full-dimensional point set the
  hull diameter *is* the set diameter, so the name is dimension-honest).
* :meth:`ContinuousKernel._make_record_log` — per-activation records (the
  planar engine keeps a columnar :class:`~repro.engine.logs.RecordLog`
  of Point-typed :class:`ActivationRecord` views; the 3D engines skip
  records entirely).

Because the pipeline itself lives here once, the full scheduler family
(fsync, ssync, k-NestA, k-Async, scripted) drives runs in any dimension;
schedulers only ever see :class:`Activation` batches and the read-only
engine view, both dimension-free.

A round-structured scheduler issues each round as a
:class:`~repro.model.types.RoundBatch` — robot ids and progress fractions
as arrays, one shared look instant and phase durations.  On the batched
round path the kernel holds that batch whole instead of heaping its
activations: the round's decisions come back as row arrays, one
index-array transition on the kinematic store begins every move, and the
round's records and metrics samples are appended as columns.

The required configuration attributes (duck-typed; satisfied by
``SimulationConfig`` and the 3D config types) are: ``visibility_range``,
``seed``, ``max_activations``, ``max_time``, ``convergence_epsilon``,
``stop_at_convergence``, ``record_every``, ``crashed_robots`` and
``spatial_index``.
"""

from __future__ import annotations

import heapq
import math
import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..geometry.tolerances import EPS
from ..model.robot import PHASE_MOVING
from ..model.types import Activation, RoundBatch
from ..schedulers.base import Scheduler
from .logs import RecordLog
from .spatial_index import ShardedGridIndex, UniformGridIndex, grid_auto_threshold
from .state import EngineState

#: What one Look/Compute/Move decision produced: the target the algorithm
#: chose and the endpoint the motion model realises (global coordinate
#: rows), and how many neighbours the Look saw.
Decision = Tuple[object, object, int]


@dataclass
class KernelOutcome:
    """Everything one kernel run produced, in dimension-free form."""

    metrics: object
    processed: int
    activation_end_times: Dict[int, List[float]]
    records: Optional[RecordLog]
    converged_time: Optional[float]
    final_time: float
    final_positions: np.ndarray
    wall_time_seconds: float
    recorder: Optional[object] = None


def replay_round(
    batch: RoundBatch,
    crashed: np.ndarray,
    processed: int,
    popped: int,
    max_activations: int,
    record_every: int,
):
    """Replay the per-activation loop's counters over one round, touching no state.

    A crashed robot's activation is popped but skipped, and the activation
    and pop caps cut the round short, exactly as the per-activation loop
    would.  Returns ``(executed, first, boundaries, processed, popped)``:
    the sub-round that executes, the first record boundary inside it as
    ``(executed so far, processed, popped)`` (None when there is none),
    and how many boundaries fall inside it.  The boundaries are
    consecutive multiples of ``record_every`` in ``processed``.
    """
    count = len(batch)
    pop_cap = 100 * max_activations
    if (
        processed + count <= max_activations
        and popped + count < pop_cap
        and not crashed.any()
    ):
        # No skip and no cap can trigger inside this round: every entry
        # executes and the record boundaries fall arithmetically.
        boundaries = (processed + count) // record_every - processed // record_every
        first = None
        if boundaries:
            k = (processed // record_every + 1) * record_every - processed
            first = (k, processed + k, popped + k)
        return batch, first, boundaries, processed + count, popped + count
    rows: List[int] = []
    first = None
    boundaries = 0
    for row, robot_id in enumerate(batch.robot_ids.tolist()):
        if processed >= max_activations or popped >= pop_cap:
            break
        popped += 1
        if crashed[robot_id]:
            continue
        rows.append(row)
        processed += 1
        if processed % record_every == 0:
            if first is None:
                first = (len(rows), processed, popped)
            boundaries += 1
    executed = batch.take(np.asarray(rows, dtype=np.intp))
    return executed, first, boundaries, processed, popped


class ContinuousKernel:
    """The shared continuous-time activation pipeline over ``(n, d)`` state."""

    def __init__(
        self,
        state: EngineState,
        algorithm,
        scheduler: Scheduler,
        config,
        *,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.config = config
        self.algorithm = algorithm
        self.scheduler = scheduler
        self.rng = np.random.default_rng(config.seed) if rng is None else rng
        self._state = state
        for crashed_id in getattr(config, "crashed_robots", ()):
            self._state.arrays.crash_at(crashed_id)
        self._time = 0.0
        self._pending: List[tuple] = []
        #: The scheduler's latest round, held whole for the batched round
        #: path (only ever set while the heap is empty).
        self._round: Optional[RoundBatch] = None
        self._sequence = 0
        self._round_batching = self._round_batching_enabled()
        # The batched round path rebuilds a sharded grid per round from the
        # committed positions, so the incrementally maintained index would
        # only be dead weight there.
        self._grid = None if self._round_batching else self._build_grid()

    # -- EngineView protocol --------------------------------------------------------
    @property
    def time(self) -> float:
        """Current global simulation time."""
        return self._time

    @property
    def n_robots(self) -> int:
        """Number of robots in the run."""
        return self._state.n

    @property
    def dim(self) -> int:
        """Spatial dimension of the run."""
        return self._state.arrays.dim

    def positions_array(self, at_time: Optional[float] = None) -> np.ndarray:
        """Positions of all robots at ``at_time`` as an ``(n, d)`` float array.

        All in-flight moves are interpolated in one numpy expression.
        """
        t = self._time if at_time is None else at_time
        return self._state.positions_at(t)

    # -- dimension hooks -------------------------------------------------------------
    def _decide_move(
        self,
        robot_id: int,
        look_time: float,
        other_positions,
        activation: Activation,
    ) -> Decision:
        """Look/Compute/realise for one activation (subclasses implement).

        Returns ``(target, realized, neighbours_seen)``: the algorithm's
        target and the realised endpoint as global coordinate rows, and
        the number of neighbours the Look saw.
        """
        raise NotImplementedError

    def _make_metrics(self):
        """The metrics collector for this run (subclasses implement)."""
        raise NotImplementedError

    def _bind_metrics(self, metrics) -> None:
        """Bind the collector to the initial configuration (cohesion baseline)."""
        bind = getattr(metrics, "bind_initial", None)
        if bind is not None:
            bind(self._state.committed_positions())

    def _make_recorder(self):
        """The trajectory recorder, or None (base: no recording)."""
        return None

    def _make_record_log(self) -> Optional[RecordLog]:
        """The per-activation record log, or None to skip records (base: none)."""
        return None

    def _frame_for_look(self):
        """The private frame of one Look (base: the global frame)."""
        return None

    def _effective_range(self) -> float:
        """The visibility range the Look filter applies."""
        if getattr(self.algorithm, "assumes_unlimited_visibility", False):
            return math.inf
        return self.config.visibility_range

    def _sampled_positions(self, look_time: float, look_all_positions):
        """Positions fed to the metrics sample of ``look_time``.

        The dense Look's full interpolation of the same instant is reused
        outright (beginning the observer's move cannot change its position
        at its own look time); otherwise one fresh interpolation pass runs.
        """
        if look_all_positions is not None:
            return look_all_positions
        return self.positions_array(look_time)

    # -- internals ---------------------------------------------------------------------
    def _grid_range(self) -> Optional[float]:
        """The range a Look grid bins by, or None when Looks stay dense.

        The one enablement rule of both grids (the incremental
        :meth:`_build_grid` and the per-round :meth:`_round_shard`): a
        grid needs a finite, positive visibility range;
        ``spatial_index=False`` always forces the dense path, ``True``
        forces the grid, and the default (None) enables it only for a
        swarm big enough for the bookkeeping to pay off.
        """
        effective = self._effective_range()
        if not (math.isfinite(effective) and effective > 0.0):
            return None
        enabled = self.config.spatial_index
        if enabled is None:
            enabled = self.n_robots >= grid_auto_threshold(self.dim)
        return effective if enabled else None

    def _build_grid(self) -> Optional[UniformGridIndex]:
        """The incrementally maintained spatial hash index, or None for dense Looks."""
        effective = self._grid_range()
        if effective is None:
            return None
        grid = UniformGridIndex(effective, dim=self.dim)
        committed = self._state.committed_positions()
        for i in range(self.n_robots):
            grid.settle(i, *committed[i])
        return grid

    # -- batched round fast path ---------------------------------------------------------
    def _round_batching_enabled(self) -> bool:
        """Whether the scheduler's :class:`RoundBatch` es run as whole rounds.

        ``config.round_batching`` (duck-typed, default None) forces the
        answer either way; on auto, the fast path engages exactly when the
        scheduler declares itself round-structured (``round_structured =
        True`` — fsync, ssync and the 3D round adapter).  Only a batch the
        scheduler issues as a :class:`RoundBatch` is ever advanced as a
        round; any other batch goes through the per-activation heap, so
        forcing the path on under a non-round scheduler changes nothing
        but the Look index.
        """
        setting = getattr(self.config, "round_batching", None)
        if setting is False:
            return False
        if setting is None:
            return bool(getattr(self.scheduler, "round_structured", False))
        return True

    def _round_shard(self, committed: np.ndarray) -> Optional[ShardedGridIndex]:
        """The per-round sharded candidate index, or None for dense Looks.

        Enabled by :meth:`_grid_range`'s rule, like :meth:`_build_grid`, but
        bins the round's committed positions in one vectorized pass
        instead of maintaining buckets per activation.
        """
        effective = self._grid_range()
        if effective is None:
            return None
        return ShardedGridIndex(committed, effective + 2.0 * EPS)

    def _round_decider(self, look_time: float, committed: np.ndarray, shard):
        """Per-robot decide callable for one round (overridable).

        The base form routes through :meth:`_decide_move` unchanged — the
        candidate rows are the committed positions themselves (every robot
        is idle at its committed position at the round's look instant),
        gathered through the shard's block-local candidate arrays when one
        is active.  The shard's candidate set includes the observer, which
        every Look filter drops at distance zero exactly as the dense path
        drops coincident robots.
        """

        def decide(robot_id: int, activation: Activation) -> Decision:
            if shard is not None:
                other = committed[shard.candidates(robot_id)]
            else:
                other = np.delete(committed, robot_id, axis=0)
            return self._decide_move(robot_id, look_time, other, activation)

        return decide

    def _round_decide_rows(
        self, look_time: float, committed: np.ndarray, shard, executed: RoundBatch
    ):
        """One round's decides, robot by robot, gathered into row arrays."""
        decide = self._round_decider(look_time, committed, shard)
        acts = len(executed)
        target = np.empty((acts, self.dim), dtype=np.float64)
        realized = np.empty((acts, self.dim), dtype=np.float64)
        seen = np.empty(acts, dtype=np.int64)
        for k, activation in enumerate(executed):
            target[k], realized[k], seen[k] = decide(activation.robot_id, activation)
        return target, realized, seen

    def _round_batch_ready(self, committed: np.ndarray, shard, count: int) -> bool:
        """Whether this round's decides may run as one whole-round batch call.

        The base kernel has no batched decide; dimension front ends that
        implement :meth:`_round_decide_batch` override this with their
        eligibility rule (algorithm core, draw-free perception and motion,
        coincidence-collapse guard).  Returning False keeps the round on
        the per-robot :meth:`_round_decide_rows` path.
        """
        return False

    def _round_decide_batch(
        self, look_time: float, committed: np.ndarray, shard, executed: RoundBatch
    ):
        """All of one round's decides in a single call (subclasses implement).

        Only invoked after :meth:`_round_batch_ready` answered True for the
        round; must return ``(target, realized, neighbours_seen)`` as
        ``(m, d)``, ``(m, d)`` and ``(m,)`` arrays over the executed
        activations, bit-identical to :meth:`_round_decide_rows`
        (including RNG draw order).
        """
        raise NotImplementedError

    def _commit_round(
        self,
        executed: RoundBatch,
        target: np.ndarray,
        realized: np.ndarray,
        neighbours_seen: np.ndarray,
        records: Optional[RecordLog],
        activation_end_times: Dict[int, List[float]],
    ) -> None:
        """Begin every executed move with one index-array transition, then log the round."""
        arrays = self._state.arrays
        ids = executed.robot_ids
        arrays.begin_moves(ids, realized, executed.move_start_time, executed.end_time)
        end = executed.end_time
        for robot_id in ids.tolist():
            activation_end_times[robot_id].append(end)
        if records is not None:
            records.extend_round(
                executed, arrays.position[ids], target, realized, neighbours_seen
            )

    def _process_round(
        self,
        batch: RoundBatch,
        metrics,
        recorder,
        records: Optional[RecordLog],
        activation_end_times: Dict[int, List[float]],
        processed: int,
        popped: int,
        converged_time: Optional[float],
    ):
        """Advance one round against the committed rows; returns updated loop state.

        The per-activation loop's counters are replayed first without
        touching any state (:func:`replay_round`): which activations
        execute and where the record boundaries fall.  Every boundary of a
        round observes the same committed geometry — positions committed
        before the round stay committed throughout it (beginning a move
        never writes ``position``) — and ``observe`` draws no RNG, so the
        first boundary's sample and the convergence decision are taken
        *before* the decides.  A convergence stop then truncates the round
        exactly where the per-activation loop would have broken: the
        skipped activations never decide, so their draws never happen and
        the RNG stream matches byte for byte.  The surviving activations
        are decided as one batch when the front end allows it (else robot
        by robot, in order), committed by :meth:`_commit_round`, and the
        remaining boundaries are replicated from the first sample when the
        collector declares that safe (``supports_replicated_samples``),
        else re-observed with the same arguments.
        """
        cfg = self.config
        arrays = self._state.arrays
        look_time = batch.look_time
        committed = arrays.position
        shard = self._round_shard(committed)
        executed, first, boundaries, processed, popped = replay_round(
            batch, arrays.crashed, processed, popped,
            cfg.max_activations, cfg.record_every,
        )
        stop = False
        if first is not None:
            sample = metrics.observe(look_time, committed, first[1])
            if recorder is not None:
                recorder.record_all(look_time, committed)
            if converged_time is None and sample.hull_diameter <= cfg.convergence_epsilon:
                converged_time = look_time
                if cfg.stop_at_convergence:
                    stop = True
                    n_executed, processed, popped = first
                    executed = executed.take(slice(0, n_executed))
                    boundaries = 1
        if len(executed):
            if self._round_batch_ready(committed, shard, len(batch)):
                decide = self._round_decide_batch
            else:
                decide = self._round_decide_rows
            target, realized, seen = decide(look_time, committed, shard, executed)
            self._commit_round(
                executed, target, realized, seen, records, activation_end_times
            )
        if boundaries > 1:
            repeats = boundaries - 1
            if getattr(metrics, "supports_replicated_samples", False):
                metrics.samples.repeat_last(repeats, cfg.record_every)
            else:
                for k in range(1, boundaries):
                    metrics.observe(look_time, committed, first[1] + k * cfg.record_every)
            if recorder is not None:
                for _ in range(repeats):
                    recorder.record_all(look_time, committed)
        return processed, popped, converged_time, stop

    def _push(self, activation: Activation) -> None:
        heapq.heappush(self._pending, (activation.look_time, self._sequence, activation))
        self._sequence += 1

    def _refill(self) -> bool:
        """Fetch the scheduler's next batch: held whole if it is a round, else heaped."""
        batch = self.scheduler.next_batch(self)
        if not batch:
            return False
        if self._round_batching and isinstance(batch, RoundBatch):
            self._round = batch
        else:
            for activation in batch:
                self._push(activation)
        return True

    def _open_round(self, batch: RoundBatch) -> bool:
        """Advance the clock to a round's look instant; True when its Looks may share rows.

        Moves that ended by the look instant are finalised first.  A robot
        still mid-move there (impossible under the built-in round
        schedulers, whose cycles end inside the round) means the committed
        rows are not what the round's Looks would see.
        """
        self._time = batch.look_time
        self._finalize_completed_moves(batch.look_time)
        return not self._state.any_moving()

    def _finalize_completed_moves(self, now: float) -> None:
        completed = self._state.completed_movers(now)
        if len(completed) == 0:
            return
        arrays = self._state.arrays
        arrays.finish_moves(completed)
        grid = self._grid
        if grid is not None:
            committed = arrays.position
            for i in completed.tolist():
                grid.settle(i, *committed[i])

    def _settle_moves(self) -> float:
        """Let every in-flight move finish; returns the final time."""
        arrays = self._state.arrays
        moving = np.flatnonzero(arrays.phase == PHASE_MOVING)
        if len(moving):
            self._time = max(self._time, float(arrays.move_end[moving].max()))
            arrays.finish_moves(moving)
        return self._time

    def _begin_move(
        self, robot_id: int, origin: np.ndarray, destination,
        start: float, end: float,
    ) -> None:
        self._state.arrays.begin_move_at(robot_id, origin, destination, start, end)
        if self._grid is not None:
            self._grid.begin_move(robot_id, *origin, *destination)

    def _look_positions(self, robot_id: int, look_time: float):
        """What the observing robot can be shown: candidate positions for its Look.

        An ``(m, d)`` array of interpolated positions — all other robots
        on the dense path, only the robots in the observer's 3^d grid
        neighbourhood when the spatial index is active (an exact superset
        of the visible set; the Look's distance filter is unchanged).

        Returns ``(others, all_positions)`` where ``all_positions`` is the
        full ``(n, d)`` interpolation when the dense path computed one
        (reused for the metrics sample of the same instant), else None.
        """
        if self._grid is not None:
            observer = self._state.committed_positions()[robot_id]
            candidates = self._grid.candidates(*observer, exclude=robot_id)
            return self._state.positions_at(look_time, candidates), None
        all_positions = self._state.positions_at(look_time)
        return np.delete(all_positions, robot_id, axis=0), all_positions

    # -- main loop -----------------------------------------------------------------------
    def run_kernel(self) -> KernelOutcome:
        """Execute the continuous-time pipeline and return its raw outcome."""
        started = _time.perf_counter()
        cfg = self.config
        arrays = self._state.arrays
        metrics = self._make_metrics()
        self._bind_metrics(metrics)
        recorder = self._make_recorder()
        if recorder is not None:
            recorder.record_all(0.0, self._sampled_positions(0.0, None))

        self.scheduler.reset(self.n_robots, self.rng)
        records = self._make_record_log()
        activation_end_times: Dict[int, List[float]] = {
            i: [] for i in range(self.n_robots)
        }
        processed = 0
        popped = 0
        converged_time: Optional[float] = None

        metrics.observe(0.0, self._sampled_positions(0.0, None), 0)

        while processed < cfg.max_activations and popped < 100 * cfg.max_activations:
            if self._round is None and not self._pending and not self._refill():
                break
            batch = self._round
            if batch is not None:
                self._round = None
                if batch.look_time > cfg.max_time:
                    break
                if self._open_round(batch):
                    processed, popped, converged_time, stop = self._process_round(
                        batch, metrics, recorder, records, activation_end_times,
                        processed, popped, converged_time,
                    )
                    if stop:
                        break
                    continue
                # Someone is mid-move at the round's look instant: the
                # per-activation path interpolates their Looks instead.
                for activation in batch:
                    self._push(activation)
            look_time, _, activation = heapq.heappop(self._pending)
            popped += 1
            if look_time > cfg.max_time:
                break
            self._time = look_time
            robot_id = activation.robot_id
            self._finalize_completed_moves(look_time)
            if arrays.crashed[robot_id]:
                continue
            if arrays.phase[robot_id] == PHASE_MOVING:
                # A scheduler bug: a robot was activated before its previous
                # move ended.  Fail loudly rather than silently corrupting the run.
                raise RuntimeError(
                    f"robot {robot_id} activated at t={look_time} before its move ended "
                    f"at t={float(arrays.move_end[robot_id])}"
                )

            arrays.begin_activation_at(robot_id, look_time)
            other_positions, look_all_positions = self._look_positions(robot_id, look_time)
            target, realized, seen = self._decide_move(
                robot_id, look_time, other_positions, activation
            )

            move_start = activation.move_start_time
            move_end = activation.end_time
            origin_row = arrays.position[robot_id].copy()
            self._begin_move(robot_id, origin_row, realized, move_start, move_end)
            activation_end_times[robot_id].append(move_end)
            if move_end <= look_time:
                # A zero-duration move completes at the look instant itself:
                # the observer is already at its destination, so the Look's
                # interpolation (taken before the move began) is stale.
                look_all_positions = None

            if records is not None:
                records.append(activation, origin_row, target, realized, seen)
            processed += 1

            if processed % cfg.record_every == 0:
                # One interpolation pass feeds both the metrics sample and
                # the trajectory recorder.
                sampled_positions = self._sampled_positions(look_time, look_all_positions)
                sample = metrics.observe(look_time, sampled_positions, processed)
                if recorder is not None:
                    recorder.record_all(look_time, sampled_positions)
                if converged_time is None and sample.hull_diameter <= cfg.convergence_epsilon:
                    converged_time = look_time
                    if cfg.stop_at_convergence:
                        break

        # Let every in-flight move finish, then take the final measurement.
        final_time = self._settle_moves()
        final_positions = self._state.committed_positions()
        final_sample = metrics.observe(final_time, final_positions, processed)
        if recorder is not None:
            recorder.record_all(final_time, final_positions)
        if converged_time is None and final_sample.hull_diameter <= cfg.convergence_epsilon:
            converged_time = final_time

        return KernelOutcome(
            metrics=metrics,
            processed=processed,
            activation_end_times=activation_end_times,
            records=records,
            converged_time=converged_time,
            final_time=final_time,
            final_positions=arrays.position.copy(),
            wall_time_seconds=_time.perf_counter() - started,
            recorder=recorder,
        )

    def activation_counts(self) -> Dict[int, int]:
        """Activations begun per robot (read after :meth:`run_kernel`)."""
        return dict(enumerate(self._state.arrays.activation_count.tolist()))
