"""The dimension-generic continuous-time simulation kernel.

This module owns the event-driven activation pipeline that both engines
share: scheduler batches feeding a global ``look_time``-ordered heap,
instantaneous Looks over interpolated ``(n, d)`` kinematic state, phase
transitions on the structure-of-arrays store, metrics sampling cadence,
and the convergence / horizon stopping rules.  Nothing in here knows the
spatial dimension: every position is a row of a
:class:`~repro.model.robot.KinematicArrays` store and every transition
is a row-level operation.  A heaped activation's Look reads the dense
interpolation of every robot at its instant, which the same instant's
metrics sample reuses.

What *does* depend on the dimension is factored into a handful of hooks a
subclass provides:

* :meth:`ContinuousKernel._decide_move` — the Look/Compute core: build
  the perceived snapshot from the candidate positions (private frame,
  perception error), run the destination rule, realise the move.  The
  planar :class:`~repro.engine.simulator.Simulator` implements it with
  :func:`~repro.model.snapshot.build_snapshot` and 2D ``LocalFrame``
  transforms; the 3D engines implement it with rotation matrices and
  :meth:`~repro.spatial3d.kknps3.KKNPS3Algorithm.compute_array`.
* :meth:`ContinuousKernel._make_record_log` — per-activation records (the
  planar engine keeps a columnar :class:`~repro.engine.logs.RecordLog`
  of Point-typed :class:`ActivationRecord` views; the 3D engines skip
  records entirely).

Metrics need no hook: every engine samples through one
:class:`~repro.engine.metrics.MetricsCollector` over ``(n, d)`` rows
(:meth:`ContinuousKernel._make_metrics`; the 3D round adapter returns
the collector its scheduler samples each round into).  The kernel takes
the full samples (``observe(..., full=True)``) at t=0 and at the end of
a run, and a step sample at every ``record_every`` boundary.

Because the pipeline itself lives here once, the full scheduler family
(fsync, ssync, k-NestA, k-Async, scripted) drives runs in any dimension;
schedulers only ever see :class:`Activation` batches and the read-only
engine view, both dimension-free.

A run is a :class:`KernelRun` advanced by the kernel's steps — begin,
next whole round, sample a round, process a round, step one heaped
activation, loop, end.  :meth:`run_kernel` chains them; the replicate
engine (:mod:`repro.engine.replicate`) drives many runs through them.

A round-structured scheduler issues each round as a
:class:`~repro.model.types.RoundBatch` — robot ids and progress fractions
as arrays, one shared look instant and phase durations.  On the batched
round path the kernel holds that batch whole instead of heaping its
activations: the round's decisions come back as row arrays, one
index-array transition on the kinematic store begins every move, and the
round's records and metrics samples are appended as columns.  From
:data:`~repro.engine.spatial_index.GRID_MIN_ROBOTS` robots on, every
round's Looks read one :class:`~repro.geometry.pairs.VisiblePairs` the
kernel keeps for the whole run: each round refreshes it against the
committed rows, which re-pairs only the rows whose bits changed since
the last refresh (under KKNPS a surrounded robot stays put, so most
rounds change a handful), and both the flat and the per-robot round
decides read it a chunk of the round's robots at a time.

The required configuration attributes (duck-typed; satisfied by
``SimulationConfig`` and the 3D config types) are: ``visibility_range``,
``seed``, ``max_activations``, ``max_time``, ``convergence_epsilon``,
``stop_at_convergence``, ``record_every`` and ``crashed_robots``; an
optional ``round_batching`` (default True) set False heaps every round,
the per-activation reference path.
"""

from __future__ import annotations

import heapq
import math
import time as _time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..geometry.pairs import VisiblePairs
from ..model.robot import PHASE_MOVING, KinematicArrays
from ..model.types import Activation, RoundBatch
from ..schedulers.base import Scheduler
from .logs import EndTimeLog, RecordLog
from .metrics import MetricsCollector
from . import spatial_index

#: What one Look/Compute/Move decision produced: the target the algorithm
#: chose and the endpoint the motion model realises (global coordinate
#: rows), and how many neighbours the Look saw.
Decision = Tuple[object, object, int]


@dataclass(eq=False)
class KernelRun:
    """One run's state between the kernel's steps, in dimension-free form.

    :meth:`ContinuousKernel._begin_run` creates it, the round and
    activation steps advance it, :meth:`ContinuousKernel._end_run` ends it.
    """

    metrics: object
    recorder: Optional[object]
    records: Optional[RecordLog]
    end_times: EndTimeLog
    started: float
    processed: int = 0
    popped: int = 0
    converged_time: Optional[float] = None
    #: Set by the first stopping rule that fires; no step runs after it.
    stopped: bool = False
    final_time: float = 0.0
    final_positions: Optional[np.ndarray] = None
    wall_time_seconds: float = 0.0


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
    consecutive multiples of ``record_every`` in ``processed``, read off
    one cumulative sum over the round's live (not crashed) rows.
    """
    count = len(batch)
    alive = ~crashed[batch.robot_ids]
    live = np.cumsum(alive)
    stop = min(count, max(0, 100 * max_activations - popped))
    room = max_activations - processed
    stop = 0 if room <= 0 else min(stop, int(np.searchsorted(live, room)) + 1)
    done = int(live[stop - 1]) if stop else 0
    executed = batch if done == count else batch.take(np.flatnonzero(alive[:stop]))
    boundaries = (processed + done) // record_every - processed // record_every
    first = None
    if boundaries:
        k = (processed // record_every + 1) * record_every - processed
        row = int(np.searchsorted(live, k))
        first = (k, processed + k, popped + row + 1)
    return executed, first, boundaries, processed + done, popped + stop


def _round_candidates(
    committed: np.ndarray, pairs: Optional[VisiblePairs], robot_ids: np.ndarray
) -> Iterator[np.ndarray]:
    """Each robot's candidate rows for a round's Looks, in ``robot_ids`` order.

    With ``pairs``, the committed rows of its visible ids; else every
    other robot's row.
    """
    if pairs is None:
        for robot_id in robot_ids.tolist():
            yield np.delete(committed, robot_id, axis=0)
        return
    for _, _, ids, counts in pairs.chunks(robot_ids):
        rows = committed[ids]
        start = 0
        for end in np.cumsum(counts).tolist():
            yield rows[start:end]
            start = end


class ContinuousKernel:
    """The shared continuous-time activation pipeline over ``(n, d)`` state.

    The kernel owns the swarm's :class:`~repro.model.robot.KinematicArrays`
    store: every hot query of the loop (interpolating all robots at a
    Look instant, finding the moves that ended before the current event)
    is one numpy expression over its contiguous rows.
    """

    def __init__(
        self,
        arrays: KinematicArrays,
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
        self._arrays = arrays
        for crashed_id in getattr(config, "crashed_robots", ()):
            arrays.crash_at(crashed_id)
        self._time = 0.0
        self._pending: List[tuple] = []
        #: The scheduler's latest round, held whole for the batched round
        #: path (only ever set while the heap is empty).
        self._round: Optional[RoundBatch] = None
        self._sequence = 0
        #: Whether a :class:`RoundBatch` is held whole (only fsync, ssync
        #: and the 3D round adapter issue one); False heaps every round.
        self._round_batching = getattr(config, "round_batching", True)
        #: The run's visible pairs, built by the first gridded round.
        self._pairs: Optional[VisiblePairs] = None

    # -- EngineView protocol --------------------------------------------------------
    @property
    def time(self) -> float:
        """Current global simulation time."""
        return self._time

    @property
    def n_robots(self) -> int:
        """Number of robots in the run."""
        return self._arrays.n

    @property
    def dim(self) -> int:
        """Spatial dimension of the run."""
        return self._arrays.dim

    def positions_array(self, at_time: Optional[float] = None) -> np.ndarray:
        """Positions of all robots at ``at_time`` as an ``(n, d)`` float array.

        All in-flight moves are interpolated in one numpy expression.
        """
        t = self._time if at_time is None else at_time
        return self._arrays.positions_at(t)

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

    def _make_metrics(self) -> MetricsCollector:
        """The metrics collector for this run (a seam for benchmark baselines)."""
        return MetricsCollector(visibility_range=self.config.visibility_range)

    def _bind_metrics(self, metrics: MetricsCollector) -> None:
        """Bind the collector to the initial configuration (cohesion baseline)."""
        metrics.bind_initial(self._arrays.position)

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

    def _pair_rule(self):
        """``(reach, keeps)``: the front end's Look filter as a pair predicate.

        ``keeps`` takes the per-axis components of ``p_j - p_i`` and must
        keep exactly the pairs the front end's own Look keeps, with a
        verdict that ignores signs; ``reach`` bounds every distance it
        keeps (subclasses implement).
        """
        raise NotImplementedError

    def _sampled_positions(self, look_time: float, look_all_positions):
        """Positions fed to the metrics sample of ``look_time``.

        The dense Look's full interpolation of the same instant is reused
        outright (beginning the observer's move cannot change its position
        at its own look time); otherwise one fresh interpolation pass runs.
        """
        if look_all_positions is not None:
            return look_all_positions
        return self.positions_array(look_time)

    # -- batched round fast path ---------------------------------------------------------
    def _round_pairs(self, committed: np.ndarray) -> Optional[VisiblePairs]:
        """The visible pairs of the committed rows, or None for a dense round.

        The pairs need a finite, positive visibility range and at least
        :data:`~repro.engine.spatial_index.GRID_MIN_ROBOTS` robots.  The
        run keeps one :class:`~repro.geometry.pairs.VisiblePairs`,
        under the front end's :meth:`_pair_rule`, and refreshes it here
        against the rows themselves, not against the moves the kernel
        began: a crash, heaped activations between rounds or a replicate
        lane's own round cannot leave it stale.
        """
        effective = self._effective_range()
        if not (math.isfinite(effective) and effective > 0.0):
            return None
        if self.n_robots < spatial_index.GRID_MIN_ROBOTS:
            return None
        if self._pairs is None:
            self._pairs = VisiblePairs(*self._pair_rule())
        return self._pairs.refresh(committed)

    def _round_decide_rows(
        self, look_time: float, committed: np.ndarray, pairs, executed: RoundBatch
    ):
        """One round's decides, robot by robot, gathered into row arrays.

        Each routes through :meth:`_decide_move`, the decide every heaped
        activation runs.  The candidate rows are the committed positions
        themselves (every robot is idle at its committed position at the
        round's look instant): with ``pairs`` on, exactly the rows the
        observer sees, read for the round's robots a chunk at a time
        (:meth:`~repro.geometry.pairs.VisiblePairs.chunks`), in ascending
        id order and without the observer — the rows the front end's own
        Look filter keeps from a dense pool, so that filter keeps every
        one of them and the snapshot is unchanged; else every other robot.
        """
        acts = len(executed)
        target = np.empty((acts, self.dim), dtype=np.float64)
        realized = np.empty((acts, self.dim), dtype=np.float64)
        seen = np.empty(acts, dtype=np.int64)
        candidates = _round_candidates(committed, pairs, executed.robot_ids)
        for k, (activation, other) in enumerate(zip(executed, candidates)):
            target[k], realized[k], seen[k] = self._decide_move(
                activation.robot_id, look_time, other, activation
            )
        return target, realized, seen

    def _round_batch_ready(self, committed: np.ndarray) -> bool:
        """Whether this round's decides may run as one whole-round batch call.

        The base kernel has no batched decide; dimension front ends that
        implement :meth:`_round_decide_batch` override this with their
        eligibility rule (algorithm core, draw-free perception and motion,
        coincidence-collapse guard).  Returning False keeps the round on
        the per-robot :meth:`_round_decide_rows` path.
        """
        return False

    def _round_decide_batch(
        self, look_time: float, committed: np.ndarray, pairs, executed: RoundBatch
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
        run: KernelRun,
    ) -> None:
        """Begin every executed move with one index-array transition, then log the round."""
        arrays = self._arrays
        ids = executed.robot_ids
        arrays.begin_moves(ids, realized, executed.move_start_time, executed.end_time)
        run.end_times.extend_round(ids, executed.end_time)
        if run.records is not None:
            run.records.extend_round(
                executed, arrays.position[ids], target, realized, neighbours_seen
            )

    def _sample_round(
        self, batch: RoundBatch, run: KernelRun, observe=None
    ) -> RoundBatch:
        """Replay one round's counters and take its samples; returns what executes.

        The per-activation loop's counters are replayed without touching
        any state (:func:`replay_round`): which activations execute and
        where the record boundaries fall.  Every boundary of a round
        observes the same committed geometry — positions committed before
        the round stay committed throughout it (beginning a move never
        writes ``position``) — and sampling draws no RNG, so the round's
        samples and the convergence decision are taken *before* its
        decides.  A convergence stop truncates the round exactly where the
        per-activation loop would have broken: the skipped activations
        never decide, so their draws never happen and the RNG stream
        matches byte for byte.  Boundaries after the first repeat its
        sample (:meth:`~repro.engine.metrics.SampleLog.repeat_last`: only
        ``activations_processed`` differs).  ``observe`` stands in for
        ``run.metrics.observe`` at the first boundary (the replicate lanes
        pass their batched sampler).
        """
        cfg = self.config
        arrays = self._arrays
        look_time = batch.look_time
        committed = arrays.position
        executed, first, boundaries, run.processed, run.popped = replay_round(
            batch, arrays.crashed, run.processed, run.popped,
            cfg.max_activations, cfg.record_every,
        )
        if first is None:
            return executed
        metrics = run.metrics
        recorder = run.recorder
        sample = (observe or metrics.observe)(look_time, committed, first[1])
        if recorder is not None:
            recorder.record_all(look_time, committed)
        if run.converged_time is None and sample.hull_diameter <= cfg.convergence_epsilon:
            run.converged_time = look_time
            if cfg.stop_at_convergence:
                run.stopped = True
                n_executed, run.processed, run.popped = first
                return executed.take(slice(0, n_executed))
        if boundaries > 1:
            repeats = boundaries - 1
            metrics.samples.repeat_last(repeats, cfg.record_every)
            if recorder is not None:
                for _ in range(repeats):
                    recorder.record_all(look_time, committed)
        return executed

    def _process_round(self, batch: RoundBatch, run: KernelRun) -> None:
        """Advance one whole round against the committed rows.

        :meth:`_sample_round` takes the round's samples and says which
        activations execute; those are decided as one batch when the
        front end allows it (else robot by robot, in order) and committed
        by :meth:`_commit_round`.
        """
        executed = self._sample_round(batch, run)
        if not len(executed):
            return
        committed = self._arrays.position
        pairs = self._round_pairs(committed)
        if self._round_batch_ready(committed):
            decide = self._round_decide_batch
        else:
            decide = self._round_decide_rows
        target, realized, seen = decide(batch.look_time, committed, pairs, executed)
        self._commit_round(executed, target, realized, seen, run)

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
        arrays = self._arrays
        self._time = batch.look_time
        arrays.finish_moves(arrays.completed_movers(batch.look_time))
        return not arrays.any_moving()

    def _settle_moves(self) -> float:
        """Let every in-flight move finish; returns the final time."""
        arrays = self._arrays
        moving = np.flatnonzero(arrays.phase == PHASE_MOVING)
        if len(moving):
            self._time = max(self._time, float(arrays.move_end[moving].max()))
            arrays.finish_moves(moving)
        return self._time

    def _look_positions(self, robot_id: int, look_time: float):
        """What the observing robot can be shown: candidate positions for its Look.

        Returns ``(others, all_positions)``: every other robot's position
        interpolated at ``look_time`` as an ``(n - 1, d)`` array (the
        Look's distance filter picks the visible ones), and the full
        ``(n, d)`` interpolation it was cut from, which the metrics sample
        of the same instant reuses.
        """
        all_positions = self._arrays.positions_at(look_time)
        return np.delete(all_positions, robot_id, axis=0), all_positions

    # -- the run, step by step -----------------------------------------------------------
    def _begin_run(self, metrics=None) -> KernelRun:
        """Set a run up: bind the metrics, reset the scheduler, take the full t=0 sample.

        ``metrics`` may come in already bound to the initial positions and
        holding its t=0 sample (the replicate lanes share both among
        byte-identical starts); neither step draws RNG, so skipping them
        here leaves the run unchanged.
        """
        started = _time.perf_counter()
        fresh = metrics is None
        if fresh:
            metrics = self._make_metrics()
            self._bind_metrics(metrics)
        recorder = self._make_recorder()
        if recorder is not None:
            recorder.record_all(0.0, self._sampled_positions(0.0, None))
        self.scheduler.reset(self.n_robots, self.rng)
        run = KernelRun(
            metrics, recorder, self._make_record_log(), EndTimeLog(self.n_robots), started
        )
        if fresh:
            metrics.observe(0.0, self._sampled_positions(0.0, None), 0, full=True)
        return run

    def _next_round(self, run: KernelRun) -> Optional[RoundBatch]:
        """The run's next step when it is a whole round, else None.

        Applies the loop's stopping rules first — the activation and pop
        caps, an exhausted scheduler, a round past the horizon — and sets
        ``run.stopped`` when one fires.  Otherwise None means the next step
        is a heaped activation: the scheduler issued a plain batch, or a
        robot is still mid-move at the round's look instant (the round is
        heaped, so the per-activation step interpolates its Looks).
        """
        cfg = self.config
        if (
            run.stopped
            or run.processed >= cfg.max_activations
            or run.popped >= 100 * cfg.max_activations
            or (self._round is None and not self._pending and not self._refill())
        ):
            run.stopped = True
            return None
        batch, self._round = self._round, None
        if batch is None:
            return None
        if batch.look_time > cfg.max_time:
            run.stopped = True
            return None
        if self._open_round(batch):
            return batch
        for activation in batch:
            self._push(activation)
        return None

    def _step_activation(self, run: KernelRun) -> None:
        """Pop the earliest heaped activation and run its Look/Compute/Move."""
        cfg = self.config
        arrays = self._arrays
        look_time, _, activation = heapq.heappop(self._pending)
        run.popped += 1
        if look_time > cfg.max_time:
            run.stopped = True
            return
        self._time = look_time
        robot_id = activation.robot_id
        arrays.finish_moves(arrays.completed_movers(look_time))
        if arrays.crashed[robot_id]:
            return
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
        arrays.begin_move_at(robot_id, origin_row, realized, move_start, move_end)
        run.end_times.append(robot_id, move_end)
        if move_end <= look_time:
            # A zero-duration move completes at the look instant itself:
            # the observer is already at its destination, so the Look's
            # interpolation (taken before the move began) is stale.
            look_all_positions = None

        if run.records is not None:
            run.records.append(activation, origin_row, target, realized, seen)
        run.processed += 1

        if run.processed % cfg.record_every == 0:
            # One interpolation pass feeds both the metrics sample and
            # the trajectory recorder.
            sampled_positions = self._sampled_positions(look_time, look_all_positions)
            sample = run.metrics.observe(look_time, sampled_positions, run.processed)
            if run.recorder is not None:
                run.recorder.record_all(look_time, sampled_positions)
            if run.converged_time is None and sample.hull_diameter <= cfg.convergence_epsilon:
                run.converged_time = look_time
                if cfg.stop_at_convergence:
                    run.stopped = True

    def _run_loop(self, run: KernelRun) -> None:
        """Advance the run, round or activation at a time, until it stops."""
        while not run.stopped:
            batch = self._next_round(run)
            if batch is not None:
                self._process_round(batch, run)
            elif not run.stopped:
                self._step_activation(run)

    def _end_run(self, run: KernelRun, observe=None) -> KernelRun:
        """Let every in-flight move finish, then take the final full sample.

        ``observe`` stands in for ``run.metrics.observe``, as in
        :meth:`_sample_round`.  No round follows, so the run's visible
        pairs are released before the sample.
        """
        self._pairs = None
        final_time = self._settle_moves()
        final_positions = self._arrays.position
        sample = (observe or run.metrics.observe)(
            final_time, final_positions, run.processed, full=True
        )
        if run.recorder is not None:
            run.recorder.record_all(final_time, final_positions)
        if (
            run.converged_time is None
            and sample.hull_diameter <= self.config.convergence_epsilon
        ):
            run.converged_time = final_time
        run.final_time = final_time
        run.final_positions = final_positions.copy()
        run.wall_time_seconds = _time.perf_counter() - run.started
        return run

    def run_kernel(self) -> KernelRun:
        """Execute the continuous-time pipeline and return the finished run."""
        run = self._begin_run()
        self._run_loop(run)
        return self._end_run(run)

    def activation_counts(self) -> Dict[int, int]:
        """Activations begun per robot (read after :meth:`run_kernel`)."""
        return dict(enumerate(self._arrays.activation_count.tolist()))
