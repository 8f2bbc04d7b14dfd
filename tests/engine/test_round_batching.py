"""Pins: the batched round fast path is bit-identical to the per-activation path.

The kernel's round fast path (``ContinuousKernel._process_round``) and the
Simulator's vectorized 2D decider are *performance* paths only — every
float they produce must equal the per-activation reference exactly, RNG
draws included.  These pins run the same simulation with
``round_batching`` on and off and compare full fingerprints: final
positions, every metrics sample, every activation record, activation end
times and counts, per-robot travelled distance, convergence and final
times.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import AndoAlgorithm, KKNPSAlgorithm
from repro.engine import SimulationConfig, Simulator, run_simulation
from repro.engine.metrics import METRICS_DENSE_MAX
from repro.geometry.pairs import VisiblePairs
from repro.model.errors import MotionModel, PerceptionModel
from repro.schedulers import FSyncScheduler, KAsyncScheduler, SSyncScheduler
from repro.workloads import random_connected_configuration, truncated_grid_configuration


def _run(positions, algorithm, scheduler, config):
    """One run, plus the per-robot travelled distances the result leaves out."""
    simulator = Simulator(positions, algorithm, scheduler, config)
    result = simulator.run()
    return result, simulator._arrays.total_distance.copy()


def _pair(algorithm_factory, scheduler_factory, n=40, seed=11, **config_kw):
    """Run fast-path and reference simulations of the same scenario."""
    configuration = random_connected_configuration(n, seed=seed)
    runs = []
    for round_batching in (True, False):
        config_kw["round_batching"] = round_batching
        config_kw.setdefault("seed", seed)
        config_kw.setdefault("max_activations", 160)
        config_kw.setdefault("stop_at_convergence", False)
        runs.append(
            _run(
                configuration.positions,
                algorithm_factory(),
                scheduler_factory(),
                SimulationConfig(**config_kw),
            )
        )
    return runs


def _assert_identical(fast_run, reference_run):
    fast, fast_distance = fast_run
    reference, reference_distance = reference_run
    assert tuple(fast.final_configuration.positions) == tuple(
        reference.final_configuration.positions
    )
    assert fast.metrics.samples == reference.metrics.samples
    assert fast.activations_processed == reference.activations_processed
    assert fast.convergence_time == reference.convergence_time
    assert fast.final_time == reference.final_time
    assert fast.cohesion_maintained == reference.cohesion_maintained
    assert fast.records == reference.records
    assert fast.activation_end_times == reference.activation_end_times
    assert fast.activation_counts == reference.activation_counts
    assert np.array_equal(fast_distance, reference_distance)


SCHEDULERS = (
    ("fsync", FSyncScheduler),
    ("ssync", SSyncScheduler),
)
ALGORITHMS = (
    ("kknps", lambda: KKNPSAlgorithm(k=1)),
    ("ando", AndoAlgorithm),
)


class TestRoundBatchingPins:
    @pytest.mark.parametrize("sched_name,scheduler", SCHEDULERS)
    @pytest.mark.parametrize("algo_name,algorithm", ALGORITHMS)
    @pytest.mark.parametrize("spatial", [True, False])
    def test_exact_models(self, sched_name, scheduler, algo_name, algorithm, spatial):
        fast, reference = _pair(algorithm, scheduler, spatial_index=spatial)
        _assert_identical(fast, reference)

    @pytest.mark.parametrize("sched_name,scheduler", SCHEDULERS)
    def test_error_models(self, sched_name, scheduler):
        """Perception and motion error draw from the same RNG stream."""
        fast, reference = _pair(
            lambda: KKNPSAlgorithm(k=1),
            scheduler,
            perception=PerceptionModel(distance_error=0.05),
            motion=MotionModel(xi=0.6, deviation="linear", coefficient=0.05),
        )
        _assert_identical(fast, reference)

    def test_no_frames_tier_b(self):
        """use_random_frames=False exercises the frame-free vectorized decider."""
        fast, reference = _pair(
            lambda: KKNPSAlgorithm(k=1), SSyncScheduler, use_random_frames=False
        )
        _assert_identical(fast, reference)

    def test_crashes_and_record_every(self):
        fast, reference = _pair(
            AndoAlgorithm,
            SSyncScheduler,
            crashed_robots=(0, 3, 7),
            record_every=5,
        )
        _assert_identical(fast, reference)

    def test_stop_at_convergence(self):
        fast, reference = _pair(
            lambda: KKNPSAlgorithm(k=1),
            FSyncScheduler,
            n=12,
            stop_at_convergence=True,
            convergence_epsilon=0.3,
            max_activations=4000,
        )
        _assert_identical(fast, reference)

    def test_only_round_batches_are_held_whole(self):
        """``round_batching=True`` (the default) holds a scheduler's
        :class:`RoundBatch` whole and heaps any other batch; ``False``
        heaps every batch."""
        positions = random_connected_configuration(12, seed=5).positions
        for scheduler, round_batching, held in (
            (SSyncScheduler(), True, True),
            (FSyncScheduler(), True, True),
            (KAsyncScheduler(k=2), True, False),
            (SSyncScheduler(), False, False),
        ):
            sim = Simulator(
                positions, KKNPSAlgorithm(k=1), scheduler,
                SimulationConfig(round_batching=round_batching),
            )
            scheduler.reset(sim.n_robots, sim.rng)
            assert sim._refill()
            assert (sim._round is not None) is held
            assert bool(sim._pending) is not held

    def test_overlapping_rounds_take_the_per_activation_path(self):
        """A round issued while robots are still mid-move is not batched: its
        activations go through the per-activation path, which reports the
        scheduler bug with the same error either way."""
        configuration = random_connected_configuration(8, seed=2)
        messages = []
        for round_batching in (True, False):
            scheduler = FSyncScheduler()
            scheduler.move_duration = 1.5  # cycles now overlap the next round
            with pytest.raises(RuntimeError) as error:
                run_simulation(
                    configuration.positions,
                    KKNPSAlgorithm(k=1),
                    scheduler,
                    SimulationConfig(round_batching=round_batching, max_activations=40),
                )
            messages.append(str(error.value))
        assert messages[0] == messages[1]
        assert "before its move ended" in messages[0]


class TestWorkloadMatrix:
    """Grid vs dense workloads through the same bit-identity harness."""

    @pytest.mark.parametrize("sched_name,scheduler", SCHEDULERS)
    @pytest.mark.parametrize("error", ["exact", "noisy"])
    def test_grid_workload(self, sched_name, scheduler, error):
        from repro.workloads import truncated_grid_configuration

        configuration = truncated_grid_configuration(36, spacing=0.7)
        config_kw = dict(seed=13, max_activations=160, stop_at_convergence=False)
        if error == "noisy":
            config_kw["perception"] = PerceptionModel(distance_error=0.05)
            config_kw["motion"] = MotionModel(
                xi=0.6, deviation="linear", coefficient=0.05
            )
        results = []
        for round_batching in (True, False):
            results.append(
                _run(
                    configuration.positions,
                    KKNPSAlgorithm(k=1),
                    scheduler(),
                    SimulationConfig(round_batching=round_batching, **config_kw),
                )
            )
        _assert_identical(*results)

    @pytest.mark.parametrize("error", ["exact", "noisy"])
    def test_dense_workload(self, error):
        """A dense cluster (every robot sees most others) through the batch."""
        from repro.workloads import random_connected_configuration

        configuration = random_connected_configuration(
            50, seed=21, attach_radius_fraction=0.25
        )
        config_kw = dict(seed=21, max_activations=150, stop_at_convergence=False)
        if error == "noisy":
            config_kw["perception"] = PerceptionModel(distance_error=0.05)
            config_kw["motion"] = MotionModel(
                xi=0.6, deviation="linear", coefficient=0.05
            )
        results = []
        for round_batching in (True, False):
            results.append(
                _run(
                    configuration.positions,
                    KKNPSAlgorithm(k=1),
                    SSyncScheduler(),
                    SimulationConfig(round_batching=round_batching, **config_kw),
                )
            )
        _assert_identical(*results)

    def test_large_swarm_cap_cuts_a_round(self):
        """Above the dense-metrics threshold, with the activation cap ending
        the run mid-round and several record boundaries per round."""
        configuration = truncated_grid_configuration(2500, spacing=0.7)
        assert len(configuration) > METRICS_DENSE_MAX
        config_kw = dict(
            seed=3, max_activations=3000, record_every=250, stop_at_convergence=False
        )
        results = []
        for round_batching in (True, False):
            results.append(
                _run(
                    configuration.positions,
                    KKNPSAlgorithm(k=1),
                    SSyncScheduler(),
                    SimulationConfig(round_batching=round_batching, **config_kw),
                )
            )
        _assert_identical(*results)
        fast = results[0][0]
        assert fast.activations_processed == 3000
        assert len(fast.metrics.samples) == 3000 // 250 + 2

    def test_dense_rounds_past_the_old_gather_cap_decide_batched(self, monkeypatch):
        """A dense n=2,500 run batches every round (~2,000 activations x 2,499 rows)."""
        configuration = truncated_grid_configuration(2500, spacing=0.7)
        paths = []
        for name in ("_round_decide_batch", "_round_decide_rows"):
            decide = getattr(Simulator, name)
            monkeypatch.setattr(
                Simulator, name,
                lambda *args, name=name, decide=decide: paths.append(name) or decide(*args),
            )
        config_kw = dict(
            seed=6, max_activations=5000, record_every=500, stop_at_convergence=False,
            spatial_index=False,
        )
        results = []
        for round_batching in (True, False):
            results.append(
                _run(
                    configuration.positions,
                    KKNPSAlgorithm(k=1),
                    SSyncScheduler(activation_probability=0.8),
                    SimulationConfig(round_batching=round_batching, **config_kw),
                )
            )
        assert paths.count("_round_decide_batch") == 3
        assert "_round_decide_rows" not in paths
        _assert_identical(*results)


class _AlternatingSSync(SSyncScheduler):
    """SSync whose every other round comes as plain activations, heaped one by one."""

    def next_batch(self, view=None):
        batch = super().next_batch(view)
        self.issued = getattr(self, "issued", 0) + 1
        return list(batch) if self.issued % 2 == 0 else batch


def _record_decides(monkeypatch):
    """The round decide each processed round took, in order."""
    paths = []
    for name in ("_round_decide_batch", "_round_decide_rows"):
        decide = getattr(Simulator, name)
        monkeypatch.setattr(
            Simulator, name,
            lambda *args, name=name, decide=decide: paths.append(name) or decide(*args),
        )
    return paths


class TestCarriedPairs:
    """The run's visible pairs carry across rounds and stay exact."""

    @pytest.mark.parametrize("offset", [1e9, 1e12])
    def test_offset_grid_rounds_equal_dense_and_decide_flat(self, monkeypatch, offset):
        """Far from the origin the grid rounds equal the dense ones, batched."""
        configuration = truncated_grid_configuration(120, spacing=0.7)
        positions = [(p.x + offset, p.y - offset) for p in configuration.positions]
        paths = _record_decides(monkeypatch)
        results = []
        for spatial_index in (True, False):
            results.append(
                _run(
                    positions,
                    KKNPSAlgorithm(k=1),
                    SSyncScheduler(),
                    SimulationConfig(
                        seed=5, max_activations=400, record_every=40,
                        stop_at_convergence=False, spatial_index=spatial_index,
                    ),
                )
            )
        _assert_identical(*results)
        assert paths and set(paths) == {"_round_decide_batch"}
        # Some robots did move, so later rounds re-paired changed rows.
        assert results[0][1].any()

    def test_wide_extent_round_completes_and_equals_dense(self):
        """A 4·10^9 extent at n = 600 (grid on by default) pairs without overflow."""
        positions = [(0.7 * i, 0.0) for i in range(599)] + [(4e9, 4e9)]
        results = []
        for spatial_index in (None, False):
            results.append(
                _run(
                    positions,
                    KKNPSAlgorithm(k=1),
                    SSyncScheduler(),
                    SimulationConfig(
                        seed=2, max_activations=1200, record_every=200,
                        stop_at_convergence=False, spatial_index=spatial_index,
                    ),
                )
            )
        _assert_identical(*results)

    def test_contracted_swarm_holds_no_keys_and_equals_dense(self):
        """A swarm inside one visibility range holds no pair keys, and stays exact."""
        rng = np.random.default_rng(4)
        radius = 0.45 * np.sqrt(rng.random(1100))
        angle = 2.0 * np.pi * rng.random(1100)
        positions = np.column_stack((radius * np.cos(angle), radius * np.sin(angle)))
        results = []
        for spatial_index in (True, False):
            config = SimulationConfig(
                seed=4, max_activations=1200, record_every=300,
                stop_at_convergence=False, spatial_index=spatial_index,
            )
            sim = Simulator(positions, KKNPSAlgorithm(k=1), SSyncScheduler(), config)
            if spatial_index:
                pairs = sim._round_pairs(sim._arrays.position)
                assert pairs.grid is not None and not len(pairs.forward)
            results.append((sim.run(), sim._arrays.total_distance.copy()))
        _assert_identical(*results)

    def test_kernel_pairs_follow_rows_no_round_moved(self):
        """The carried pairs follow the committed rows, whatever moved them.

        A heaped activation's move or a replicate lane's own round
        changes committed rows that no batched round committed; the next
        refresh must still equal a fresh enumeration.
        """
        configuration = truncated_grid_configuration(64, spacing=0.7)
        sim = Simulator(
            configuration.positions, KKNPSAlgorithm(k=1), SSyncScheduler(),
            SimulationConfig(spatial_index=True),
        )
        committed = sim._arrays.position
        before = sim._round_pairs(committed).forward.copy()
        committed[5] += (0.7, 0.35)
        committed[8, 0] = -committed[8, 0]  # 0.0 -> -0.0: a bit change only
        carried = sim._round_pairs(committed)
        fresh = VisiblePairs(*sim._pair_rule()).refresh(committed)
        assert not np.array_equal(before, fresh.forward)
        assert np.array_equal(carried.forward, fresh.forward)
        assert np.array_equal(carried.backward, fresh.backward)
        assert np.array_equal(carried.rows.view(np.uint64), committed.view(np.uint64))

    def test_heaped_rounds_between_batched_ones_resync_the_pairs(self, monkeypatch):
        """Moves begun by heaped activations change rows no round committed."""
        configuration = truncated_grid_configuration(64, spacing=0.7)
        paths = _record_decides(monkeypatch)
        results = []
        for round_batching, spatial_index in ((True, True), (False, False)):
            results.append(
                _run(
                    configuration.positions,
                    KKNPSAlgorithm(k=1),
                    _AlternatingSSync(),
                    SimulationConfig(
                        seed=9, max_activations=600, stop_at_convergence=False,
                        round_batching=round_batching, spatial_index=spatial_index,
                    ),
                )
            )
        _assert_identical(*results)
        assert paths.count("_round_decide_batch") >= 3
