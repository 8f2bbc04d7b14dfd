"""Pins: the replicate-batched engine is bit-identical to serial runs.

``run_replicated_simulations`` advances a bundle of seed-replicate lanes
through one committed tensor, one shared grid and one batched decide
pass per round — but every float it produces must equal what
``Simulator(*factory()).run()`` computes lane by lane, RNG draws
included.  These pins run both sides over a matrix of schedulers, error
models, crash injections and recording cadences and compare full result
fingerprints.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import AndoAlgorithm, KKNPSAlgorithm
from repro.algorithms.kknps import kknps_destinations_all
from repro.engine import SimulationConfig, Simulator
from repro.engine.replicate import _group_key, _prepare_lane, run_replicated_simulations
from repro.geometry.transforms import SymmetricDistortion
from repro.model.errors import MotionModel, PerceptionModel
from repro.model.snapshot import Snapshot
from repro.schedulers import FSyncScheduler, KAsyncScheduler, SSyncScheduler
from repro.workloads import random_connected_configuration

ERROR_MODELS = {
    "exact": lambda: (PerceptionModel.exact(), MotionModel.rigid()),
    "distance-5": lambda: (PerceptionModel(distance_error=0.05), MotionModel.rigid()),
    "nonrigid-50": lambda: (PerceptionModel.exact(), MotionModel(xi=0.5)),
}


def _factory(n, seed, scheduler_factory=SSyncScheduler, error_model="exact", **config_kw):
    """A lane factory for one (workload seed == RNG seed) scenario."""

    def factory():
        configuration = random_connected_configuration(n, seed=seed)
        perception, motion = ERROR_MODELS[error_model]()
        config = SimulationConfig(
            visibility_range=configuration.visibility_range,
            perception=perception,
            motion=motion,
            seed=seed,
            **config_kw,
        )
        return configuration.positions, KKNPSAlgorithm(), scheduler_factory(), config

    return factory


def _assert_identical(serial, batched):
    """Full-fingerprint equality, field by field for a clear failure."""
    assert batched.activations_processed == serial.activations_processed
    assert tuple(batched.final_configuration.positions) == tuple(
        serial.final_configuration.positions
    )
    assert batched.metrics.samples == serial.metrics.samples
    assert batched.records == serial.records
    assert batched.activation_end_times == serial.activation_end_times
    assert batched.converged == serial.converged
    assert batched.convergence_time == serial.convergence_time
    assert batched.cohesion_maintained == serial.cohesion_maintained
    assert batched.final_time == serial.final_time


def _run_both(factories):
    serial = [Simulator(*factory()).run() for factory in factories]
    batched = run_replicated_simulations(factories)
    assert len(batched) == len(serial)
    for a, b in zip(serial, batched):
        _assert_identical(a, b)
    return serial, batched


class TestBitEqualityMatrix:
    @pytest.mark.parametrize("scheduler_name,scheduler_factory",
                             [("fsync", FSyncScheduler), ("ssync", SSyncScheduler)])
    @pytest.mark.parametrize("error_model", sorted(ERROR_MODELS))
    @pytest.mark.parametrize("record_every", [1, 7])
    def test_matrix(self, scheduler_name, scheduler_factory, error_model, record_every):
        _run_both(
            [
                _factory(
                    12,
                    seed,
                    scheduler_factory=scheduler_factory,
                    error_model=error_model,
                    max_activations=120,
                    stop_at_convergence=False,
                    record_every=record_every,
                )
                for seed in range(3)
            ]
        )

    @pytest.mark.parametrize("scheduler_factory", [FSyncScheduler, SSyncScheduler])
    def test_crash_injection(self, scheduler_factory):
        """Crashed robots push lanes onto the per-lane observe path."""
        _run_both(
            [
                _factory(
                    10,
                    seed,
                    scheduler_factory=scheduler_factory,
                    max_activations=90,
                    stop_at_convergence=False,
                    crashed_robots=(0, 3),
                )
                for seed in range(3)
            ]
        )

    def test_crashed_and_healthy_lanes_mix(self):
        """A bundle mixing crash-bearing and crash-free lanes stays exact."""
        factories = [
            _factory(10, 0, max_activations=90, stop_at_convergence=False),
            _factory(10, 1, max_activations=90, stop_at_convergence=False,
                     crashed_robots=(2,)),
            _factory(10, 2, max_activations=90, stop_at_convergence=False),
        ]
        _run_both(factories)


class TestBundleShapes:
    def test_mixed_bundle_sizes(self):
        """Lanes of different n group separately but still run in one call."""
        factories = [
            _factory(n, seed, max_activations=80, stop_at_convergence=False)
            for n, seed in [(6, 0), (6, 1), (11, 2), (11, 3), (11, 4), (4, 5)]
        ]
        _run_both(factories)

    def test_mid_bundle_convergence_dropout(self):
        """Lanes converging at different rounds drop out without skewing peers."""
        factories = [
            _factory(8, seed, max_activations=4000, convergence_epsilon=0.3,
                     stop_at_convergence=True)
            for seed in range(5)
        ]
        serial, _ = _run_both(factories)
        converged = [r for r in serial if r.converged]
        assert len(converged) >= 2, "scenario must actually converge to test dropout"
        times = {r.convergence_time for r in converged}
        assert len(times) >= 2, "lanes must drop out at different times"

    def test_single_lane_bundle(self):
        _run_both([_factory(9, 0, max_activations=60, stop_at_convergence=False)])

    def test_vector_ineligible_lane_falls_back(self):
        """A continuous-time lane runs via the serial fallback, bit-identical."""
        factories = [
            _factory(8, 0, max_activations=60, stop_at_convergence=False),
            _factory(8, 1, scheduler_factory=lambda: KAsyncScheduler(k=2),
                     max_activations=60, stop_at_convergence=False),
            _factory(8, 2, max_activations=60, stop_at_convergence=False),
        ]
        _run_both(factories)



class TestGroupKey:
    """Lanes group by every value the flat round decide reads, and only those."""

    @staticmethod
    def _sim(n=10, seed=0, algorithm=None, **config_kw):
        configuration = random_connected_configuration(n, seed=seed)
        config_kw.setdefault("visibility_range", configuration.visibility_range)
        config = SimulationConfig(seed=seed, **config_kw)
        return Simulator(
            configuration.positions,
            algorithm if algorithm is not None else KKNPSAlgorithm(),
            SSyncScheduler(),
            config,
        )

    def test_seed_replicates_share_a_key(self):
        assert _group_key(self._sim(seed=0)) == _group_key(self._sim(seed=1))

    def test_equal_models_built_apart_share_a_key(self):
        """Frozen dataclasses compare field by field, not by identity."""

        def perception():
            return PerceptionModel(
                distance_error=0.05,
                bias="over",
                distortion=SymmetricDistortion(amplitude=0.1, frequency=2),
            )

        first = self._sim(seed=0, perception=perception(), motion=MotionModel(xi=0.5))
        second = self._sim(seed=1, perception=perception(), motion=MotionModel(xi=0.5))
        assert first.config.perception is not second.config.perception
        assert _group_key(first) == _group_key(second)

    @pytest.mark.parametrize("variant", [
        pytest.param({"n": 11}, id="n"),
        pytest.param({"visibility_range": 1.25}, id="visibility-range"),
        pytest.param({"perception": PerceptionModel(distance_error=0.05, bias="under")},
                     id="perception"),
        pytest.param({"use_random_frames": False}, id="frames"),
        pytest.param({"allow_reflection": False}, id="reflection"),
        pytest.param({"motion": MotionModel(xi=0.5)}, id="xi"),
        pytest.param({"algorithm": KKNPSAlgorithm(k=2)}, id="kknps-constants"),
    ])
    def test_each_read_value_splits_the_group(self, variant):
        base = {"visibility_range": 1.0, "use_random_frames": True,
                "allow_reflection": True}
        assert _group_key(self._sim(seed=1, **{**base, **variant})) != _group_key(
            self._sim(seed=0, **base)
        )

    def test_eligible_lane_joins_its_group(self):
        sim = self._sim(seed=3)
        assert _prepare_lane(sim).group == _group_key(sim)

    @pytest.mark.parametrize("variant", [
        pytest.param({"algorithm": AndoAlgorithm()}, id="ando"),
        pytest.param({"perception": PerceptionModel(distance_error=0.05)},
                     id="random-distance-error"),
        pytest.param({"motion": MotionModel(deviation="linear", coefficient=0.05)},
                     id="deviating-motion"),
        pytest.param({"record_trajectories": True}, id="trajectory-recorder"),
        pytest.param({"multiplicity_detection": True}, id="multiplicity-detection"),
    ])
    def test_ineligible_lane_has_no_group(self, variant):
        """Lanes the flat decide cannot reproduce take the per-lane round path."""
        assert _prepare_lane(self._sim(seed=3, **variant)).group is None


#: KKNPS rules without and with a distance-error tolerance.
RULES = [KKNPSAlgorithm(), KKNPSAlgorithm(distance_error_tolerance=0.05)]


def _flat(activations):
    """Flat ``px, py, starts, ends`` of per-activation ``[(x, y), ...]`` rows."""
    counts = np.asarray([len(rows) for rows in activations], dtype=np.int64)
    flat = [row for rows in activations for row in rows]
    px = np.asarray([x for x, _ in flat], dtype=np.float64)
    py = np.asarray([y for _, y in flat], dtype=np.float64)
    ends = np.cumsum(counts)
    return px, py, ends - counts, ends


def _per_snapshot(algorithm, px, py, starts, ends):
    """Each activation's destination from ``algorithm.compute`` on its own snapshot."""
    out = np.zeros((len(starts), 2), dtype=np.float64)
    for a, (s, e) in enumerate(zip(starts.tolist(), ends.tolist())):
        destination = algorithm.compute(Snapshot(rows=np.column_stack((px[s:e], py[s:e]))))
        out[a] = (destination.x, destination.y)
    return out


class TestDestinationsAllEquivalence:
    """The batched decide core equals the per-snapshot rule bitwise."""

    def _assert_matches_rule(self, algorithm, px, py, starts, ends):
        batched = kknps_destinations_all(px, py, starts, ends, algorithm.decide_consts())
        assert batched.tobytes() == _per_snapshot(algorithm, px, py, starts, ends).tobytes()
        return batched

    def _random_case(self, rng, acts):
        counts = rng.integers(0, 7, size=acts)
        rows = int(counts.sum())
        px = rng.uniform(-1.0, 1.0, size=rows)
        py = rng.uniform(-1.0, 1.0, size=rows)
        ends = np.cumsum(counts).astype(np.int64)
        starts = ends - counts
        return px, py, starts, ends

    @pytest.mark.parametrize("trial", range(5))
    def test_random_rows(self, trial):
        rng = np.random.default_rng(100 + trial)
        px, py, starts, ends = self._random_case(rng, 64)
        for algorithm in RULES:
            self._assert_matches_rule(algorithm, px, py, starts, ends)

    def test_edge_rows(self):
        """Empty activations, collapsed norms, surrounded robots, clusters."""
        px, py, starts, ends = _flat([
            # Empty activation.
            [],
            # All neighbours at (numerically) zero distance: v_y <= EPS.
            [(0.0, 0.0), (1e-12, 0.0)],
            # Surrounded: four distant directions spanning more than a half-plane.
            [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)],
            # A cluster: every row clears the distant threshold.
            [(0.1, 0.05), (0.12, 0.0), (0.09, -0.02)],
            # Single distant direction.
            [(0.9, 0.1), (0.01, 0.01)],
        ])
        destinations = self._assert_matches_rule(RULES[0], px, py, starts, ends)
        # The surrounded and collapsed activations stay put, the others move.
        assert destinations[1].tolist() == [0.0, 0.0]
        assert destinations[2].tolist() == [0.0, 0.0]
        assert destinations[4].tolist() != [0.0, 0.0]

    def test_no_distant_row_promotes_the_farthest(self):
        """A ``V_Y`` so tiny that no row clears ``close_fraction * V_Y + EPS``."""
        px, py, starts, ends = _flat([
            # The farthest row (9e-9, 0) is distant by definition: a move of V_Y / 8.
            [(9e-9, 0.0), (0.0, 5e-9)],
            # Tied farthest rows: the first one is promoted.
            [(0.0, -5e-9), (9e-9, 0.0), (0.0, 9e-9)],
        ])
        destinations = self._assert_matches_rule(
            KKNPSAlgorithm(close_fraction=0.9), px, py, starts, ends
        )
        assert destinations.tolist() == [[1.125e-9, 0.0], [1.125e-9, 0.0]]
        # At close_fraction 0.5 a tiny pair promotes its farthest row too,
        # but the safe-region radius V_Y / 8 falls below EPS: it stays put.
        px, py, starts, ends = _flat([[(1.5e-9, 0.0), (0.0, 1.2e-9)]])
        destinations = self._assert_matches_rule(RULES[0], px, py, starts, ends)
        assert destinations.tolist() == [[0.0, 0.0]]

    def test_trailing_empty_activations(self):
        """An activation followed only by empty ones still reads its last row."""
        px, py, starts, ends = _flat([
            [(0.3, 0.1)],
            [(0.1, 0.0), (0.2, 0.3), (0.9, 0.1)],
            [],
            [],
        ])
        destinations = self._assert_matches_rule(RULES[0], px, py, starts, ends)
        assert destinations[1].tolist() == pytest.approx([0.1125, 0.0125])
