"""Planar sweep rows read the run's own measurements.

:func:`repro.sweeps.runner.planar_row` takes every measured field from
the :class:`~repro.engine.simulator.SimulationResult`: the t=0 and final
metrics samples and the collector's initial-edge index arrays.  The
oracle here recomputes each field densely, from the Point-based
configurations and ``(n, n)`` distance matrices.  Every field must equal
it exactly, and building a row must not allocate anything quadratic.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import pytest

from repro.engine import replicate as replicate_engine
from repro.engine.convergence import epochs_to_converge
from repro.engine.logs import EndTimeLog
from repro.engine.metrics import METRICS_DENSE_MAX
from repro.engine.simulator import run_simulation
from repro.model.visibility import max_edge_stretch
from repro.sweeps import RunSpec
from repro.sweeps.replicate import ReplicateBundle, execute_bundle
from repro.sweeps.runner import planar_row, planar_setup


def dense_fields(result, epsilon: float) -> dict:
    """The measured row fields, recomputed from the Point configurations."""
    initial = result.initial_configuration
    final = result.final_configuration
    return {
        "initial_diameter": initial.hull_diameter(),
        "final_diameter": final.hull_diameter(),
        "final_min_pairwise": final.min_pairwise_distance(),
        "max_edge_stretch": max_edge_stretch(initial.edges(), list(final.positions)),
        "epochs": epochs_to_converge(
            result.activation_end_times, list(result.metrics.samples), epsilon
        ),
    }


def assert_matches_oracle(spec: RunSpec, result, row: dict) -> None:
    expected = dense_fields(result, spec.epsilon)
    assert {key: row[key] for key in expected} == expected
    assert result.initial_hull_diameter == expected["initial_diameter"]
    assert result.final_hull_diameter == expected["final_diameter"]


def run_spec(spec: RunSpec, **config_changes):
    """One planar run of ``spec`` (with optional config overrides) and its row."""
    configuration, algorithm, scheduler, config = planar_setup(spec)
    config = dataclasses.replace(config, **config_changes)
    result = run_simulation(configuration.positions, algorithm, scheduler, config)
    return result, planar_row(spec, result, 0.0)


class TestDenseOracle:
    @pytest.mark.parametrize(
        "spec",
        [
            RunSpec(
                "kknps", "k-async", "random", 200, seed=3, scheduler_k=2,
                error_model="distance-5-nonrigid", max_activations=600,
            ),
            RunSpec("ando", "fsync", "random", 16, seed=1, max_activations=800),
            RunSpec("kknps", "ssync", "line", 1, seed=0, max_activations=50),
            RunSpec("kknps", "k-async", "line", 2, seed=0, max_activations=200),
        ],
        ids=["kasync-distance-error", "ando-fsync", "n1", "n2"],
    )
    def test_row_fields_equal_the_dense_oracle(self, spec):
        result, row = run_spec(spec)
        assert_matches_oracle(spec, result, row)

    def test_unconverged_row_never_reads_the_end_times(self, monkeypatch):
        """``epochs`` is None before the cycle end times are looked at."""

        def unread(log):
            raise AssertionError("the end-time log was read")

        monkeypatch.setattr(EndTimeLog, "columns", unread)
        spec = RunSpec("kknps", "ssync", "grid", 64, seed=1, max_activations=64)
        result, row = run_spec(spec)
        assert not result.converged and row["epochs"] is None
        assert "activation_end_times" not in vars(result)

    def test_grid_run_past_the_dense_metrics_switch(self):
        spec = RunSpec("kknps", "ssync", "grid", 2100, seed=2, max_activations=4200)
        assert spec.n_robots > METRICS_DENSE_MAX
        result, row = run_spec(spec)
        # Only the grid-local edge index arrays record the initial edges.
        assert not result.metrics.initial_edges
        assert_matches_oracle(spec, result, row)

    def test_run_stopped_at_convergence(self):
        spec = RunSpec("kknps", "ssync", "line", 6, seed=4, max_activations=5000)
        result, row = run_spec(spec)
        assert result.converged
        assert result.activations_processed < spec.max_activations
        assert row["epochs"] is not None
        assert_matches_oracle(spec, result, row)

    def test_crashed_robots(self):
        spec = RunSpec("kknps", "ssync", "random", 20, seed=5, max_activations=1500)
        result, row = run_spec(spec, crashed_robots=(0, 7))
        assert_matches_oracle(spec, result, row)

    @pytest.mark.parametrize(
        "workload, n, budget",
        [("grid", 300, 600), ("random", 24, 4000)],
        ids=["grid-budget-bound", "random-converging"],
    )
    def test_every_lane_of_a_bundle(self, monkeypatch, workload, n, budget):
        members = tuple(
            RunSpec("kknps", "ssync", workload, n, seed=seed, max_activations=budget)
            for seed in range(6)
        )
        lanes = []
        run_lanes = replicate_engine.run_replicated_simulations

        def capture(factories):
            results = run_lanes(factories)
            lanes.extend(results)
            return results

        monkeypatch.setattr(replicate_engine, "run_replicated_simulations", capture)
        rows = execute_bundle(ReplicateBundle(members))
        assert len(lanes) == len(rows) == len(members)
        for spec, result, row in zip(members, lanes, rows):
            assert_matches_oracle(spec, result, row)


def test_row_epilogue_memory_is_not_quadratic():
    """A 3000-robot row allocates O(|E|); one dense float matrix would be 69 MiB."""
    spec = RunSpec("kknps", "ssync", "grid", 3000, seed=0, max_activations=3000)
    configuration, algorithm, scheduler, config = planar_setup(spec)
    result = run_simulation(configuration.positions, algorithm, scheduler, config)
    tracemalloc.start()
    try:
        planar_row(spec, result, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
