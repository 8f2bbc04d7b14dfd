"""Tests for 3D runs flowing through the sweep pipeline end to end."""

from __future__ import annotations

import pytest
from reference.dense3 import max_edge_stretch3, min_pairwise_distance3_array

from repro.spatial3d import (
    KKNPS3Algorithm,
    Simulation3Config,
    positions_as_array3,
    run_simulation3,
)
from repro.sweeps import RunSpec, SweepSpec, run_sweep
from repro.sweeps.factories import (
    activation_probability3,
    error_model3_xi,
    make_algorithm,
    make_workload,
    run_dimension,
)
from repro.sweeps.runner import execute_run


class TestDimensionDispatch:
    def test_planar_names_are_dimension_2(self):
        assert run_dimension("kknps", "k-async", "random") == 2

    def test_3d_names_are_dimension_3(self):
        assert run_dimension("kknps3", "ssync3", "random3", "nonrigid-50") == 3

    @pytest.mark.parametrize(
        "algorithm,scheduler,workload",
        [
            ("kknps", "k-async", "random3"),
            ("kknps3", "k-async", "random3"),
            ("kknps3", "ssync3", "random"),
            ("kknps", "ssync3", "random"),
        ],
    )
    def test_mixed_dimensions_rejected(self, algorithm, scheduler, workload):
        with pytest.raises(ValueError, match="mixed-dimension"):
            run_dimension(algorithm, scheduler, workload)

    def test_3d_error_models_restricted(self):
        with pytest.raises(ValueError, match="not available in 3D"):
            run_dimension("kknps3", "ssync3", "random3", "distance-5")

    def test_mixed_sweep_spec_rejected_at_build_time(self):
        with pytest.raises(ValueError, match="mixed-dimension"):
            SweepSpec(algorithms=("kknps",), workloads=("random3",))

    def test_unknown_names_still_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            SweepSpec(workloads=("random4",))


class TestFactories3D:
    def test_algorithm_factory_passes_k(self):
        algorithm = make_algorithm("kknps3", (("k", 3),))
        assert isinstance(algorithm, KKNPS3Algorithm)
        assert algorithm.k == 3

    def test_scheduler_probabilities(self):
        assert activation_probability3("fsync3") == 1.0
        assert activation_probability3("ssync3") == 0.6

    def test_error_model_xi(self):
        assert error_model3_xi("exact") == 1.0
        assert error_model3_xi("nonrigid-50") == 0.5

    @pytest.mark.parametrize("name,n", [("line3", 5), ("random3", 9), ("lattice3", 8)])
    def test_workloads_have_exactly_n_robots(self, name, n):
        configuration = make_workload(name, n, seed=1, visibility_range=1.0)
        assert len(configuration) == n
        assert configuration.is_connected()

    def test_lattice3_requires_perfect_cube(self):
        with pytest.raises(ValueError, match="perfect-cube"):
            make_workload("lattice3", 10, seed=0)


class TestExecuteRun3D:
    def _spec(self, **overrides) -> RunSpec:
        base = dict(
            algorithm="kknps3",
            scheduler="ssync3",
            workload="random3",
            n_robots=8,
            seed=4,
            error_model="nonrigid-50",
            scheduler_k=2,
            algorithm_params=(("k", 2),),
            epsilon=0.05,
            max_activations=400,
        )
        base.update(overrides)
        return RunSpec(**base)

    def test_row_contract(self):
        row = execute_run(self._spec())
        assert row["dimension"] == 3
        assert row["epochs"] is None
        assert row["rounds"] >= 1
        assert row["simulated_time"] == float(row["rounds"])
        assert row["activations"] >= row["rounds"]
        assert row["n_robots"] == 8
        assert 0.0 < row["final_diameter"] < row["initial_diameter"]

    def test_row_matches_direct_engine_run(self):
        """The sweep row is exactly a run_simulation3 call on the factories."""
        spec = self._spec()
        row = execute_run(spec)
        configuration = make_workload(spec.workload, spec.n_robots, spec.seed, 1.0)
        result = run_simulation3(
            configuration.positions,
            KKNPS3Algorithm(k=2),
            Simulation3Config(
                visibility_range=configuration.visibility_range,
                max_rounds=spec.max_activations,
                convergence_epsilon=spec.epsilon,
                activation_probability=0.6,
                xi=0.5,
                seed=spec.seed,
            ),
        )
        assert row["converged"] == result.converged
        assert row["cohesion"] == result.cohesion_maintained
        assert row["rounds"] == result.rounds_executed
        assert row["activations"] == result.activations_executed
        assert row["final_diameter"] == result.final_diameter
        assert row["initial_diameter"] == result.diameter_history[0]
        # The row reads the final full sample and the collector's initial
        # edges; the dense matrix and a row gather agree.
        final = positions_as_array3(result.final_configuration.positions)
        edges = sorted(result.initial_configuration.edges())
        assert row["final_min_pairwise"] == min_pairwise_distance3_array(final)
        assert row["max_edge_stretch"] == max_edge_stretch3(edges, final)

    def test_round_row_of_a_big_lattice_builds_no_square_matrix(self):
        """One ssync3 round on a 14^3 lattice: the row's allocation peak stays
        far below one (n, n) float matrix (60 MiB at n=2,744)."""
        import tracemalloc

        import scipy.spatial  # noqa: F401  (the 3D hull's first-use import, kept out of the trace)

        spec = self._spec(
            workload="lattice3", n_robots=14**3, error_model="exact", max_activations=1
        )
        tracemalloc.start()
        try:
            row = execute_run(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert row["rounds"] == 1 and row["n_robots"] == 14**3
        assert peak < 64 * 2**20, f"the row peaked at {peak / 2**20:.1f} MiB"

    def test_parallel_equals_serial_3d(self):
        spec = SweepSpec(
            algorithms=("kknps3",),
            schedulers=("ssync3", "fsync3"),
            workloads=("line3", "random3"),
            n_robots=(6,),
            error_models=("exact", "nonrigid-50"),
            seeds=(0, 1),
            max_activations=150,
        )
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert serial.deterministic_rows() == parallel.deterministic_rows()

    def test_continuous_3d_row_contract(self):
        """kasync3 rows: continuous time, no rounds, epochs from end times."""
        row = execute_run(self._spec(scheduler="kasync3", error_model="exact"))
        assert row["dimension"] == 3
        assert row["rounds"] is None
        assert row["scheduler"] == "kasync3"
        assert row["activations"] >= 1
        assert row["simulated_time"] > 0.0
        if row["converged"]:
            assert row["epochs"] >= 1
        assert 0.0 < row["final_diameter"] < row["initial_diameter"]

    def test_continuous_row_matches_direct_engine_run(self):
        """A kasync3 sweep row is exactly a run_simulation3_async call."""
        from repro.schedulers import KAsyncScheduler
        from repro.spatial3d import AsyncSimulation3Config, run_simulation3_async
        from repro.sweeps.factories import make_error_models

        spec = self._spec(scheduler="kasync3", error_model="nonrigid-50")
        row = execute_run(spec)
        configuration = make_workload(spec.workload, spec.n_robots, spec.seed, 1.0)
        perception, motion = make_error_models(spec.error_model)
        result = run_simulation3_async(
            configuration.positions,
            KKNPS3Algorithm(k=2),
            KAsyncScheduler(k=2),
            AsyncSimulation3Config(
                visibility_range=configuration.visibility_range,
                perception=perception,
                motion=motion,
                seed=spec.seed,
                max_activations=spec.max_activations,
                convergence_epsilon=spec.epsilon,
            ),
        )
        assert row["converged"] == result.converged
        assert row["convergence_time"] == result.convergence_time
        assert row["cohesion"] == result.cohesion_maintained
        assert row["activations"] == result.activations_processed
        assert row["final_diameter"] == result.final_diameter
        # The row reads the final full sample; the dense matrix agrees.
        final = positions_as_array3(result.final_configuration.positions)
        assert row["final_min_pairwise"] == min_pairwise_distance3_array(final)

    def test_planar_only_error_model_rejected_for_continuous_3d(self):
        with pytest.raises(ValueError, match="planar-only"):
            run_dimension("kknps3", "kasync3", "random3", "skew-10")

    def test_distance_error_allowed_for_continuous_3d(self):
        assert run_dimension("kknps3", "kasync3", "random3", "distance-5") == 3
        assert run_dimension("kknps3", "nesta3", "random3", "quad-motion") == 3

    def test_resume_skips_completed_3d_runs(self, tmp_path):
        spec = SweepSpec(
            algorithms=("kknps3",),
            schedulers=("fsync3",),
            workloads=("line3",),
            n_robots=(5,),
            seeds=(0, 1, 2),
            max_activations=120,
        )
        jsonl = tmp_path / "runs3d.jsonl"
        first = run_sweep(spec, jsonl_path=jsonl)
        assert first.executed == 3
        second = run_sweep(spec, jsonl_path=jsonl)
        assert second.executed == 0 and second.resumed == 3
        assert second.deterministic_rows() == first.deterministic_rows()


class TestKAsync3DAcceptance:
    """The new scenario family end to end: a 3D k-async sweep through the CLI."""

    ARGS = [
        "--algorithms", "kknps3",
        "--schedulers", "kasync3",
        "--workloads", "random3",
        "--n", "6",
        "--seeds", "2",
        "--k", "2",
        "--errors", "exact", "nonrigid-50",
        "--max-activations", "250",
        "--quiet",
    ]

    def test_cli_serial_equals_work_stealing(self, tmp_path, capsys):
        """Serial and work-stealing CLI invocations write identical rows."""
        from repro.sweeps.cli import main
        from repro.sweeps.runner import load_completed_rows, strip_timing

        serial_out = tmp_path / "serial.jsonl"
        stolen_out = tmp_path / "stolen.jsonl"
        assert main(self.ARGS + ["--out", str(serial_out)]) == 0
        assert main(
            self.ARGS
            + ["--out", str(stolen_out), "--backend", "work-stealing", "--workers", "2"]
        ) == 0
        capsys.readouterr()

        serial_rows = load_completed_rows(serial_out)
        stolen_rows = load_completed_rows(stolen_out)
        assert len(serial_rows) == 4
        assert set(serial_rows) == set(stolen_rows)
        for key, row in serial_rows.items():
            assert strip_timing(row) == strip_timing(stolen_rows[key])
        # The grid expansion matched the algorithm's k to the scheduler's
        # bound and recorded the error-model axis in the run keys.
        assert all("kasync3(k=2)" in key for key in serial_rows)
        assert {row["error_model"] for row in serial_rows.values()} == {
            "exact",
            "nonrigid-50",
        }
        assert all(row["dimension"] == 3 for row in serial_rows.values())
