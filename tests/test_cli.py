"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, build_run, main
from repro.algorithms import (
    AndoAlgorithm,
    CenterOfGravityAlgorithm,
    KKNPSAlgorithm,
    KatreniakAlgorithm,
    MinboxAlgorithm,
)
from repro.schedulers import (
    AsyncScheduler,
    FSyncScheduler,
    KAsyncScheduler,
    KNestAScheduler,
    SSyncScheduler,
)


class TestFactories:
    def test_algorithm_factory(self):
        parser = build_parser()
        cases = {
            "kknps": KKNPSAlgorithm,
            "ando": AndoAlgorithm,
            "katreniak": KatreniakAlgorithm,
            "cog": CenterOfGravityAlgorithm,
            "gcm": MinboxAlgorithm,
        }
        for name, expected in cases.items():
            args = parser.parse_args(["--algorithm", name])
            assert isinstance(build_run(args)[1], expected)

    def test_kknps_picks_up_error_tolerances(self):
        args = build_parser().parse_args(
            ["--algorithm", "kknps", "--k", "3", "--distance-error", "0.05", "--skew", "0.1"]
        )
        algorithm = build_run(args)[1]
        assert algorithm.k == 3
        assert algorithm.distance_error_tolerance == pytest.approx(0.05)
        assert algorithm.skew_tolerance == pytest.approx(0.1)

    def test_scheduler_factory(self):
        parser = build_parser()
        cases = {
            "fsync": FSyncScheduler,
            "ssync": SSyncScheduler,
            "k-nesta": KNestAScheduler,
            "k-async": KAsyncScheduler,
            "async": AsyncScheduler,
        }
        for name, expected in cases.items():
            args = parser.parse_args(["--scheduler", name])
            assert isinstance(build_run(args)[2], expected)

    def test_choices_are_the_sweep_registries(self):
        from repro.sweeps.factories import (
            ALGORITHM_FACTORIES,
            SCHEDULER_FACTORIES,
            WORKLOAD_FACTORIES,
        )

        choices = {
            action.dest: tuple(action.choices)
            for action in build_parser()._actions
            if action.choices is not None
        }
        assert choices == {
            "algorithm": tuple(ALGORITHM_FACTORIES),
            "scheduler": tuple(SCHEDULER_FACTORIES),
            "workload": tuple(WORKLOAD_FACTORIES),
        }

    @pytest.mark.parametrize("n", [3, 9, 15, 16, 17])
    def test_workload_factory(self, n):
        """Every planar workload runs exactly ``--robots`` robots."""
        from repro.sweeps.factories import WORKLOAD_FACTORIES

        parser = build_parser()
        for name in WORKLOAD_FACTORIES:
            args = parser.parse_args(["--workload", name, "--robots", str(n)])
            configuration = build_run(args)[0]
            assert len(configuration) == n, name
            assert configuration.is_connected()

    def test_too_few_robots_for_a_ring_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--workload", "ring", "--robots", "2"])
        assert exit_info.value.code == 2
        assert "at least three robots" in capsys.readouterr().err


class TestMain:
    def test_successful_run_returns_zero(self, capsys):
        code = main(
            ["--robots", "6", "--k", "1", "--scheduler", "ssync",
             "--max-activations", "4000", "--epsilon", "0.05", "--trace"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "converged" in output
        assert "hull-diameter trace" in output

    def test_svg_output(self, tmp_path, capsys):
        target = tmp_path / "run.svg"
        code = main(
            ["--robots", "5", "--scheduler", "fsync", "--max-activations", "2000",
             "--svg", str(target)]
        )
        assert code == 0
        assert target.exists()
        assert target.read_text().startswith("<svg")

    def test_non_converged_run_returns_one(self):
        # One activation cannot converge a spread-out swarm.
        code = main(["--robots", "8", "--max-activations", "1", "--epsilon", "0.001"])
        assert code == 1
