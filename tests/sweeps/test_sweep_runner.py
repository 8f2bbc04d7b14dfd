"""Tests for the sweep runner: parallel-equals-serial, persistence, resume."""

from __future__ import annotations

import json

import pytest

from repro.sweeps import (
    RunSpec,
    SweepRunner,
    SweepSpec,
    execute_run,
    load_completed_rows,
    run_sweep,
    strip_timing,
)

#: A small grid used by most tests below (12 runs, sub-second).
SMALL_SPEC = SweepSpec(
    algorithms=("kknps",),
    schedulers=("ssync", "k-async"),
    workloads=("line", "blobs"),
    n_robots=(5,),
    seeds=(0, 1, 2),
    scheduler_k=2,
    epsilon=0.08,
    max_activations=150,
)


class TestExecuteRun:
    def test_row_is_flat_and_json_serializable(self):
        spec = SMALL_SPEC.expand()[0]
        row = execute_run(spec)
        assert row["run_key"] == spec.run_key
        assert json.loads(json.dumps(row)) == row
        for key in (
            "algorithm", "scheduler", "workload", "n_robots", "seed", "error_model",
            "converged", "convergence_time", "cohesion", "activations", "epochs",
            "initial_diameter", "final_diameter", "final_min_pairwise",
            "max_edge_stretch", "simulated_time", "wall_time_s",
        ):
            assert key in row

    def test_row_is_reproducible(self):
        spec = SMALL_SPEC.expand()[3]
        assert strip_timing(execute_run(spec)) == strip_timing(execute_run(spec))


class TestSweepRunner:
    def test_rows_keep_expansion_order(self):
        result = run_sweep(SMALL_SPEC, workers=2)
        assert [row["run_key"] for row in result.rows] == [
            spec.run_key for spec in SMALL_SPEC.expand()
        ]

    def test_resume_skips_completed_runs(self, tmp_path):
        jsonl = tmp_path / "rows.jsonl"
        runs = SMALL_SPEC.expand()
        first = run_sweep(runs[:5], jsonl_path=jsonl)
        assert (first.executed, first.resumed) == (5, 0)
        full = run_sweep(SMALL_SPEC, jsonl_path=jsonl)
        assert (full.executed, full.resumed) == (len(runs) - 5, 5)
        # Resumed rows are byte-for-byte the persisted ones.
        persisted = load_completed_rows(jsonl)
        assert all(row == persisted[row["run_key"]] for row in full.rows)

    def test_no_resume_recomputes_everything(self, tmp_path):
        jsonl = tmp_path / "rows.jsonl"
        run_sweep(SMALL_SPEC.expand()[:4], jsonl_path=jsonl)
        result = run_sweep(SMALL_SPEC.expand()[:4], jsonl_path=jsonl, resume=False)
        assert (result.executed, result.resumed) == (4, 0)
        assert len(load_completed_rows(jsonl)) == 4

    def test_partial_trailing_line_is_tolerated(self, tmp_path):
        jsonl = tmp_path / "rows.jsonl"
        run_sweep(SMALL_SPEC.expand()[:3], jsonl_path=jsonl)
        with jsonl.open("a", encoding="utf-8") as handle:
            handle.write('{"run_key": "truncated-by-a-cr')  # killed mid-write
        with pytest.warns(UserWarning, match="dropping truncated trailing JSONL line"):
            result = run_sweep(SMALL_SPEC.expand()[:4], jsonl_path=jsonl)
        assert (result.executed, result.resumed) == (1, 3)

    def test_skip_warning_is_one_shot_across_resumes(self, tmp_path):
        import warnings

        jsonl = tmp_path / "rows.jsonl"
        run_sweep(SMALL_SPEC.expand()[:3], jsonl_path=jsonl)
        with jsonl.open("a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        # First resume past the garbage line: one warning, recorded in
        # the .repairs sidecar.
        with pytest.warns(UserWarning, match="without a parseable sweep row"):
            run_sweep(SMALL_SPEC.expand()[3:5], jsonl_path=jsonl)
        first = load_completed_rows(jsonl)
        assert len(first) == 5
        assert (tmp_path / "rows.jsonl.repairs").exists()

        # Every later resume of the repaired file is silent ...
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = load_completed_rows(jsonl)
        assert again == first

        # ... and the foreign line itself is preserved, not destroyed.
        assert "not json at all\n" in jsonl.read_text()

        # A resume through the runner is silent too and recovers all rows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_sweep(SMALL_SPEC.expand()[:5], jsonl_path=jsonl)
        assert (result.executed, result.resumed) == (0, 5)

    def test_edited_bad_line_warns_again(self, tmp_path):
        jsonl = tmp_path / "rows.jsonl"
        run_sweep(SMALL_SPEC.expand()[:2], jsonl_path=jsonl)
        with jsonl.open("a", encoding="utf-8") as handle:
            handle.write("garbage one\n")
        with pytest.warns(UserWarning, match="without a parseable sweep row"):
            load_completed_rows(jsonl)
        # The same offset now holds *different* bytes: the sidecar record
        # no longer matches, so the warning fires again.
        text = jsonl.read_text().replace("garbage one\n", "garbage two\n")
        jsonl.write_text(text)
        with pytest.warns(UserWarning, match="without a parseable sweep row"):
            load_completed_rows(jsonl)

    def test_no_resume_clears_the_repair_sidecar(self, tmp_path):
        jsonl = tmp_path / "rows.jsonl"
        run_sweep(SMALL_SPEC.expand()[:2], jsonl_path=jsonl)
        with jsonl.open("a", encoding="utf-8") as handle:
            handle.write("junk\n")
        with pytest.warns(UserWarning):
            load_completed_rows(jsonl)
        sidecar = tmp_path / "rows.jsonl.repairs"
        assert sidecar.exists()
        run_sweep(SMALL_SPEC.expand()[:2], jsonl_path=jsonl, resume=False)
        assert not sidecar.exists()

    def test_progress_callback(self):
        calls = []
        run_sweep(
            SMALL_SPEC.expand()[:3],
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(1, 3), (2, 3), (3, 3)]

    def test_duplicate_runs_rejected(self):
        spec = SMALL_SPEC.expand()[0]
        with pytest.raises(ValueError, match="duplicate run key"):
            SweepRunner([spec, spec])

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(SMALL_SPEC.expand()[:1], workers=0)

    def test_aggregate_table_groups_and_counts(self):
        result = run_sweep(SMALL_SPEC)
        rendered = result.to_table().render()
        assert "kknps" in rendered
        assert "ssync" in rendered and "k-async" in rendered
        assert "line" in rendered and "blobs" in rendered
        # 2 schedulers x 2 workloads -> 4 aggregate lines of 3 seeds each.
        assert rendered.count("3/3") >= 4
