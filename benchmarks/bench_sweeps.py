"""Bench — the parallel sweep engine over a 200+-run scenario grid.

This is the acceptance bench of the sweep subsystem: a grid of more than
200 (algorithm, scheduler, workload, seed) runs executes through the
:class:`~repro.sweeps.SweepRunner` with ``workers > 1``, lands in a
resumable JSONL file, aggregates into a table, and — re-run against the
same file — resumes instead of recomputing.  The qualitative claim it
pins is the paper's: KKNPS preserves cohesion across the whole grid.
"""

from __future__ import annotations

from repro.sweeps import SweepRunner, SweepSpec, load_completed_rows


def _grid() -> SweepSpec:
    # 2 algorithms x 3 schedulers x 3 workloads x 2 sizes x 6 seeds = 216 runs.
    return SweepSpec(
        algorithms=("kknps", "ando"),
        schedulers=("ssync", "k-async", "k-nesta"),
        workloads=("random", "blobs", "line"),
        n_robots=(5, 8),
        error_models=("exact",),
        seeds=tuple(range(6)),
        scheduler_k=2,
        epsilon=0.08,
        max_activations=400,
    )


def test_bench_parallel_sweep(benchmark, tmp_path):
    """216 runs through the runner with workers=4, persisted and resumable."""
    spec = _grid()
    assert spec.size() >= 200
    jsonl = tmp_path / "sweep.jsonl"

    result = benchmark.pedantic(
        lambda: SweepRunner(spec, workers=4, jsonl_path=jsonl).run(),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.to_table().render())

    assert len(result) == spec.size()
    assert result.executed == spec.size()
    assert len(load_completed_rows(jsonl)) == spec.size()

    # The paper's algorithm preserves every initial visibility edge on the
    # whole grid; the bounded schedulers match its design assumptions.
    kknps_rows = [row for row in result.rows if row["algorithm"] == "kknps"]
    assert kknps_rows and all(row["cohesion"] for row in kknps_rows)

    # Re-running against the same JSONL resumes every run instead of
    # recomputing, and returns the very same rows.
    resumed = SweepRunner(spec, workers=4, jsonl_path=jsonl).run()
    assert resumed.executed == 0
    assert resumed.resumed == spec.size()
    assert resumed.deterministic_rows() == result.deterministic_rows()
