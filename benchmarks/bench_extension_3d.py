"""Bench X1 — Section 6.3.2: the algorithm generalised to three dimensions."""

from __future__ import annotations

from repro.experiments import extension_3d


def test_bench_extension_3d(benchmark):
    """Cohesive convergence of the 3D rule across workloads and asynchrony bounds."""
    result = benchmark.pedantic(
        lambda: extension_3d.run(
            random_sizes=(8, 16), k_values=(1, 2), max_rounds=3000, seed=0
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.to_table().render())

    # Every 3D run converges while preserving the initial visibility edges.
    assert result.all_converged_cohesively

    # The 1/k scaling slows convergence in 3D as it does in the plane: in
    # rounds on the round grid, in activations on the k-async grid (whose
    # rows count no rounds).
    def total(scheduler, field, k):
        return sum(
            getattr(row, field) for row in result.rows_for(scheduler) if row.k == k
        )

    assert total("ssync3", "rounds", 2) >= total("ssync3", "rounds", 1)
    assert total("kasync3", "activations", 2) >= total("kasync3", "activations", 1)
