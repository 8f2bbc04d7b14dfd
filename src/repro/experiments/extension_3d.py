"""Experiment X1 — Section 6.3.2: the algorithm generalised to three dimensions.

The paper sketches the 3D generalisation (ball-shaped safe regions) and
leaves the details to future work; this experiment exercises the concrete
instantiation in ``repro.spatial3d`` across *both* 3D engines of the
unified kernel:

* the **round grid** — the historical Section-6.3.2 setting: the
  ``ssync3`` round discipline (independent 60% activation subsets) with
  non-rigid motion (``nonrigid-50``, xi = 0.5 truncation);
* the **k-async grid** — the paper's headline scenario family opened in
  3-space by the continuous-time kernel: the ``kasync3`` scheduler
  (bounded asynchrony, overlapping activity intervals, interpolated
  mid-move Looks) on the same workloads, seeds and error model.

Both grids are expressed through the sweep engine (:mod:`repro.sweeps`)
as picklable :class:`~repro.sweeps.RunSpec` lists, so the whole
experiment fans out across worker processes (``workers > 1``) with rows
identical to the serial run.  The same grids are reachable from the
command line via ``python -m repro sweep --algorithms kknps3
--schedulers ssync3 kasync3 ...``; the ``k > 1`` round-grid ablation
rows, however, need explicit run specs (as built here) — a grid-expanded
``kknps3`` runs its base ``k = 1`` formulation under the round
disciplines, since they promise no asynchrony bound to match ``k``
against (``kasync3`` rows *are* grid-expressible: the bound is the
scheduler's ``k``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..analysis.tables import TextTable
from ..sweeps import RunSpec, SweepRunner


@dataclass(frozen=True)
class Extension3DRow:
    """One 3D convergence run (round or continuous-time)."""

    workload: str
    n_robots: int
    scheduler: str
    k: int
    converged: bool
    cohesion: bool
    rounds: Optional[int]
    activations: int
    final_diameter: float


@dataclass
class Extension3DResult:
    """All rows of the 3D-extension experiment."""

    epsilon: float
    rows: List[Extension3DRow] = field(default_factory=list)

    def to_table(self) -> TextTable:
        table = TextTable(
            f"Section 6.3.2 extension — cohesive convergence in 3D (epsilon {self.epsilon})",
            ["workload", "n", "scheduler", "k", "converged", "cohesive",
             "rounds", "activations", "final diameter"],
        )
        for row in self.rows:
            table.add_row(
                row.workload, row.n_robots, row.scheduler, row.k, row.converged,
                row.cohesion, row.rounds if row.rounds is not None else "-",
                row.activations, row.final_diameter,
            )
        return table

    @property
    def all_converged_cohesively(self) -> bool:
        """Every 3D run converged while preserving the initial edges."""
        return all(row.converged and row.cohesion for row in self.rows)

    def rows_for(self, scheduler: str) -> List[Extension3DRow]:
        """The rows of one scheduler (``"ssync3"`` or ``"kasync3"``)."""
        return [row for row in self.rows if row.scheduler == scheduler]


def run(
    *,
    epsilon: float = 0.05,
    max_rounds: int = 3000,
    max_activations: Optional[int] = None,
    seed: int = 0,
    k_values: tuple = (1, 2),
    random_sizes: tuple = (8, 16),
    workers: int = 1,
    backend: Optional[str] = None,
) -> Extension3DResult:
    """Run the 3D convergence grids through the sweep engine.

    ``max_rounds`` bounds the round-grid runs; ``max_activations`` bounds
    the k-async runs (default: ``max_rounds``, which is generous — a
    round activates ~n robots).  ``workers > 1`` executes the
    measurements across worker processes (the work-stealing backend);
    ``backend`` selects another execution backend by name.  The rows are
    identical to the serial run.
    """
    workloads: List[Tuple[str, int]] = [("line3", 6), ("lattice3", 8)]
    workloads.extend(("random3", n) for n in random_sizes)
    if max_activations is None:
        max_activations = max_rounds

    # One seed per (workload, n), shared across k and schedulers: the
    # ablations compare runs on identical initial configurations, with
    # the run key disambiguated by the scheduler and k fields.
    specs = [
        RunSpec(
            algorithm="kknps3",
            scheduler="ssync3",
            workload=workload,
            n_robots=n,
            seed=seed + n,
            error_model="nonrigid-50",
            scheduler_k=k,
            algorithm_params=(("k", k),),
            epsilon=epsilon,
            max_activations=max_rounds,
        )
        for k in k_values
        for workload, n in workloads
    ]
    specs.extend(
        RunSpec(
            algorithm="kknps3",
            scheduler="kasync3",
            workload=workload,
            n_robots=n,
            seed=seed + n,
            error_model="nonrigid-50",
            scheduler_k=k,
            algorithm_params=(("k", k),),
            k_bound=k,
            epsilon=epsilon,
            max_activations=max_activations,
        )
        for k in k_values
        for workload, n in workloads
    )
    sweep = SweepRunner(specs, workers=workers, backend=backend).run()

    result = Extension3DResult(epsilon=epsilon)
    for row in sweep.rows:
        result.rows.append(
            Extension3DRow(
                workload=row["workload"],
                n_robots=row["n_robots"],
                scheduler=row["scheduler"],
                k=row["scheduler_k"],
                converged=row["converged"],
                cohesion=row["cohesion"],
                rounds=row["rounds"],
                activations=row["activations"],
                final_diameter=row["final_diameter"],
            )
        )
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    print(run().to_table().render())


if __name__ == "__main__":  # pragma: no cover
    main()
