"""Experiment U1 — Section 6.2: unbounded visibility makes full Async easy.

The paper notes that when the visibility radius ``V`` exceeds the diameter
of the initial configuration, the hull-diminishing property keeps every
pair of robots mutually visible forever, and the congregation argument
alone then shows that the (1-Async-formulated) algorithm converges under a
*fully asynchronous* scheduler, without multiplicity detection.  This
experiment runs exactly that setting: KKNPS with ``k = 1`` under an
unbounded Async scheduler on configurations whose diameter is below ``V``.

The n-sweep is expressed through the sweep engine (:mod:`repro.sweeps`):
each size is a picklable :class:`~repro.sweeps.RunSpec` over the
``disk-unbounded`` workload, whose visibility range is derived from the
realised configuration (``margin`` times its hull diameter — the sweep's
visibility-range axis carries the margin).  With ``workers > 1`` the
sizes fan out across worker processes with rows identical to the serial
run.  Because the initial visibility graph is complete and the cohesion
metric samples every processed activation, the row's cohesion flag *is*
the all-pairs-always-visible predicate this experiment reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..analysis.tables import TextTable
from ..sweeps import RunSpec, SweepRunner


@dataclass(frozen=True)
class UnlimitedAsyncRow:
    """One fully-asynchronous run with V above the initial diameter."""

    n_robots: int
    initial_diameter: float
    visibility_range: float
    converged: bool
    cohesion: bool
    all_pairs_always_visible: bool
    final_diameter: float


@dataclass
class UnlimitedAsyncResult:
    """All rows of the unlimited-visibility Async experiment."""

    rows: List[UnlimitedAsyncRow] = field(default_factory=list)

    def to_table(self) -> TextTable:
        table = TextTable(
            "Section 6.2 — KKNPS (k=1) under unbounded Async when V exceeds the "
            "initial diameter",
            [
                "n",
                "initial diameter",
                "V",
                "converged",
                "cohesive",
                "all pairs stayed visible",
                "final diameter",
            ],
        )
        for row in self.rows:
            table.add_row(
                row.n_robots,
                row.initial_diameter,
                row.visibility_range,
                row.converged,
                row.cohesion,
                row.all_pairs_always_visible,
                row.final_diameter,
            )
        return table

    @property
    def all_converged_cohesively(self) -> bool:
        """Every run converged with every pair mutually visible throughout."""
        return all(r.converged and r.cohesion and r.all_pairs_always_visible for r in self.rows)


def run(
    *,
    n_values: tuple = (5, 10, 20),
    seed: int = 0,
    max_activations: int = 30000,
    epsilon: float = 0.05,
    diameter_margin: float = 1.25,
    workers: int = 1,
    backend: Optional[str] = None,
) -> UnlimitedAsyncResult:
    """Run KKNPS (k=1) under unbounded Async with V above the initial diameter.

    ``workers > 1`` executes the sizes across worker processes via the
    sweep engine (the work-stealing backend); ``backend`` selects another
    execution backend by name.  The rows are identical to the serial run.
    """
    specs = [
        RunSpec(
            algorithm="kknps",
            scheduler="async",
            workload="disk-unbounded",
            n_robots=n,
            seed=seed + n,
            scheduler_k=1,
            algorithm_params=(("k", 1),),
            epsilon=epsilon,
            max_activations=max_activations,
            visibility_range=diameter_margin,
        )
        for n in n_values
    ]
    sweep = SweepRunner(specs, workers=workers, backend=backend).run()

    result = UnlimitedAsyncResult()
    for row in sweep.rows:
        # The initial visibility graph is complete (V exceeds the initial
        # diameter) and the cohesion metric checks the initial edge set at
        # every sampled activation, so the cohesion flag is exactly the
        # all-pairs-always-visible predicate.
        result.rows.append(
            UnlimitedAsyncRow(
                n_robots=row["n_robots"],
                initial_diameter=row["initial_diameter"],
                visibility_range=row["visibility_range"],
                converged=row["converged"],
                cohesion=row["cohesion"],
                all_pairs_always_visible=row["cohesion"],
                final_diameter=row["final_diameter"],
            )
        )
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    print(run().to_table().render())


if __name__ == "__main__":  # pragma: no cover
    main()
