"""Experiment C1 — congregation under k-Async: scaling in n and in k, plus ablations.

Section 5 of the paper proves the algorithm converges to a point under
k-Async from any connected configuration.  This experiment measures that
convergence empirically:

* a sweep over the number of robots ``n`` (activations and epochs needed
  to bring the hull diameter below ``epsilon``);
* a sweep over the asynchrony bound ``k`` (the ``1/k`` scaling of the safe
  regions slows each activation's progress roughly linearly in ``k``);
* the ablations called out in DESIGN.md: the safe-region radius divisor
  (paper value 8) and the close/distant threshold (paper value ``V_Y/2``).

Every run also reports whether cohesion (preservation of the initial
visibility edges) held, and how close any initial edge ever came to the
visibility range (the safety margin).

The grid is expressed through the sweep engine (:mod:`repro.sweeps`):
each measurement is a picklable :class:`~repro.sweeps.RunSpec`, so the
whole experiment can fan out across worker processes via ``workers > 1``
with results identical to the serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..analysis.tables import TextTable
from ..sweeps import RunSpec, SweepRunner


@dataclass(frozen=True)
class ConvergenceRow:
    """One convergence measurement."""

    label: str
    n_robots: int
    k: int
    converged: bool
    cohesion: bool
    activations: int
    epochs: Optional[int]
    final_diameter: float
    max_initial_edge_stretch: float


@dataclass
class ConvergenceResult:
    """All rows of the convergence experiment."""

    epsilon: float
    rows: List[ConvergenceRow] = field(default_factory=list)

    def to_table(self) -> TextTable:
        table = TextTable(
            f"Congregation under k-Async (hull diameter threshold {self.epsilon})",
            [
                "variant",
                "n",
                "k",
                "converged",
                "cohesive",
                "activations",
                "epochs",
                "final diameter",
                "max edge stretch / V",
            ],
        )
        for row in self.rows:
            table.add_row(
                row.label,
                row.n_robots,
                row.k,
                row.converged,
                row.cohesion,
                row.activations,
                row.epochs if row.epochs is not None else "-",
                row.final_diameter,
                row.max_initial_edge_stretch,
            )
        return table

    @property
    def all_cohesive(self) -> bool:
        """Every paper-parameter run preserved the initial edges."""
        return all(row.cohesion for row in self.rows if row.label.startswith("kknps"))


def _spec(
    *,
    algorithm_params: Tuple[Tuple[str, float], ...],
    n_robots: int,
    k: int,
    seed: int,
    epsilon: float,
    max_activations: int,
) -> RunSpec:
    """One KKNPS-under-k-Async measurement as a sweep run spec."""
    return RunSpec(
        algorithm="kknps",
        scheduler="k-async",
        workload="random",
        n_robots=n_robots,
        seed=seed,
        scheduler_k=k,
        algorithm_params=algorithm_params,
        k_bound=k,
        epsilon=epsilon,
        max_activations=max_activations,
    )


def run(
    *,
    n_values: tuple = (5, 10, 15),
    k_values: tuple = (1, 2, 4),
    epsilon: float = 0.05,
    max_activations: int = 20000,
    seed: int = 0,
    include_ablations: bool = True,
    workers: int = 1,
    backend: Optional[str] = None,
) -> ConvergenceResult:
    """Run the n-sweep, the k-sweep and (optionally) the ablations.

    ``workers > 1`` executes the measurements across worker processes via
    the sweep engine (the work-stealing backend); ``backend`` selects
    another execution backend by name (e.g. ``"socket"``).  The rows are
    identical to the serial run.
    """
    measurements: List[Tuple[str, RunSpec]] = []

    for n in n_values:
        measurements.append(
            (
                "kknps (paper)",
                _spec(
                    algorithm_params=(("k", 2),),
                    n_robots=n,
                    k=2,
                    seed=seed + n,
                    epsilon=epsilon,
                    max_activations=max_activations,
                ),
            )
        )
    for k in k_values:
        measurements.append(
            (
                "kknps (paper)",
                _spec(
                    algorithm_params=(("k", k),),
                    n_robots=10,
                    k=k,
                    seed=seed + 100 + k,
                    epsilon=epsilon,
                    max_activations=max_activations,
                ),
            )
        )
    if include_ablations:
        # Ablation 1: drop the 1/k scaling while the scheduler runs at k=4.
        measurements.append(
            (
                "ablation: no 1/k scaling",
                _spec(
                    algorithm_params=(("k", 1),),
                    n_robots=10,
                    k=4,
                    seed=seed + 200,
                    epsilon=epsilon,
                    max_activations=max_activations,
                ),
            )
        )
        # Ablation 2: a more aggressive safe-region radius (divisor 4 instead of 8).
        measurements.append(
            (
                "ablation: radius divisor 4",
                _spec(
                    algorithm_params=(("k", 2), ("radius_divisor", 4.0)),
                    n_robots=10,
                    k=2,
                    seed=seed + 300,
                    epsilon=epsilon,
                    max_activations=max_activations,
                ),
            )
        )
        # Ablation 3: a different close/distant threshold (0.25 V_Y instead of 0.5 V_Y).
        measurements.append(
            (
                "ablation: close threshold 0.25",
                _spec(
                    algorithm_params=(("k", 2), ("close_fraction", 0.25)),
                    n_robots=10,
                    k=2,
                    seed=seed + 400,
                    epsilon=epsilon,
                    max_activations=max_activations,
                ),
            )
        )

    sweep = SweepRunner(
        [spec for _, spec in measurements], workers=workers, backend=backend
    ).run()

    result = ConvergenceResult(epsilon=epsilon)
    for (label, spec), row in zip(measurements, sweep.rows):
        result.rows.append(
            ConvergenceRow(
                label=label,
                n_robots=row["n_robots"],
                k=spec.scheduler_k,
                converged=row["converged"],
                cohesion=row["cohesion"],
                activations=row["activations"],
                epochs=row["epochs"],
                final_diameter=row["final_diameter"],
                max_initial_edge_stretch=row["max_edge_stretch"] / row["visibility_range"],
            )
        )
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    print(run().to_table().render())


if __name__ == "__main__":  # pragma: no cover
    main()
