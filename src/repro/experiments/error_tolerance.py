"""Experiment E1 — Section 6.1 / Figure 18: error tolerance of the algorithm.

The paper claims the algorithm tolerates

* bounded *relative* distance-measurement error (after scaling the
  perceived range by ``1/(1+delta)``),
* bounded-skew symmetric distortion of the local compass, and
* motion error that grows *quadratically* with the distance travelled,

while *linear* relative motion error defeats every convergence algorithm
(Figure 18: two robots at exactly visibility range can be pushed apart
when the lateral error exceeds ``tan`` of the commanded angle).

This experiment measures all four claims: full simulated runs under each
error model (cohesion + convergence), and the explicit Figure-18 two-robot
threshold sweep for linear motion error.

The error-model grid is expressed through the sweep engine
(:mod:`repro.sweeps`): each run is a picklable
:class:`~repro.sweeps.RunSpec` over the named registries — the
``k-async-half`` scheduler and the ``distance-5-nonrigid`` /
``skew-10-nonrigid`` / ``quad-motion`` / ``linear-60`` error models are
exactly the objects this experiment used to build inline — so the whole
grid can fan out across worker processes (``workers > 1``) with rows
identical to the serial run.  The Figure-18 construction stays a direct
simulation: its three-robot geometry depends on the commanded angle and
is not a named workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..algorithms.kknps import KKNPSAlgorithm
from ..analysis.tables import TextTable
from ..engine.simulator import SimulationConfig, run_simulation
from ..geometry.point import Point
from ..model.errors import MotionModel
from ..schedulers.synchronous import FSyncScheduler
from ..sweeps import RunSpec, SweepRunner


@dataclass(frozen=True)
class ErrorToleranceRow:
    """One error-model run."""

    label: str
    cohesion: bool
    converged: bool
    final_diameter: float


@dataclass(frozen=True)
class Figure18Row:
    """One point of the Figure-18 linear-motion-error threshold sweep."""

    error_coefficient: float
    commanded_angle: float
    final_separation: float
    separated: bool


@dataclass
class ErrorToleranceResult:
    """All rows of the error-tolerance experiment."""

    runs: List[ErrorToleranceRow] = field(default_factory=list)
    figure18: List[Figure18Row] = field(default_factory=list)

    def to_table(self) -> TextTable:
        table = TextTable(
            "Section 6.1 — full runs under each error model (KKNPS, 4-Async)",
            ["error model", "cohesive", "converged", "final diameter"],
        )
        for row in self.runs:
            table.add_row(row.label, row.cohesion, row.converged, row.final_diameter)
        return table

    def figure18_table(self) -> TextTable:
        table = TextTable(
            "Figure 18 — linear relative motion error vs separation of a "
            "visibility-threshold pair",
            ["error coefficient", "tan(commanded angle)", "final separation / V", "separated"],
        )
        for row in self.figure18:
            table.add_row(
                row.error_coefficient,
                math.tan(row.commanded_angle),
                row.final_separation,
                row.separated,
            )
        return table

    @property
    def tolerated_models_all_cohesive(self) -> bool:
        """Distance error, skew and quadratic motion error never broke cohesion."""
        tolerated = [r for r in self.runs if not r.label.startswith("linear")]
        return all(r.cohesion for r in tolerated)

    @property
    def linear_error_separates_threshold_pair(self) -> bool:
        """Figure 18: some linear-error coefficient above tan(angle) separates the pair."""
        return any(row.separated for row in self.figure18)


def _spec(
    *,
    error_model: str,
    algorithm_params: Tuple[Tuple[str, float], ...],
    n_robots: int,
    seed: int,
    max_activations: int,
    epsilon: float,
    k: int,
) -> RunSpec:
    """One error-model measurement as a sweep run spec.

    ``k-async-half`` is the registered KAsyncScheduler with progress
    fraction (0.5, 1.0) — the scheduler this experiment always ran under.
    """
    return RunSpec(
        algorithm="kknps",
        scheduler="k-async-half",
        workload="random",
        n_robots=n_robots,
        seed=seed,
        error_model=error_model,
        scheduler_k=k,
        algorithm_params=algorithm_params,
        k_bound=k,
        epsilon=epsilon,
        max_activations=max_activations,
    )


def _figure18_sweep(
    error_coefficients: tuple, *, commanded_angle: float = math.pi / 3.0
) -> List[Figure18Row]:
    """The two-robot (plus one helper) linear-motion-error construction.

    Robots ``B`` and ``C`` sit at exactly visibility range; a helper robot
    above ``B`` makes ``B``'s commanded move point at ``commanded_angle``
    away from the ``B -> C`` direction.  With adversarial lateral motion
    error of relative size ``c``, the realised move acquires a component
    *away* from ``C`` once ``c`` exceeds ``tan(commanded_angle)``'s
    reciprocal geometry, and the pair separates.
    """
    rows: List[Figure18Row] = []
    v = 1.0
    b = Point(0.0, 0.0)
    c = Point(v, 0.0)
    helper = b + Point.polar(v, math.pi / 2.0 + (math.pi / 2.0 - commanded_angle))
    for coefficient in error_coefficients:
        positions = [b, c, helper]
        result = run_simulation(
            positions,
            KKNPSAlgorithm(k=1),
            FSyncScheduler(),
            SimulationConfig(
                max_activations=6,
                convergence_epsilon=1e-9,
                stop_at_convergence=False,
                motion=MotionModel(
                    xi=1.0, deviation="linear", coefficient=coefficient, bias="adversarial"
                ),
                seed=0,
            ),
        )
        final = result.final_configuration
        separation = final[0].distance_to(final[1])
        rows.append(
            Figure18Row(
                error_coefficient=coefficient,
                commanded_angle=commanded_angle,
                final_separation=separation,
                separated=separation > v + 1e-9,
            )
        )
    return rows


#: The error-model grid: display label, registry name, seed offset and the
#: extra KKNPS tolerance parameters each model is paired with (Section 6.1:
#: the algorithm is told the error bound it must tolerate).
ERROR_GRID: Tuple[Tuple[str, str, int, Tuple[Tuple[str, float], ...]], ...] = (
    ("exact perception, rigid motion", "exact", 0, ()),
    ("relative distance error 0.05", "distance-5-nonrigid", 1,
     (("distance_error_tolerance", 0.05),)),
    ("compass skew 0.1", "skew-10-nonrigid", 2, (("skew_tolerance", 0.1),)),
    ("quadratic motion error (c=0.2)", "quad-motion", 3, ()),
    ("linear motion error (c=0.6)", "linear-60", 4, ()),
)


def run(
    *,
    n_robots: int = 10,
    seed: int = 0,
    max_activations: int = 15000,
    epsilon: float = 0.05,
    k: int = 4,
    figure18_coefficients: tuple = (0.1, 0.5, 1.0, 2.0, 4.0),
    workers: int = 1,
    backend: Optional[str] = None,
) -> ErrorToleranceResult:
    """Run the error-model grid (through the sweep engine) and the Figure-18 sweep.

    ``workers > 1`` executes the grid across worker processes (the
    work-stealing backend); ``backend`` selects another execution backend
    by name.  The rows are identical to the serial run.
    """
    result = ErrorToleranceResult()

    specs = [
        _spec(
            error_model=error_model,
            algorithm_params=(("k", k),) + extra_params,
            n_robots=n_robots,
            seed=seed + seed_offset,
            max_activations=max_activations,
            epsilon=epsilon,
            k=k,
        )
        for _, error_model, seed_offset, extra_params in ERROR_GRID
    ]
    sweep = SweepRunner(specs, workers=workers, backend=backend).run()
    for (label, _, _, _), row in zip(ERROR_GRID, sweep.rows):
        result.runs.append(
            ErrorToleranceRow(
                label=label,
                cohesion=row["cohesion"],
                converged=row["converged"],
                final_diameter=row["final_diameter"],
            )
        )
    result.figure18 = _figure18_sweep(figure18_coefficients)
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    result = run()
    print(result.to_table().render())
    print()
    print(result.figure18_table().render())


if __name__ == "__main__":  # pragma: no cover
    main()
