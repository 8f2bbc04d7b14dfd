"""Section 6.3.2 extension: the paper's algorithm in three dimensions."""

from .halfspace import fits_in_open_halfspace_array
from .kernel3 import (
    AsyncSimulation3Config,
    Kernel3,
    Simulation3AsyncResult,
    run_simulation3_async,
)
from .kknps3 import KKNPS3Algorithm
from .model3 import (
    Configuration3,
    Snapshot3,
    build_snapshot3,
    edges_preserved3,
    is_connected3,
    positions_as_array3,
    visibility_edges3,
)
from .simulator3 import Simulation3Config, Simulation3Result, run_simulation3
from .vector3 import Vector3, centroid3, fits_in_open_halfspace, max_pairwise_distance3
from .workloads3 import (
    lattice_configuration3,
    line_configuration3,
    random_connected_configuration3,
)

__all__ = [
    "AsyncSimulation3Config",
    "Configuration3",
    "KKNPS3Algorithm",
    "Kernel3",
    "Simulation3AsyncResult",
    "Simulation3Config",
    "Simulation3Result",
    "Snapshot3",
    "Vector3",
    "build_snapshot3",
    "centroid3",
    "edges_preserved3",
    "fits_in_open_halfspace",
    "fits_in_open_halfspace_array",
    "is_connected3",
    "lattice_configuration3",
    "line_configuration3",
    "max_pairwise_distance3",
    "positions_as_array3",
    "random_connected_configuration3",
    "run_simulation3",
    "run_simulation3_async",
    "visibility_edges3",
]
