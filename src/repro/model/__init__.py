"""Robot, configuration and error models for the OBLOT reproduction."""

from .configuration import Configuration
from .errors import MotionModel, PerceptionModel
from .robot import KinematicArrays, Robot
from .snapshot import Snapshot, build_snapshot
from .types import Activation, ActivationRecord, Phase, RoundBatch, SchedulerClass
from .visibility import (
    Edge,
    broken_edges,
    connected_components,
    edges_preserved,
    is_connected,
    is_linearly_separable,
    max_edge_stretch,
    neighbours_of,
    strong_visibility_edges,
    visibility_edges,
)

__all__ = [
    "Activation",
    "ActivationRecord",
    "Configuration",
    "Edge",
    "KinematicArrays",
    "MotionModel",
    "PerceptionModel",
    "Phase",
    "Robot",
    "RoundBatch",
    "SchedulerClass",
    "Snapshot",
    "broken_edges",
    "build_snapshot",
    "connected_components",
    "edges_preserved",
    "is_connected",
    "is_linearly_separable",
    "max_edge_stretch",
    "neighbours_of",
    "strong_visibility_edges",
    "visibility_edges",
]
