"""Computational-geometry substrate for the reproduction.

Everything the simulator, the algorithms and the adversarial
constructions need: points, segments, disks, smallest enclosing circles,
convex hulls, bounding boxes, angular sectors, the paper's reachable
region ``R^r_{Y0}(X0, X1)`` and local coordinate frames / distortions.
"""

from .angles import (
    angle_between,
    angle_difference,
    directions_from,
    extreme_directions,
    fits_in_open_halfplane,
    interior_angle,
    max_angular_gap,
    normalize_angle,
    normalize_angle_positive,
    sector_span,
    signed_turn_angle,
)
from .disk import Disk, disks_common_point, farthest_point_in_disk_from, lens_center
from .hull import (
    ConvexHull,
    convex_hull,
    convex_hull_array,
    hull_diameter,
    hull_perimeter,
    hull_radius,
    hulls_nested,
)
from .minbox import BoundingBox, minbox_center
from .point import (
    Point,
    PointLike,
    array_to_points,
    centroid,
    max_pairwise_distance,
    pairwise_distances,
    points_to_array,
)
from .region import ReachableRegion, offset_disk
from .sec import (
    critical_points,
    is_valid_enclosing_circle,
    sec_center,
    sec_radius,
    smallest_enclosing_circle,
)
from .segment import (
    Segment,
    clamp_motion,
    collinear,
    distance_point_to_line,
    foot_of_perpendicular,
    orientation,
    perpendicular_bisector_intersection,
)
from .tolerances import EPS
from .transforms import LocalFrame, SymmetricDistortion, random_frame

__all__ = [
    "EPS",
    "Point",
    "PointLike",
    "Segment",
    "Disk",
    "BoundingBox",
    "ConvexHull",
    "ReachableRegion",
    "LocalFrame",
    "SymmetricDistortion",
    "angle_between",
    "angle_difference",
    "array_to_points",
    "centroid",
    "clamp_motion",
    "collinear",
    "convex_hull",
    "convex_hull_array",
    "critical_points",
    "directions_from",
    "disks_common_point",
    "distance_point_to_line",
    "extreme_directions",
    "farthest_point_in_disk_from",
    "fits_in_open_halfplane",
    "foot_of_perpendicular",
    "hull_diameter",
    "hull_perimeter",
    "hull_radius",
    "hulls_nested",
    "interior_angle",
    "is_valid_enclosing_circle",
    "lens_center",
    "max_angular_gap",
    "max_pairwise_distance",
    "minbox_center",
    "normalize_angle",
    "normalize_angle_positive",
    "offset_disk",
    "orientation",
    "pairwise_distances",
    "perpendicular_bisector_intersection",
    "points_to_array",
    "random_frame",
    "sec_center",
    "sec_radius",
    "sector_span",
    "signed_turn_angle",
    "smallest_enclosing_circle",
]
