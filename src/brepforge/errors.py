"""Exception types shared across the generator pipeline."""


class BrepForgeError(Exception):
    """Base class for all generator errors."""


class InvalidFootprintError(BrepForgeError):
    """Loop has fewer than 4 vertices, an edge that is not axis-parallel, or zero area."""


class MustCleanFirstError(BrepForgeError):
    """`classify_vertex` met a collinear or coincident triple.

    Footprints from `from_rect` and `union_rect` are corner-only, so only a
    hand-built loop raises this.
    """


class CollisionError(BrepForgeError):
    """Interiors of two shapes overlap."""


class ConflictError(BrepForgeError):
    """Union would be non-simple, pinched, or touch only partially/point-wise."""


class ProductionInfeasibleError(BrepForgeError):
    """No legal room rectangle fits at the chosen vertex."""


class GrowthFailedError(BrepForgeError):
    """Grammar produced fewer than two rooms; sample must be discarded."""


class InconsistentPlanError(BrepForgeError):
    """Room rectangles do not tile the storey footprint exactly."""


class UnreachableRoomError(BrepForgeError):
    """Room adjacency graph is disconnected; no door layout can fix access."""


class InvalidExtrusionError(BrepForgeError):
    """`solid_from_boxes` got no material boxes, or none left after the voids."""


class BooleanFailureError(BrepForgeError):
    """Opening box does not fit inside its wall."""


class AssemblyInconsistencyError(BrepForgeError):
    """Building-level construction invariant violated (e.g. no wall fits the entrance)."""


class EmptyMeshError(BrepForgeError):
    """Triangle mesh has zero total area; cannot sample points."""


class MalformedInputError(BrepForgeError):
    """An input file is not JSON or lacks the fields its format needs."""
