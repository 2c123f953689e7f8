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


class InconsistentPlanError(BrepForgeError):
    """Room rectangles do not tile the storey footprint exactly."""


class InvalidExtrusionError(BrepForgeError):
    """`solid_from_boxes` got no material boxes, or none left after the voids."""


class Discard(BrepForgeError):
    """A sample stream that yields no building, and why: ``reason`` is its
    `discards.csv` reason, one of ``REASONS``."""

    REASONS = ("growth-failed", "room-filter", "unreachable-room", "boolean-failure")

    def __init__(self, reason: str, message: str):
        if reason not in self.REASONS:
            raise ValueError(f"unknown discard reason {reason!r}")
        super().__init__(message)
        self.reason = reason


class EmptyMeshError(BrepForgeError):
    """Triangle mesh has zero total area; cannot sample points."""


class MalformedInputError(BrepForgeError):
    """An input file is not JSON or lacks the fields its format needs."""
