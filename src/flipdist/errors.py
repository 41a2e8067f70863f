"""Exception hierarchy shared by all flipdist modules."""


class FlipDistError(Exception):
    """Base class for all flipdist errors."""


class ValidationError(FlipDistError):
    """Input data violates a structural invariant."""


class BadIndex(ValidationError):
    """An edge or triangle references a point index that does not exist."""


class NotPlanar(ValidationError):
    """Two edges of the proposed triangulation properly cross."""


class NotMaximal(ValidationError):
    """Edge count differs from 3n - 3 - h, so the subdivision is not maximal."""


class TooLarge(ValidationError):
    """A size parameter exceeds what the coordinate bounds allow."""


class EdgeAbsent(FlipDistError):
    """The requested edge is not part of the triangulation."""


class NotFlippable(FlipDistError):
    """The edge is a hull edge or its quadrilateral is not strictly convex."""


class PointSetMismatch(FlipDistError):
    """The two triangulations are not defined over the same point set."""


class NoFlippableEdge(FlipDistError):
    """The triangulation admits no flip at all (point set has a unique
    triangulation, e.g. a bare triangle)."""


class ExhaustedRetries(FlipDistError):
    """The random point generator hit its retry budget without producing a
    valid general-position point set."""


class InvalidAt(FlipDistError):
    """Replaying a flip sequence failed at step ``index``: the underlying
    edge is not flippable there, or the flip produced a different edge."""

    def __init__(self, index: int, reason: str = ""):
        self.index = index
        msg = f"flip sequence invalid at step {index}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class InstanceSyntaxError(FlipDistError):
    """The instance file is malformed at ``line`` (1-based)."""

    def __init__(self, line: int, reason: str):
        self.line = line
        super().__init__(f"line {line}: {reason}")
