"""Exception hierarchy for confocalfit.

Every error carries a stable machine-readable ``code`` so the CLI can map
library failures onto JSON error reports without string matching.
"""


class ConfocalFitError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class UsageError(ConfocalFitError, ValueError):
    """An argument the caller can correct (CLI exit 1, not 2); also a ValueError."""

    code = "usage-error"


class RankDeficient(ConfocalFitError):
    """Point set does not span the ambient space (centered operator singular)."""

    code = "rank-deficient"


class DegenerateSpectrum(ConfocalFitError):
    """Two principal moments coincide; the pencil poles would collide."""

    code = "degenerate-spectrum"


class NotSymmetric(ConfocalFitError):
    code = "not-symmetric"


class DirectionParallel(ConfocalFitError):
    """Measurement direction is parallel to the hyperplane."""

    code = "direction-parallel"


class DirectionDegenerate(ConfocalFitError):
    code = "direction-degenerate"


class PointNotOnQuadric(ConfocalFitError):
    code = "point-not-on-quadric"


class PointOutOfRange(ConfocalFitError):
    """Query point so far out that its Jacobi coordinates or moments overflow."""

    code = "point-out-of-range"


class InvalidSemiaxes(ConfocalFitError):
    code = "invalid-semiaxes"


class NonUnitMasses(ConfocalFitError):
    """Statistic requested for a point set whose masses are not all one."""

    code = "non-unit-masses"


class BadCovariance(ConfocalFitError):
    code = "bad-covariance"


class BadDegrees(ConfocalFitError):
    code = "bad-degrees"


class ZeroVector(ConfocalFitError):
    code = "zero-vector"


class NoEnvelope(ConfocalFitError):
    """No hyperplane attains the requested moment level."""

    code = "no-envelope"


class NoIntersection(ConfocalFitError):
    code = "no-intersection"


class NotEllipsoidType(ConfocalFitError):
    code = "not-ellipsoid-type"


class DegenerateFlat(ConfocalFitError):
    """Tangency parameters of the flat are not simple roots."""

    code = "degenerate-flat"


class BadFlatDimension(ConfocalFitError, ValueError):
    """Flat dimension outside 1..k-1 for this data's k."""

    code = "bad-flat-dimension"


class MemberOnPole(ConfocalFitError, ValueError):
    """Pencil parameter on a pole: that member is a coordinate hyperplane."""

    code = "member-on-pole"


class ParseError(ConfocalFitError):
    code = "parse-error"


class EmptyDataset(ConfocalFitError):
    code = "empty-dataset"


class NotPlanar(ConfocalFitError):
    """Figure rendering is only available for two-dimensional data."""

    code = "not-planar"


class BoundTooSmall(ConfocalFitError):
    """Regularization bound so small that the fit's moment overflows a float."""

    code = "bound-too-small"


class L1DimensionTooLarge(ConfocalFitError):
    """Too many coordinates for the L1 solver's search over all faces."""

    code = "l1-dimension-too-large"
