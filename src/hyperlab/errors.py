"""Exception hierarchy shared by all hyperlab modules."""


class HyperlabError(Exception):
    """Base class for all package errors."""


class CoordinateSingularity(HyperlabError):
    """Metric evaluated too close to a coordinate singularity (horizon or r=0)."""


class UnsupportedLevel(HyperlabError):
    """Requested jet level is not available."""


class StepFailure(HyperlabError):
    """Adaptive integrator could not meet the requested tolerance."""


class SingularityTruncated(HyperlabError):
    """Geodesic data requested beyond the point where integration was truncated."""


class OutOfRange(HyperlabError):
    """Requested rho lies outside the integrated range of a record."""


class CentralLineDegenerate(HyperlabError):
    """Radial frame vectors are undefined on the central line (rtilde ~ 0)."""


class SeedRegionTooSmall(HyperlabError):
    """Geodesic leaves the flat core before the minimum admissible seed rho."""


class FanTooCoarse(HyperlabError):
    """Fan grid spacing is too coarse for finite-difference use."""


class Unreachable(HyperlabError):
    """No rapidity solves the leaf/level-set equation on the admissible bracket."""


class BracketFailure(HyperlabError):
    """Root bracketing failed (e.g. monotonicity violated on the bracket)."""


class MissingK(HyperlabError):
    """Second fundamental form required but not populated."""


class BadTetrad(HyperlabError):
    """Null tetrad does not satisfy its normalization invariants."""


class Horizon(HyperlabError):
    """Closed-form expression evaluated at or inside the horizon."""


class OutsideZs(HyperlabError):
    """Point lies outside the exact exterior zone where the identity applies."""


class SphereExitsZone(HyperlabError):
    """Cone-sphere has nodes outside the exact exterior zone."""


class CFLViolation(HyperlabError):
    """Time step violates the CFL constraint."""


class UnstableDetected(HyperlabError):
    """Discrete energy grew beyond the instability threshold."""


class InsufficientStates(HyperlabError):
    """Stored states do not cover the requested hyperboloid portion."""


class InsufficientResolution(HyperlabError):
    """Grid resolution too coarse for the requested differencing."""


class ConfigError(HyperlabError):
    """Run configuration failed validation."""


class GoldenMismatch(HyperlabError):
    """Output does not match the supplied golden files."""
