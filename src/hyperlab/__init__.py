"""hyperlab: intrinsic hyperboloidal foliations of static spacetimes, at desk scale."""

__version__ = "0.1.0"

from .metric import MetricModel, MetricJet, metric_at, curvature_at

__all__ = [
    "MetricModel",
    "MetricJet",
    "metric_at",
    "curvature_at",
    "__version__",
]
