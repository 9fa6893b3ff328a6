"""Exception types shared across the package."""

__all__ = [
    "GrovergeoError",
    "InvalidRay",
    "ChartUndefined",
    "DimensionError",
    "GeodesicBasisError",
    "InsufficientSamples",
    "TangentError",
    "SizeError",
    "DegenerateKernel",
    "DomainError",
    "UnreachableTarget",
    "ApproxDomainError",
    "ConvergenceError",
]


class GrovergeoError(Exception):
    """Base class for all package-specific errors."""


class InvalidRay(GrovergeoError, ValueError):
    """Ray construction failed (zero vector, bad shape, non-finite entries)."""


class ChartUndefined(GrovergeoError, ValueError):
    """Inhomogeneous chart requested at a (near-)zero pivot coordinate."""


class DimensionError(GrovergeoError, ValueError):
    """Operands have incompatible or unexpected dimensions."""


class GeodesicBasisError(GrovergeoError, ValueError):
    """Geodesic endpoints are not an orthonormal pair."""


class InsufficientSamples(GrovergeoError, ValueError):
    """Too few samples to evaluate a discrete curve functional."""


class TangentError(GrovergeoError, ValueError):
    """Tangent vector violates the norm-preservation constraint."""


class SizeError(GrovergeoError, ValueError):
    """Problem size outside the supported range (memory or domain guard)."""


class DegenerateKernel(GrovergeoError, ValueError):
    """Search kernel has zero target overlap: no rotation is generated."""


class DomainError(GrovergeoError, ValueError):
    """Scalar argument outside its mathematical domain."""


class UnreachableTarget(GrovergeoError, ValueError):
    """An amplitude distribution gives some target zero overlap."""


class ApproxDomainError(GrovergeoError, ValueError):
    """Closed-form approximation requested outside its validity region."""


class ConvergenceError(GrovergeoError, RuntimeError):
    """An iterative numerical procedure failed to converge."""
