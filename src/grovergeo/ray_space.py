"""Rays of a finite-dimensional Hilbert space and the Fubini-Study geometry.

A ray is a nonzero vector up to complex rescaling, i.e. a point of complex
projective space.  This module provides the ray/unit-vector types, a gauge
fixing that makes ray equality testable, chart coordinates, the Fubini-Study
distance and line element, horizontal-lift diagnostics, and closed-form
geodesics between orthonormal endpoints.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import (
    ChartUndefined,
    DimensionError,
    DomainError,
    GeodesicBasisError,
    InsufficientSamples,
    InvalidRay,
    TangentError,
)

__all__ = [
    "Ray",
    "UnitVector",
    "InhomogeneousChart",
    "canonical_form",
    "inhomogeneous",
    "transition_probability",
    "fs_distance",
    "geodesic_point",
    "horizontality_residual",
    "fs_line_element",
]

_UNIT_NORM_TOL = 1e-12
# _unit's range for the largest real or imaginary part of a vector.  From
# 2^-480 up, the sum of |z|^2 is at least 2^-960, whose last bit is 2^-1012;
# for up to 2^30 coordinates, rounding their 2^31 subnormal squares errs by
# at most 2^-1044, 2^-32 below that bit (2^-84 of the sum).  Up to 2^480,
# the sum of fewer than 2^60 coordinates' |z|^2 stays below 2^1021, an
# eighth of the overflow threshold 2^1024.
_SMALL_PART = 2.0**-480
_LARGE_PART = 2.0**480


def _ascoords(x, stack: bool = False) -> np.ndarray:
    """Coerce a Ray, UnitVector or array-like to a 1-D complex ndarray.

    With ``stack``, an array of more dimensions is kept as a stack of
    coordinate vectors along its last axis.
    """
    if isinstance(x, Ray):
        return x.coords
    arr = np.asarray(x, dtype=complex)
    if arr.ndim != 1 and not (stack and arr.ndim > 1):
        raise InvalidRay(f"expected a 1-D coordinate vector, got shape {arr.shape}")
    return arr


def _norm(z: np.ndarray):
    """Euclidean norm along the last axis, as a pairwise sum of |z|^2 whose rounding grows like log N.

    A float for one vector, an array for a stack.  The BLAS dot of
    ``np.linalg.norm`` errs like N, past the unit-norm check at 2^17.
    """
    squares = np.add.reduce((z * z.conj()).real, -1)
    return math.sqrt(squares) if z.ndim == 1 else np.sqrt(squares)


def _unit(arr) -> np.ndarray:
    """Unit vectors along the last axis of complex coordinates, as a fresh array.

    For one vector, one max and one min of its real and imaginary parts
    tell whether every part is finite and its largest part in
    [_SMALL_PART, _LARGE_PART], where the sum of |z|^2 neither overflows nor
    loses bits below the normal range.  Any other input, and a stack, is
    scanned row by row: a non-finite or all-zero row is rejected before any
    |z|^2 is taken, and a row out of range is first scaled, exactly, by the
    power of two that takes its largest part into [0.5, 1).  Every row is
    what it would be alone.
    """
    arr = np.ascontiguousarray(arr, dtype=np.complex128)
    parts = arr.view(np.float64)
    if arr.ndim == 1 and arr.size:
        hi, lo = np.maximum.reduce(parts), np.minimum.reduce(parts)
        # false for NaN
        if -_LARGE_PART <= lo <= hi <= _LARGE_PART and (hi >= _SMALL_PART or lo <= -_SMALL_PART):
            return arr / _norm(arr)
    if arr.size == 0:
        raise InvalidRay("all-zero coordinates do not define a ray")
    largest = np.abs(parts).max(axis=-1)
    if not np.isfinite(largest).all():
        raise InvalidRay("coordinates must be finite")
    if not largest.all():
        raise InvalidRay("all-zero coordinates do not define a ray")
    _, exponent = np.frexp(largest)
    exponent = np.where((largest < _SMALL_PART) | (largest > _LARGE_PART), -exponent, 0)
    arr = np.ldexp(parts, exponent[..., None]).view(np.complex128)
    norm = _norm(arr)
    return arr / (norm if arr.ndim == 1 else norm[..., None])


class Ray:
    """A point of projective space, stored as homogeneous coordinates.

    Parameters
    ----------
    coords : array_like of complex
        Homogeneous coordinates, length >= 2, not all zero.  The stored
        array is immutable; two rays describe the same state exactly when
        their canonical forms coincide.
    """

    __slots__ = ("_coords",)

    def __init__(self, coords):
        arr = np.array(coords, dtype=complex)
        if arr.ndim != 1:
            raise InvalidRay(f"coordinates must be 1-D, got shape {arr.shape}")
        if arr.size < 2:
            raise InvalidRay("a ray needs at least 2 homogeneous coordinates")
        if not np.all(np.isfinite(arr)):
            raise InvalidRay("coordinates must be finite")
        if not np.any(arr != 0):
            raise InvalidRay("all-zero coordinates do not define a ray")
        arr.flags.writeable = False
        self._coords = arr

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    @property
    def dim(self) -> int:
        return self._coords.size

    def __len__(self) -> int:
        return self._coords.size

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class UnitVector(Ray):
    """A concrete normalized representative of a ray.

    Unlike a bare :class:`Ray`, the overall phase of a ``UnitVector`` is
    meaningful: horizontality and geodesic constructions depend on it.
    """

    __slots__ = ()

    def __init__(self, coords):
        super().__init__(coords)
        norm = _norm(self._coords)
        if abs(norm - 1.0) > _UNIT_NORM_TOL:
            raise InvalidRay(f"norm {norm!r} is not 1 within {_UNIT_NORM_TOL}")


def _unit_vector(arr: np.ndarray) -> UnitVector:
    """``UnitVector(_unit(arr))`` without a second copy, finiteness scan and norm.

    For 1-D complex coordinates of norm near 1 or above, whose quotient by
    ``_norm`` is a unit vector to the last bits; the public constructor
    checks any other input.
    """
    v = _unit(arr)
    if v.ndim != 1 or v.size < 2:
        raise InvalidRay(f"a ray needs at least 2 homogeneous coordinates, got shape {v.shape}")
    v.flags.writeable = False
    out = UnitVector.__new__(UnitVector)
    out._coords = v
    return out


class InhomogeneousChart:
    """Affine chart coordinates of a ray: ratios z_l / z_pivot, l != pivot."""

    __slots__ = ("_pivot", "_values")

    def __init__(self, pivot: int, values):
        self._pivot = int(pivot)
        arr = np.array(values, dtype=complex)
        arr.flags.writeable = False
        self._values = arr

    @property
    def pivot(self) -> int:
        return self._pivot

    @property
    def values(self) -> np.ndarray:
        return self._values

    def to_ray(self) -> Ray:
        """Reconstruct homogeneous coordinates with z_pivot = 1."""
        out = np.empty(self._values.size + 1, dtype=complex)
        out[: self._pivot] = self._values[: self._pivot]
        out[self._pivot] = 1.0
        out[self._pivot + 1 :] = self._values[self._pivot :]
        return Ray(out)

    def __repr__(self) -> str:
        return f"InhomogeneousChart(pivot={self._pivot}, dim={self._values.size + 1})"


def canonical_form(r: Ray | np.ndarray) -> UnitVector:
    """Gauge-fix a ray to a unique unit vector.

    The representative has unit norm and its largest-magnitude coordinate
    (ties broken by lowest index) is real and nonnegative, so equivalent
    rays map to identical outputs up to roundoff.

    Parameters
    ----------
    r : Ray or array_like
        Homogeneous coordinates.

    Returns
    -------
    UnitVector
    """
    v = _unit(_ascoords(r))
    mags = np.abs(v)
    j = int(np.argmax(mags))  # argmax takes the first maximum: lowest index
    v = v * np.conj(v[j] / mags[j])
    v[j] = mags[j]  # kill the residual imaginary part exactly
    return _unit_vector(v)


def inhomogeneous(r: Ray | np.ndarray, pivot: int) -> InhomogeneousChart:
    """Chart coordinates z_l / z_pivot for l != pivot, in index order."""
    arr = _ascoords(r)
    pivot = int(pivot)
    if not 0 <= pivot < arr.size:
        raise ChartUndefined(f"pivot {pivot} outside [0, {arr.size})")
    # scale-free zero test: compare against the canonical (unit-norm) form
    if abs(canonical_form(arr).coords[pivot]) <= 1e-14:
        raise ChartUndefined(f"coordinate {pivot} vanishes; chart undefined there")
    ratios = np.delete(arr, pivot) / arr[pivot]
    return InhomogeneousChart(pivot, ratios)


def transition_probability(a: Ray | np.ndarray, b: Ray | np.ndarray) -> float:
    """Transition probability |<a|b>|^2 between two rays (gauge invariant)."""
    va, vb = _ascoords(a), _ascoords(b)
    if va.size != vb.size:
        raise DimensionError(f"dimension mismatch: {va.size} vs {vb.size}")
    overlap = abs(np.vdot(_unit(va), _unit(vb)))
    return float(min(1.0, overlap) ** 2)


def fs_distance(a: Ray | np.ndarray, b: Ray | np.ndarray) -> float:
    """Fubini-Study distance 2*arccos|<a|b>| between two rays, in [0, pi].

    Evaluated as 4*atan2(||x - y||, ||x + y||) on the unit vectors x = a h,
    y = b conj(h), with h = sqrt(<a|b>/|<a|b>|) (Kahan, 2006, sec. 12), so it
    resolves distances far below the arccos's 3e-8: it is exactly symmetric,
    0 from a ray to itself and pi between rays of disjoint support.
    """
    va, vb = _unit(_ascoords(a)), _unit(_ascoords(b))
    if va.size != vb.size:
        raise DimensionError(f"dimension mismatch: {va.size} vs {vb.size}")
    overlap = np.vdot(va, vb)
    half = np.sqrt(overlap / abs(overlap)) if overlap != 0 else 1.0
    # in place: _unit returned fresh arrays, and a 2^20-long temporary costs
    # as much as the arithmetic on it
    va *= half  # x
    vb *= np.conj(half)  # y
    diff = va - vb
    va += vb
    return 4.0 * math.atan2(_norm(diff), _norm(va))


def geodesic_point(p1, p2, s: float) -> UnitVector:
    """Point at arc length ``s`` along the geodesic from ``p1`` toward ``p2``.

    Parameters
    ----------
    p1, p2 : UnitVector or array_like
        Orthonormal endpoints: finite, unit norm, <p1|p2> = 0 within 1e-10.
    s : float
        Arc length in [0, pi].  The curve cos(s/2) p1 + sin(s/2) p2 is the
        horizontal unit-speed geodesic with fs_distance(.,p1) = s.

    Returns
    -------
    UnitVector
    """
    v1, v2 = _ascoords(p1), _ascoords(p2)
    if v1.size != v2.size:
        raise DimensionError(f"dimension mismatch: {v1.size} vs {v2.size}")
    if not (np.isfinite(v1).all() and np.isfinite(v2).all()):  # before the norm, whose |inf|^2 warns
        raise InvalidRay("geodesic endpoints must be finite")
    if abs(_norm(v1) - 1.0) > 1e-10 or abs(_norm(v2) - 1.0) > 1e-10:
        raise GeodesicBasisError("geodesic endpoints must be unit vectors")
    if abs(np.vdot(v1, v2)) > 1e-10:
        raise GeodesicBasisError("geodesic endpoints must be orthogonal")
    s = float(s)
    if not 0.0 <= s <= np.pi:
        raise DomainError(f"arc length {s} outside [0, pi]")
    out = np.cos(0.5 * s) * v1 + np.sin(0.5 * s) * v2
    return _unit_vector(out)


def horizontality_residual(samples) -> float:
    """Largest violation of the discrete horizontality condition.

    For an ordered sequence of unit vectors psi_k the residual is
    max_k |Im <psi_k | psi_{k+1} - psi_k>|.  It vanishes (to sampling
    accuracy) exactly when the sequence samples a horizontal lift, i.e.
    one free of dynamical phase.
    """
    vecs = [_ascoords(s) for s in samples]
    if len(vecs) < 3:
        raise InsufficientSamples(f"need at least 3 samples, got {len(vecs)}")
    dim = vecs[0].size
    if any(v.size != dim for v in vecs):
        raise DimensionError("samples must share one dimension")
    if not all(np.all(np.isfinite(v)) for v in vecs):
        raise InvalidRay("samples must be finite")
    worst = 0.0
    for va, vb in zip(vecs[:-1], vecs[1:]):
        overlap = np.vdot(va, vb)
        if abs(overlap) <= 1e-12:
            raise DomainError("consecutive samples are orthogonal; lift phase unconstrained")
        worst = max(worst, abs(np.vdot(va, vb - va).imag))
    return float(worst)


def fs_line_element(psi, dpsi) -> float:
    """Squared Fubini-Study line element for a displacement of a unit vector.

    Parameters
    ----------
    psi : UnitVector or array_like
        Base point, unit norm.
    dpsi : array_like of complex
        Displacement tangent to the unit sphere: Re <psi|dpsi> = 0 within
        1e-8.  A pure gauge displacement i*eps*psi has zero length.

    Returns
    -------
    float
        ds^2 = 4 (<dpsi|dpsi> - (Im <psi|dpsi>)^2), the squared distance
        between the rays of psi and psi + dpsi to second order.
    """
    v = _ascoords(psi)
    dv = np.asarray(dpsi, dtype=complex)
    if dv.ndim != 1 or dv.size != v.size:
        raise DimensionError(f"displacement shape {dv.shape} does not match dim {v.size}")
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(dv))):
        raise InvalidRay("base point and displacement must be finite")
    if abs(_norm(v) - 1.0) > 1e-10:
        raise InvalidRay("base point must be a unit vector")
    cross = np.vdot(v, dv)
    if abs(cross.real) > 1e-8:
        raise TangentError(f"Re<psi|dpsi> = {cross.real!r} violates norm preservation")
    ds2 = 4.0 * (np.vdot(dv, dv).real - cross.imag**2)
    return float(max(0.0, ds2))
