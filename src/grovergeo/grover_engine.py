"""Grover search dynamics and its geodesic generalization.

States are evolved either by the exact closed form (a rotation by a fixed
angle per query inside a two-dimensional real span) or by literally applying
the kernel, a product of two reflections.  Reflections are realized as
rank-1 vector updates, never as dense matrices, so 2^20 amplitudes remain
cheap.  The same machinery covers kernels built from an arbitrary start
state, where the step angle is set by the start state's target overlap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateKernel,
    DomainError,
    InvalidRay,
    SizeError,
    UnreachableTarget,
)
from .ray_space import UnitVector, _ascoords, _unit, _unit_vector

__all__ = [
    "SearchInstance",
    "SearchMetrics",
    "GeodesicKernelParams",
    "average_state",
    "grover_state",
    "success_probability",
    "optimal_query_count",
    "generalized_state",
    "search_metrics",
    "worst_case_time",
    "fourier_state",
]

_MAX_QUBITS = 24  # memory guard for materialized state vectors
_MIN_OVERLAP = float(np.finfo(float).tiny)  # smallest target overlap search_metrics takes


def _check_qubits(n: int) -> int:
    n = int(n)
    if not 1 <= n <= _MAX_QUBITS:
        raise SizeError(f"qubit count {n} outside [1, {_MAX_QUBITS}]")
    return n


# Conversions between the rotation angle per query, the path angle t (success
# probability sin(t)**2) and the unmarked level u; u = 1 starts the path.


def _rotation_angle(size: int) -> float:
    return 2.0 * math.asin(size**-0.5)


def _path_angle(size: int, u: float) -> float:
    return math.atan2(1.0, u * math.sqrt(size - 1))


def _path_level(size: int, t: float) -> float:
    return math.cos(t) / (math.sin(t) * math.sqrt(size - 1))


@dataclass(frozen=True)
class SearchInstance:
    """An unstructured search problem: n qubits, one marked basis state."""

    n: int
    target: int

    def __post_init__(self):
        _check_qubits(self.n)
        if not 0 <= int(self.target) < self.size:
            raise DomainError(f"target {self.target} outside [0, {self.size})")

    @property
    def size(self) -> int:
        """Number of basis states, 2**n."""
        return 1 << int(self.n)

    @property
    def rotation_angle(self) -> float:
        """Angle advanced per query; its half-angle sine is 1/sqrt(size)."""
        return _rotation_angle(self.size)


@dataclass(frozen=True)
class SearchMetrics:
    """Distance bookkeeping of one search kernel, or of an array of them.

    speed: Fubini-Study distance covered per query (radians).
    distance: total distance from the start state to the target (radians).
    queries: distance / speed, the (real) number of queries to arrive.
    """

    speed: float | np.ndarray
    distance: float | np.ndarray
    queries: float | np.ndarray


def average_state(n: int) -> UnitVector:
    """Uniform superposition over all 2**n basis states."""
    n = _check_qubits(n)
    size = 1 << n
    return UnitVector(np.full(size, size**-0.5, dtype=complex))


def _basis_state(size: int, index: int) -> np.ndarray:
    out = np.zeros(size, dtype=complex)
    out[index] = 1.0
    return out


def grover_state(inst: SearchInstance, k: int, mode: str = "closed_form") -> UnitVector:
    """State after k queries, by closed form or by operator application.

    ``closed_form`` evaluates cos((k+1/2)theta)|rest> + sin((k+1/2)theta)|target>
    where |rest> is the uniform superposition over unmarked states.
    ``operator`` starts from the average state and applies the kernel k
    times: flip the sign of the target amplitude, reflect about the average
    state, negate.  Both modes agree per amplitude to 1e-10.
    """
    k = int(k)
    if k < 0:
        raise DomainError(f"query count {k} must be >= 0")
    size = inst.size
    if mode == "closed_form":
        ang = (k + 0.5) * inst.rotation_angle
        out = np.full(size, np.cos(ang) / np.sqrt(size - 1), dtype=complex)
        out[inst.target] = np.sin(ang)
        return _unit_vector(out)
    if mode == "operator":
        v = np.full(size, size**-0.5, dtype=complex)
        for _ in range(k):
            v[inst.target] = -v[inst.target]
            v = (2.0 * v.sum() / size) - v
        return _unit_vector(v)
    raise DomainError(f"unknown mode {mode!r}")


def success_probability(inst: SearchInstance, k: int) -> float:
    """Probability of measuring the target after k queries."""
    k = int(k)
    if k < 0:
        raise DomainError(f"query count {k} must be >= 0")
    return float(np.sin((k + 0.5) * inst.rotation_angle) ** 2)


def optimal_query_count(N: int) -> int:
    """Integer query count whose step angle lands closest to success.

    Rounds pi/(2*theta) - 1/2 and then confirms against both neighbors,
    so the returned k maximizes the success probability locally.
    """
    N = int(N)
    if N < 4:
        raise SizeError(f"search space size {N} must be >= 4")
    theta = _rotation_angle(N)
    k0 = round(np.pi / (2.0 * theta) - 0.5)
    candidates = sorted({max(k0 - 1, 0), max(k0, 0), k0 + 1})
    scores = [np.sin((k + 0.5) * theta) ** 2 for k in candidates]
    return int(candidates[int(np.argmax(scores))])


class GeodesicKernelParams:
    """Kernel data for searching from an arbitrary start state.

    Construction phase-aligns the start state so that its overlap with the
    target basis state is real and positive; that overlap q fixes the step
    angle via sin(angle/2) = q.

    Attributes
    ----------
    overlap : float
        q, the aligned target overlap, in (0, 1].
    angle : float
        2*arcsin(q), the rotation advanced per query.
    state : numpy.ndarray
        The aligned unit start state (read-only).
    """

    __slots__ = ("overlap", "angle", "state")

    def __init__(self, state, target: int):
        v = _ascoords(state)
        if not v.any():
            raise DegenerateKernel("zero start state")
        try:
            v = _unit(v)
        except InvalidRay as exc:
            raise DomainError("start state must be a finite vector") from exc
        target = int(target)
        if not 0 <= target < v.size:
            raise DomainError(f"target {target} outside [0, {v.size})")
        q = abs(v[target])
        if q <= 1e-12:
            raise DegenerateKernel("start state has zero target overlap: no rotation")
        v *= np.conj(v[target]) / q
        v[target] = q  # exact by construction
        v.flags.writeable = False
        object.__setattr__(self, "overlap", float(min(1.0, q)))
        object.__setattr__(self, "angle", float(2.0 * np.arcsin(min(1.0, q))))
        object.__setattr__(self, "state", v)

    def __setattr__(self, name, value):
        raise AttributeError("GeodesicKernelParams is immutable")

    def __repr__(self) -> str:
        return f"GeodesicKernelParams(overlap={self.overlap:.6g}, dim={self.state.size})"


def generalized_state(
    params: GeodesicKernelParams, target: int, k: int, mode: str = "closed_form"
) -> UnitVector:
    """State after k applications of the kernel built from ``params``.

    The closed form is cos((k+1/2)*angle)|rest> + sin((k+1/2)*angle)|target>
    with |rest> the normalized component of the start state orthogonal to
    the target.  ``operator`` mode applies the two reflections literally.
    """
    k = int(k)
    if k < 0:
        raise DomainError(f"query count {k} must be >= 0")
    target = int(target)
    y = params.state
    if not 0 <= target < y.size:
        raise DomainError(f"target {target} outside [0, {y.size})")
    q = params.overlap
    if abs(y[target] - q) > 1e-9:
        raise DomainError("kernel parameters were not built for this target")
    if mode == "operator":
        v = y.copy()
        for _ in range(k):
            v[target] = -v[target]
            v = 2.0 * np.vdot(y, v) * y - v
        return _unit_vector(v)
    if mode != "closed_form":
        raise DomainError(f"unknown mode {mode!r}")
    ang = (k + 0.5) * params.angle
    w = _basis_state(y.size, target)
    if 1.0 - q * q < 1e-24:
        out = np.sin(ang) * w  # start state is the target ray itself
    else:
        rest = (y - q * w) / np.sqrt(1.0 - q * q)
        out = np.cos(ang) * rest + np.sin(ang) * w
    return _unit_vector(out)


def search_metrics(q) -> SearchMetrics:
    """Speed, total distance and query count for target overlap q.

    ``q`` may be an array, and the metrics are then arrays of its shape; a
    scalar ``q`` gives floats.  Every overlap must lie in [tiny, 1], tiny
    being the smallest normal float: below it pi/(4q) overflows.
    """
    q = np.asarray(q, dtype=float)
    bad = ~((q >= _MIN_OVERLAP) & (q <= 1.0))  # NaN is bad too
    if bad.any():
        raise DomainError(f"overlap {q[bad][0]} outside [{_MIN_OVERLAP}, 1]")
    half = np.arcsin(q)
    speed = 4.0 * half
    distance = np.pi - 2.0 * half
    metrics = (speed, distance, distance / speed)
    return SearchMetrics(*(float(m) if q.ndim == 0 else m for m in metrics))


def worst_case_time(amplitude_magnitudes) -> float:
    """Query count to reach the least-overlapped target of a distribution.

    The argument is a list of nonnegative real magnitudes whose squares sum
    to 1.  Evaluates the query count at the smallest magnitude; the result
    is minimized over distributions exactly by the uniform one.
    """
    mags = np.asarray(amplitude_magnitudes, dtype=float)
    if mags.ndim != 1 or mags.size < 2:
        raise DomainError("need a 1-D distribution over at least 2 states")
    if np.any(mags < 0):
        raise DomainError("magnitudes must be nonnegative")
    if abs(np.sum(mags**2) - 1.0) > 1e-10:
        raise DomainError("squared magnitudes must sum to 1 within 1e-10")
    q_s = float(mags.min())
    if q_s == 0.0:
        raise UnreachableTarget("smallest magnitude is zero; that target is unreachable")
    return search_metrics(q_s).queries


def fourier_state(n: int, p: int) -> UnitVector:
    """Fourier basis state with frequency p: amplitudes e^{2*pi*i*p*x/N}/sqrt(N).

    Every Fourier state overlaps every basis state with magnitude 1/sqrt(N),
    so any of them starts a search at the uniform speed.
    """
    n = _check_qubits(n)
    size = 1 << n
    p = int(p)
    if not 0 <= p < size:
        raise DomainError(f"frequency {p} outside [0, {size})")
    x = np.arange(size)
    out = np.exp(2j * np.pi * p * x / size) / np.sqrt(size)
    return _unit_vector(out)
