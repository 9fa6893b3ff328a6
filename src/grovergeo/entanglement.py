"""Geometric entanglement along the quantum-search path.

The states of interest interpolate between the uniform superposition and a
single marked basis state: every unmarked amplitude equals a common level
``u`` while the marked amplitude is 1 (before normalization).  Their
distance to the nearest product state is computed four independent ways --
a two-qubit closed form, a stationarity root-finder, a small-``u``
approximation, and an oracle that searches the product states directly and
never assumes the path structure -- and
the module also carries the pairwise measures (concurrence, residual
entropy) used to cross-check the two-qubit case.

Conventions: qubit ``j`` of basis index ``x`` is bit ``n - 1 - j`` (index 0
is |00...0>, index N-1 the marked state |11...1>).  A coherent product
state has per-qubit coordinates (v, 1), so its amplitude at ``x`` is
``v ** zeros(x)``.  Entanglement E is the Fubini-Study distance to the
product state a route finds, in Kahan's form 4 atan2(|x - y|, |x + y|),
exact near 0: ``fs_distance`` on 2^n vectors for the oracle, a sum over
the n + 1 bit-count classes for the path routes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce
from itertools import pairwise

import numpy as np

from . import kernels
from .errors import (
    ApproxDomainError,
    ConvergenceError,
    DimensionError,
    DomainError,
    InvalidRay,
)
from .grover_engine import _check_qubits, _path_angle, _path_level, _rotation_angle
from .ray_space import Ray, UnitVector, _ascoords, _unit, _unit_vector, fs_distance
from .segre import max_quadric_residual

__all__ = [
    "GroverPathPoint",
    "CoherentProduct",
    "EntanglementResult",
    "grover_path_ray",
    "coherent_overlap",
    "stationary_parameter",
    "extremum_roots",
    "entanglement_exact_2q",
    "entanglement_exact",
    "entanglement_approx",
    "entanglement_approx_curve",
    "entanglement_grid_oracle",
    "closest_product_overlap",
    "half_way_angle",
    "triangle_envelope",
    "critical_qubit_number",
    "reduced_density_2q",
    "concurrence",
    "concurrence_from_quadric",
    "concurrence_along_path",
    "pair_entropy_from_concurrence",
    "partial_entropy",
]

_SYMMETRY_TOL = 1e-10
_ASCENT_TOL = 1e-13
_ASCENT_STARTS = 32  # random starts, beside the uniform and the greedy one
_ASCENT_MAX_SWEEPS = 500
_ORACLE_RESOLUTION = 64  # coarse (r, chi) grid size of each symmetric chart
_POLISH_STARTS = 4  # grid maxima, screened row starts and polished points kept, per chart
_POLISH_STEPS = 40
_SCREEN_STEPS = 3  # Newton steps each row start takes before the best are kept
_POLISH_TOL = 1e-15  # largest step of a converged polish
_POLISH_SHIFT = 1e-9  # relative curvature kept along a flat direction


def _zeros_per_index(n: int) -> np.ndarray:
    """Number of zero bits of each basis index, as an int64 array of size 2**n."""
    z = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        z = np.concatenate([z + 1, z])
    return z


def _chart(x):
    """Homogeneous pair (x, 1) for |x| <= 1, else (1, 1/x): no power of either entry overflows."""
    return (x, 1.0) if abs(x) <= 1.0 else (1.0, 1.0 / x)


def _class_amplitudes(a, b, n: int) -> np.ndarray:
    """a^k b^(n - k) for k = 0..n: the amplitude on each index with k zero bits of the product (a, b)^n.

    ``a`` and ``b`` broadcast against the last axis; ``[..., _zeros_per_index(n)]``
    spreads the n + 1 classes over the 2^n indices.
    """
    k = np.arange(n + 1)
    return a**k * b ** (n - k)


def _angle_level(size: int, t: float) -> float:
    """Unmarked level at path angle ``t`` on ``size`` basis states; sin(t)**2 is the success probability.

    ``t`` runs from half the elementary rotation angle (uniform state, u = 1)
    to pi/2 (marked state, u = 0); rounding spill of up to 1e-12 past either
    end is clipped.
    """
    t_min = _rotation_angle(size) / 2.0
    if not t_min - 1e-12 <= t <= math.pi / 2.0 + 1e-12:
        raise DomainError(f"path angle {t!r} outside [{t_min!r}, {math.pi / 2.0!r}]")
    t = min(max(t, t_min), math.pi / 2.0)
    # the angle range maps exactly onto u in [1, 0]; clip rounding spill
    return min(1.0, max(0.0, _path_level(size, t)))


@dataclass(frozen=True)
class GroverPathPoint:
    """One state of the search path: unmarked level ``u`` on ``n`` qubits.

    ``u = 1`` is the uniform superposition, ``u = 0`` the marked state.
    The ray (u, ..., u, 1) is built from ``_chart(u)``, as (level, marked).
    """

    n: int
    u: float

    def __post_init__(self):
        _check_qubits(self.n)
        try:
            # float() would parse text and read a bool as 0 or 1
            if not isinstance(self.u, float) and np.asarray(self.u).dtype.kind in "bSU":
                raise TypeError
            u = float(self.u)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"level must be a real number, got {self.u!r}") from exc
        if not math.isfinite(u) or u < 0.0:
            raise DomainError(f"level must be finite and >= 0, got {self.u!r}")
        object.__setattr__(self, "u", u)

    @classmethod
    def from_angle(cls, n: int, t: float) -> "GroverPathPoint":
        """Point at path angle ``t``; success probability is sin(t)**2.

        ``t`` runs from half the elementary rotation angle (uniform state)
        to pi/2 (marked state).
        """
        _check_qubits(n)
        return cls(n, _angle_level(1 << n, t))

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def angle(self) -> float:
        """Path angle ``t`` with sin(t)**2 the success probability."""
        return _path_angle(self.size, self.u)

    @property
    def success_probability(self) -> float:
        level, marked = _chart(self.u)
        return marked**2 / ((self.size - 1) * level**2 + marked**2)

    def ray(self) -> UnitVector:
        return _unit_vector(_path_coords(self.n, [self.u])[0])


def _path_coords(n: int, us) -> np.ndarray:
    """Homogeneous coordinates of the path rays at the levels ``us``, one per row.

    Each row holds ``_chart(u)``'s level on the unmarked indices and its
    marked amplitude on the last, the marked one.  The caller normalises:
    one ray through ``_unit_vector``, a stack of rays through ``_unit``.
    """
    pairs = np.array([_chart(u) for u in us], dtype=np.complex128).reshape(-1, 2)
    z = np.empty((len(pairs), 1 << n), dtype=np.complex128)
    z[:] = pairs[:, :1]
    z[:, -1] = pairs[:, 1]
    return z


@dataclass(frozen=True)
class CoherentProduct:
    """Symmetric product state with per-qubit coordinates (v, 1), built from ``_chart(v)``."""

    n: int
    v: complex

    def __post_init__(self):
        _check_qubits(self.n)
        v = complex(self.v)
        if not math.isfinite(math.hypot(v.real, v.imag)):  # also |v|, which _chart takes
            raise DomainError(f"coordinate must have a finite modulus, got {self.v!r}")
        object.__setattr__(self, "v", v)

    @property
    def radius(self) -> float:
        return abs(self.v)

    @property
    def phase(self) -> float:
        return math.atan2(self.v.imag, self.v.real)

    def ray(self) -> UnitVector:
        return _unit_vector(_class_amplitudes(*_chart(self.v), self.n)[_zeros_per_index(self.n)])


@dataclass(frozen=True)
class EntanglementResult:
    """Entanglement value plus the nearest product state's coordinates.

    ``value`` is the Fubini-Study distance to the product the route found:
    (r_star e^{i chi_star}, 1)^n, or another product when ``r_star`` and
    ``chi_star`` are NaN: a general one, because the search did not go
    through the symmetric chart, or a symmetric one with some qubits
    flipped, found in a bit-flip frame.  ``root_count`` is None unless the
    root-finding route produced it.
    """

    value: float
    r_star: float
    chi_star: float
    method: str
    root_count: int | None = None


def grover_path_ray(n: int, u: float) -> UnitVector:
    """Unit vector of the path state with unmarked level ``u``."""
    return GroverPathPoint(n, u).ray()


def coherent_overlap(n: int, u: float, r: float, chi: float = 0.0) -> float:
    """Squared overlap of the path state (n, u) with the product (r e^{i chi}, 1)^n.

    Closed form of |<product|path>|^2; agrees with the literal inner
    product of the expanded vectors.  The level and the point r e^{i chi}
    are taken in ``_chart``'s homogeneous pairs, so no power overflows.
    """
    u = GroverPathPoint(n, u).u  # validates n, u
    r, chi = float(r), float(chi)
    if not math.isfinite(r) or r < 0.0:
        raise DomainError(f"radius must be finite and >= 0, got {r!r}")
    if not math.isfinite(chi):
        raise DomainError(f"phase must be finite, got {chi!r}")
    level, marked = _chart(u)
    a, b = _chart(r * complex(math.cos(chi), math.sin(chi)))
    top = b**n  # the marked state's product amplitude
    num = marked * top + level * ((a + b) ** n - top)
    den = (((1 << n) - 1) * level * level + marked * marked) * (abs(a) ** 2 + abs(b) ** 2) ** n
    return min(1.0, abs(num) ** 2 / den)


def stationary_parameter(n: int, r: float) -> float:
    """Level ``u`` at which radius ``r`` is a stationary point of the overlap.

    This is the inverse of the extremum condition: for the path state at
    the returned ``u``, the real-axis overlap P(r) has zero derivative at
    ``r``.  Monotone for n <= 6; develops a fold (local max/min pair) from
    n = 7 on, which is what makes the exact curve kink.
    """
    _check_qubits(n)
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"radius must lie in [0, 1], got {r!r}")
    den = (1.0 + r) ** (n - 1) * (1.0 - r) + r
    return r / den


def _stationarity(n: int, u: float, r: float) -> float:
    """u[(1+r)^(n-1)(1-r) + r] - r at ``r``, in exact integer arithmetic rounded once."""
    a, b = r.as_integer_ratio()
    c, d = u.as_integer_ratio()
    bn = b ** (n - 1)
    return (c * ((b + a) ** (n - 1) * (b - a) + a * bn) - d * a * bn) / (d * bn * b)


@cache
def _binomials(m: int) -> tuple[int, ...]:
    """C(m, k) for k = 0..m."""
    return tuple(math.comb(m, k) for k in range(m + 1))


def _piece_root(n: int, u: float, lo: float, hi: float, f_lo: float, f_hi: float, r: float) -> float:
    """The stationary radius inside [lo, hi], whose ends' exact values ``f_lo`` and ``f_hi`` differ in sign.

    Newton steps from ``r`` close a bracket on the sign of f to two adjacent
    floats, stepping to its midpoint when a step would leave it and one
    float across when a step stalls; the end of smaller |f| is the root.  A
    pass on f in floats, cheap but many ulps off where the root is
    ill-conditioned, starts a pass on f exact.
    """
    side = f_lo > 0.0  # the sign of f on lo's side of the root
    for exact in (False, True):
        (a, f_a), (b, f_b) = (lo, f_lo), (hi, f_hi)
        while True:
            value = _stationarity(n, u, r) if exact else u * ((1.0 + r) ** (n - 1) * (1.0 - r) + r) - r
            if value != 0.0 and (value > 0.0) == side:
                a, f_a = r, value
            else:
                b, f_b = r, value
            slope = u * ((1.0 + r) ** (n - 2) * (n - 2 - n * r) + 1.0) - 1.0
            step = r - value / slope if slope else math.nan
            if step == r:
                step = math.nextafter(r, b if r == a else a)
            if not a < step < b:
                step = a + (b - a) / 2.0
                if not a < step < b:
                    break
            r = step
        r = min((abs(f_a), a), (abs(f_b), b))[1]
    return r


def _stationary_radii(n: int, u: float) -> list[float]:
    """Sorted radii r in [0, 1] where f(r) = u[(1+r)^(n-1)(1-r) + r] - r changes sign or vanishes; 0 <= u <= 1.

    f is g(r)(u - ``stationary_parameter``(r)) with g > 0, and the slope of
    ``stationary_parameter`` has the sign of (n - 1) r^2 - (n - 2) r + 1.
    Past ``critical_qubit_number`` its roots, the fold edges, cut [0, 1]
    into three monotone pieces; the smaller is taken as 2 / ((n - 2) + s),
    s = sqrt(n^2 - 8n + 8), free of cancellation.  A piece holds a root exactly when the exact
    values of f at its ends differ in sign, and then only one; a root at a
    piece's end is kept once.  No 2^n vector is built, so ``n`` is not capped.
    """
    edges = [0.0, 1.0]
    if n > critical_qubit_number():
        big = (n - 2) + math.sqrt(n * n - 8 * n + 8)
        edges[1:1] = 2.0 / big, big / (2.0 * (n - 1))
    values = [_stationarity(n, u, e) for e in edges]
    roots = [e for e, f in zip(edges, values) if f == 0.0]
    for (lo, hi), (f_lo, f_hi) in zip(pairwise(edges), pairwise(values)):
        if f_lo != 0.0 and f_hi != 0.0 and (f_lo > 0.0) != (f_hi > 0.0):
            roots.append(_piece_root(n, u, lo, hi, f_lo, f_hi, u if lo == 0.0 else (lo + hi) / 2.0))
    return sorted(roots)


def extremum_roots(n: int, u: float) -> list[float]:
    """All radii r in [0, 1] stationary for the path state (n, u), sorted.

    The stationarity condition u[(1+r)^(n-1)(1-r) + r] = r is solved on
    each monotone piece of ``stationary_parameter``, whose ends, the fold
    edges, are known in closed form.  The exact signs of the condition at
    those ends say which pieces hold a root, one each.  Within a piece,
    bracketed Newton steps, first in floats and then on the exactly
    evaluated condition, close on two adjacent floats across its sign
    change, and the one nearer zero is the root, so a close root pair at
    the fold is neither merged nor missed.  A level u > 1 has no root:
    u[(1+r)^(n-1)(1-r) + r] >= ur > r on (0, 1].  One level per call.
    """
    u = GroverPathPoint(n, u).u
    return [] if u > 1.0 else _stationary_radii(n, u)


def _path_distance(n: int, u: float, r: float) -> float:
    """Fubini-Study distance from the path state (n, u) to the product (r, 1)^n.

    Kahan's 4 atan2(|x - y|, |x + y|), summed over the n + 1 classes of k
    zero bits: ``_binomials(n)[k]`` = C(n, k) indices each, path amplitude 1
    at k = 0 (the marked state) and u elsewhere, product amplitude r^k, both
    taken in ``_chart``'s pairs: (level, marked) for u, a^k b^(n - k) for r.
    The squared norms 1 + (2^n - 1) u^2 and (1 + r^2)^n agree bit for bit
    at u = r = 1 and u = r = 0, which read exactly 0.
    """
    level, marked = _chart(u)
    a, b = _chart(r)
    path_norm = math.sqrt(marked * marked + ((1 << n) - 1) * level * level)
    product_norm = math.sqrt((a * a + b * b) ** n)
    level, marked = level / path_norm, marked / path_norm
    diff = total = 0.0
    for k, c in enumerate(_binomials(n)):
        x, y = level if k else marked, a**k * b ** (n - k) / product_norm
        diff += c * (x - y) ** 2
        total += c * (x + y) ** 2
    return 4.0 * math.atan2(math.sqrt(diff), math.sqrt(total))


def entanglement_exact_2q(u: float) -> EntanglementResult:
    """Two-qubit entanglement of the path state, by the closed-form radius.

    The stationarity condition u r^2 + (1 - u) r - u = 0 has one root in
    [0, 1].  The overlap rises from r = 0, so that root is the nearest
    product's radius; it is taken in the form without cancellation.
    """
    u = GroverPathPoint(2, u).u
    if u > 1.0:
        raise DomainError(f"path level must lie in [0, 1], got {u!r}")
    r = 2.0 * u / ((1.0 - u) + math.sqrt((1.0 - u) ** 2 + 4.0 * u * u))
    return EntanglementResult(_path_distance(2, u, r), r, 0.0, "closed2q", None)


def entanglement_exact(n: int, u: float) -> EntanglementResult:
    """Entanglement of the path state from the stationarity roots.

    Takes the distance to the product at every stationary radius in
    ``_chart``'s first chart [0, 1] and keeps the nearest, the smaller r on a
    tie; the product phase is 0 because the path amplitudes are nonnegative.
    A level in [0, 1] has a root, since the condition reads u >= 0 at r = 0
    and u - 1 <= 0 at r = 1; only a level past 1 has none.
    """
    roots = extremum_roots(n, u)  # validates n and u
    u = float(u)
    if not roots:
        raise DomainError(f"path level must lie in [0, 1], got {u!r}")
    e, r_star = min((_path_distance(n, u, r), r) for r in roots)
    return EntanglementResult(e, r_star, 0.0, "rootfind", len(roots))


def entanglement_approx(n: int, u: float) -> EntanglementResult:
    """Small-level approximation: the distance to the product at r = u / (1 - (n-1) u).

    Only defined while (n - 1) u < 1; raises ApproxDomainError beyond.
    """
    u = GroverPathPoint(n, u).u
    if (n - 1) * u >= 1.0:
        raise ApproxDomainError(f"approximation needs (n - 1) * u < 1, got n={n} u={u!r}")
    r_m = u / (1.0 - (n - 1) * u)
    return EntanglementResult(_path_distance(n, u, r_m), r_m, 0.0, "approx", None)


def half_way_angle(n: int) -> float:
    """Path angle halfway along the search, (pi + rotation angle) / 4."""
    _check_qubits(n)
    return (math.pi + _rotation_angle(1 << n)) / 4.0


def entanglement_approx_curve(n: int, t: float) -> EntanglementResult:
    """Approximate entanglement at path angle ``t``, mirror-extended.

    The approximation is evaluated on the late half of the path (t past the
    halfway angle, where the level is small) and reflected about the
    halfway angle for the early half.
    """
    GroverPathPoint.from_angle(n, t)  # validates n and t
    t_half = half_way_angle(n)
    if t < t_half:
        t = 2.0 * t_half - t
    return entanglement_approx(n, GroverPathPoint.from_angle(n, min(t, math.pi / 2.0)).u)


def triangle_envelope(t: float) -> float:
    """Large-n limiting profile of the entanglement curve: a triangle.

    Peaks at pi/2 for t = pi/4 and falls with slope 2 on both sides.
    """
    return -2.0 * abs(t - math.pi / 4.0) + math.pi / 2.0


def critical_qubit_number() -> float:
    """Qubit count 4 + 2 sqrt(2) above which the stationarity curve folds."""
    return 4.0 + 2.0 * math.sqrt(2.0)


def _phase(v: complex) -> float:
    """Argument of ``v`` in [0, 2 pi); 0 at v = 0."""
    chi = math.atan2(v.imag, v.real) % (2.0 * math.pi)
    return 0.0 if chi == 2.0 * math.pi else chi  # a tiny negative angle rounds up to 2 pi


def _derivative_columns(coeffs: np.ndarray) -> np.ndarray:
    """(n + 1, 3) coefficients of p, p' and p''/2 in powers of v, one per column."""
    n = coeffs.size - 1
    k = np.arange(1, n + 1)
    columns = np.zeros((n + 1, 3), dtype=np.complex128)
    columns[:, 0] = coeffs
    columns[:n, 1] = coeffs[1:] * k
    columns[: n - 1, 2] = coeffs[2:] * (k[1:] * (k[1:] - 1) // 2)
    return columns


def _newton_ascent(columns: np.ndarray, v: np.ndarray, max_step: float, steps: int):
    """Newton ascent of L = log(|p(v)|^2 / (1+|v|^2)^n) from each start in ``v``.

    ``columns`` comes from :func:`_derivative_columns`.  Each step solves
    the stationarity condition dL/dv = 0 of the quadratic model built from
    the Wirtinger derivatives w = dL/dv, alpha = d2L/dv2 and
    beta = d2L/dv dv* < 0.  Beta is shifted below -|alpha|, so the model is
    concave and every step ascends; along a flat direction (a ring of
    maxima) the step stays small.  A step moves at most ``max_step``, the
    iterate is clipped to the chart's disk |v| <= 1, and a start stops once
    its step is at most ``_POLISH_TOL`` or where p is exactly 0.  A start
    also stops, back where it was, when a full-length step clipped at the
    edge fails to ascend: it has met the edge on the way to a maximum in
    the other chart's disk.
    Returns the points reached and their values |p(v)|^2 / (1+|v|^2)^n.
    """
    n = len(columns) - 1
    powers = np.empty((v.size, n + 1), dtype=np.complex128)
    active = np.ones(v.size, dtype=bool)
    clipped = np.zeros(v.size, dtype=bool)
    value = np.zeros(v.size)
    moved = v
    for k in range(steps + 1):
        powers[:, 0] = 1.0
        powers[:, 1:] = v[:, None]
        p, dp, half_d2p = (np.cumprod(powers, axis=1, out=powers) @ columns).T
        q = 1.0 + (v.real**2 + v.imag**2)
        last_value, value = value, (p.real**2 + p.imag**2) / q**n
        if clipped.any():
            failed = clipped & (value <= last_value)
            v[failed], value[failed] = moved[failed], last_value[failed]
            active &= ~failed
        active &= p != 0.0  # L has no gradient at a zero of p: such a start stays where it is
        if k == steps or not active.any():
            return v, value
        p = np.where(active, p, 1.0)  # an idle start's step is discarded; this keeps it finite
        vq = v.conj() / q
        g = dp / p
        w = g - n * vq
        alpha = 2.0 * half_d2p / p - g * g + n * (vq * vq)
        abs_alpha = np.abs(alpha)
        beta = np.minimum(-n / (q * q), -(1.0 + _POLISH_SHIFT) * abs_alpha)
        step = (alpha.conj() * w - beta * w.conj()) / (beta * beta - abs_alpha**2)
        size = np.abs(step)
        step *= np.where(active, max_step / np.maximum(size, max_step), 0.0)
        moved, v = v, v + step
        radius = np.abs(v)
        clipped = (radius > 1.0) & (size >= max_step)
        v /= np.maximum(radius, 1.0)
        active &= np.abs(v - moved) > _POLISH_TOL


def _grid_starts(values: np.ndarray, peaks: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the polar grid cells that start a polish.

    Returns the grid's ``peaks`` highest local maxima, highest first, and
    the best cell of each row past the first that is not among them.  A
    local maximum is a cell none of whose eight neighbours is higher, where
    the chi axis wraps and row 0 is the one point v = 0, whose neighbours
    are the whole next row.  A ridge narrower than a cell can rise to its
    maximum with no cell on it a local maximum, but it holds the best cell
    of the rows it crosses.
    """
    rows, cols = values.shape
    wrapped = np.concatenate([values[:, -1:], values, values[:, :1]], axis=1)
    beside = np.maximum(wrapped[:, :-2], wrapped[:, 2:])  # chi neighbours
    row_max = np.maximum(beside, values)
    neighbours = beside.copy()
    neighbours[1:] = np.maximum(neighbours[1:], row_max[:-1])
    neighbours[:-1] = np.maximum(neighbours[:-1], row_max[1:])
    neighbours[0] = values[1].max()
    is_peak = values >= neighbours
    is_peak[0, 1:] = False
    flat = np.flatnonzero(is_peak)
    top = flat[np.argsort(-values.flat[flat], kind="stable")[:peaks]]
    row_best = np.arange(1, rows) * cols + np.argmax(values[1:], axis=1)
    return top, row_best[~np.isin(row_best, top)]  # np.setdiff1d would import numpy.ma


def _chart_candidates(coeffs):
    """Chart points v of the coarse grid's best cell, then of the best polished starts, and their values.

    The grid's best local maxima are polished to convergence, together with
    the ``_POLISH_STARTS`` row-best cells that rank highest after
    ``_SCREEN_STEPS`` Newton steps; the highest polished points are kept.
    A point's value is |coeffs(v)|^2 / (1+|v|^2)^n.
    """
    r_grid = np.linspace(0.0, 1.0, _ORACLE_RESOLUTION)
    chi_grid = np.linspace(0.0, 2.0 * math.pi, _ORACLE_RESOLUTION, endpoint=False)

    def point(flat):
        ir, ic = np.divmod(flat, _ORACLE_RESOLUTION)
        return r_grid[ir] * np.exp(1j * chi_grid[ic])

    best, ir, ic, values = kernels.poly_grid_max(coeffs, r_grid, chi_grid)
    peaks, row_best = _grid_starts(values, _POLISH_STARTS)
    columns = _derivative_columns(coeffs)
    starts = point(np.concatenate([peaks, row_best]))
    v, value = _newton_ascent(columns, starts, r_grid[1], _SCREEN_STEPS)
    ridge = peaks.size + np.argsort(-value[peaks.size :], kind="stable")[:_POLISH_STARTS]
    v, value = _newton_ascent(columns, v[np.r_[: peaks.size, ridge]], r_grid[1], _POLISH_STEPS)
    kept = np.argsort(-value, kind="stable")[:_POLISH_STARTS]
    return np.r_[point(np.array([ir * _ORACLE_RESOLUTION + ic])), v[kept]], np.r_[best, value[kept]]


def closest_product_overlap(state, n: int, seed: int = 0):
    """Best squared overlap of ``state`` with any n-qubit product state.

    Symmetric states (amplitudes constant on bit-count classes) have a
    symmetric closest product state.  It is found on a coarse 64 x 64
    (r, chi) grid in both inhomogeneous charts of the single-qubit sphere.
    Its best local maxima and the best cell of each r row are polished by
    Newton steps.  The grid winner and the highest polished points are
    ranked by their ``fs_distance`` to the state in Dicke coordinates
    (sqrt(C(n, k)) times the class-k amplitude, n + 1 numbers), and the
    winner's chart value is the overlap.  The returned coordinates
    (r, chi) are the per-qubit point (r e^{i chi}, 1), chi in [0, 2 pi),
    with r = inf meaning the product |00...0>.  A state that is not
    symmetric as it stands is tried in the frames where every index is
    XOR-ed with that of its largest, then its smallest amplitude: X gates
    leave the overlap unchanged, so a state symmetric in such a frame (a
    Grover state at any target) takes the symmetric search there, and
    its product is flipped back.  That product is not (v, 1)^n, so the
    coordinates are NaN, and ``symmetric`` is True.  Other states fall
    back to per-qubit coordinate ascent from 34 starts (uniform, greedy
    and 32 random ones drawn from ``seed``) in one kernel call; the first
    converged start of highest overlap wins, and the coordinates are NaN.

    Returns ``(p, r_star, chi_star, symmetric)``.
    """
    return _closest_product(state, n, seed)[:4]


def _symmetric_closest(psi: np.ndarray, n: int, flip: int):
    """:func:`_closest_product`'s tuple for a unit ``psi`` symmetric once every index is XOR-ed with ``flip``, else None.

    The n one-bit indices share a class in that frame, so two of them more
    than 2 ``_SYMMETRY_TOL`` apart reject it before the full class test:
    both lie within ``_SYMMETRY_TOL`` of the class mean when it passes.  The
    product found in the frame is flipped back by the same index gather.
    Unless ``flip`` is 0 it is not of the form (v, 1)^n, and its
    coordinates are NaN.
    """
    one_bit = psi[(1 << np.arange(n)) ^ flip]
    if np.max(np.abs(one_bit - one_bit[0])) > 2.0 * _SYMMETRY_TOL:
        return None
    zeros = _zeros_per_index(n)
    if flip:
        zeros = zeros[np.arange(zeros.size) ^ flip]
    sizes = np.bincount(zeros)  # C(n, k) indices in class k
    sums = np.bincount(zeros, psi.real, n + 1) + 1j * np.bincount(zeros, psi.imag, n + 1)
    means = sums / sizes
    if np.max(np.abs(psi - means[zeros])) > _SYMMETRY_TOL:
        return None
    # each candidate is a per-qubit pair (a, b), amplitude a^zeros(x) b^(n - zeros(x)):
    # chart 1 gives (v, 1), chart 2 (1, s), the point v = 1/s
    v1, p1 = _chart_candidates(sums.conj())
    s2, p2 = _chart_candidates(sums[::-1].conj())
    a, b = np.r_[v1, np.ones(s2.size)], np.r_[np.ones(v1.size), s2]
    # ranked in Dicke coordinates, where fs_distance is that of the 2^n vectors
    root = np.sqrt(sizes)
    dicke = root * means
    classes = _class_amplitudes(a[:, None], b[:, None], n)
    best = int(np.argmin([fs_distance(dicke, c) for c in root * classes]))
    a, b = a[best], b[best]
    p = min(1.0, float(np.r_[p1, p2][best]))
    product = _unit(classes[best][zeros])
    if flip:
        return p, math.nan, math.nan, True, product
    r_star = math.inf if b == 0 else abs(a) / abs(b)
    return p, float(r_star), _phase(a * b.conjugate()), True, product


def _closest_product(state, n: int, seed: int):
    """:func:`closest_product_overlap`'s tuple, plus the product vector found."""
    psi = _ascoords(state)
    _check_qubits(n)
    if psi.size != 1 << n:
        raise DimensionError(f"state has size {psi.size}, expected {1 << n}")
    try:
        psi = _unit(psi)
    except InvalidRay as exc:
        raise DomainError("state must be a nonzero finite vector") from exc

    found = _symmetric_closest(psi, n, 0)
    if found is not None:
        return found
    # X gates leave E unchanged: a state symmetric after a bit flip, such as a
    # Grover state at any target, is symmetric in the frame of its largest or
    # its smallest amplitude
    modulus = np.abs(psi)
    top = int(np.argmax(modulus))
    for flip in (top, int(np.argmin(modulus))):
        found = _symmetric_closest(psi, n, flip) if flip else None
        if found is not None:
            return found

    starts = np.empty((_ASCENT_STARTS + 2, n, 2), dtype=np.complex128)
    starts[0] = 1.0 / math.sqrt(2.0)
    # greedy start from the largest amplitude's bit pattern
    starts[1] = 0.0
    for j in range(n):
        starts[1, j, (top >> (n - 1 - j)) & 1] = 1.0
    # each random start draws its real parts, then its imaginary parts
    draws = np.random.default_rng(seed).normal(size=(_ASCENT_STARTS, 2, n, 2))
    f = (draws[:, 0] + 1j * draws[:, 1]).reshape(-1, 2)
    starts[2:] = (f / np.linalg.norm(f, axis=1, keepdims=True)).reshape(-1, n, 2)
    p, _, ok = kernels.product_ascent(psi, n, starts, _ASCENT_MAX_SWEEPS, _ASCENT_TOL)
    if not ok.any():
        raise ConvergenceError(
            f"product-state ascent on n={n} qubits: none of {len(starts)} "
            f"starts converged in {_ASCENT_MAX_SWEEPS} sweeps; best unconverged "
            f"overlap {p.max():.17g}"
        )
    k = int(np.argmax(np.where(ok, p, -1.0)))  # the first converged start of highest overlap
    return min(1.0, float(p[k])), math.nan, math.nan, False, reduce(np.kron, starts[k])


def entanglement_grid_oracle(state, n: int, seed: int = 0) -> EntanglementResult:
    """Entanglement of an arbitrary state: its ``fs_distance`` to the best product found.

    The product is :func:`closest_product_overlap`'s, as one 2^n vector, so
    a product state reads exactly 0.
    """
    _, r_star, chi_star, _, product = _closest_product(state, n, seed)
    return EntanglementResult(fs_distance(state, product), r_star, chi_star, "oracle", None)


# ---------------------------------------------------------------------------
# pairwise measures for the two-qubit cross-checks


def _unit_2q(state) -> np.ndarray:
    """Two-qubit pure states, one per row of the last axis, as unit 4-vectors."""
    psi = _ascoords(state, stack=True)
    if psi.shape[-1] != 4:
        raise DimensionError(f"expected 4-component states, got shape {psi.shape}")
    return _unit(psi)


def reduced_density_2q(state) -> np.ndarray:
    """Reduced density matrix of the first qubit of a two-qubit pure state.

    A (..., 4) stack of states gives a (..., 2, 2) stack of matrices.
    """
    psi = _unit_2q(state)
    m = psi.reshape(*psi.shape[:-1], 2, 2)
    return m @ m.conj().swapaxes(-1, -2)


_SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ],
    dtype=np.complex128,
)


def concurrence(state):
    """Concurrence |<psi*| sigma_y x sigma_y |psi>| of a two-qubit pure state.

    A float for one state, an array for a (..., 4) stack, each row what
    the state reads alone: the flip is exact, each row's contraction is a
    (1, 4) @ (4, 1) product, one BLAS dot, and its modulus is ``np.hypot``,
    which is the scalar ``abs`` (``np.abs`` of a complex array moves last
    bits).
    """
    psi = _unit_2q(state)
    flipped = psi @ _SPIN_FLIP
    dot = (flipped[..., None, :] @ psi[..., :, None])[..., 0, 0]
    c = np.hypot(dot.real, dot.imag)
    return float(c) if c.ndim == 0 else c


def concurrence_from_quadric(r) -> float:
    """Concurrence as twice the separability minor |z0 z3 - z1 z2|.

    Same number as :func:`concurrence`, but computed as twice the (1, 1)
    quadric residual of the canonical ray, which ties the pairwise measure
    to the separability certificate.
    """
    return 2.0 * max_quadric_residual(r if isinstance(r, Ray) else Ray(r), 1, 1)


def concurrence_along_path(u: float) -> float:
    """Closed-form concurrence 2 u |1 - u| / (3 u^2 + 1) of the 2-qubit path state.

    Taken in ``_chart``'s pair (level, marked), 2 level |marked - level| /
    (3 level^2 + marked^2), so no square overflows past u = 1.
    """
    level, marked = _chart(GroverPathPoint(2, u).u)
    return 2.0 * level * abs(marked - level) / (3.0 * level * level + marked * marked)


def pair_entropy_from_concurrence(c: float) -> float:
    """Entropy of a reduced density matrix with concurrence ``c`` (base 2)."""
    c = float(c)
    if not 0.0 <= c <= 1.0:
        raise DomainError(f"concurrence must lie in [0, 1], got {c!r}")
    lam_plus = (1.0 + math.sqrt(1.0 - c * c)) / 2.0
    lam = np.array([lam_plus, 1.0 - lam_plus])
    return partial_entropy(np.diag(lam))


def partial_entropy(rho):
    """Von Neumann entropy, base 2, of a density matrix; 0 log 0 is 0.

    A float for one matrix, an array for a (..., d, d) stack.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise DimensionError(f"density matrix must be square, got shape {rho.shape}")
    lam = np.linalg.eigvalsh(rho)
    lam = np.where(lam > 1e-300, lam, 1.0)  # a dropped eigenvalue adds 1 log2(1) = 0
    entropy = -(lam * np.log2(lam)).sum(axis=-1)
    return float(entropy) if entropy.ndim == 0 else entropy
