"""Geometric entanglement along the quantum-search path.

The states of interest interpolate between the uniform superposition and a
single marked basis state: every unmarked amplitude equals a common level
``u`` while the marked amplitude is 1 (before normalization).  Their
distance to the nearest product state is computed four independent ways --
a two-qubit closed form, a stationarity root-finder, a small-``u``
approximation, and a brute-force oracle that never assumes symmetry -- and
the module also carries the pairwise measures (concurrence, residual
entropy) used to cross-check the two-qubit case.

Conventions: qubit ``j`` of basis index ``x`` is bit ``n - 1 - j`` (index 0
is |00...0>, index N-1 the marked state |11...1>).  A coherent product
state has per-qubit coordinates (v, 1), so its amplitude at ``x`` is
``v ** zeros(x)``.  Entanglement is the projective-space angle
``E = 2 arccos sqrt(P)`` where ``P`` is the best squared overlap with a
product state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    ApproxDomainError,
    ConvergenceError,
    DimensionError,
    DomainError,
)
from .grover_engine import _check_qubits, _path_angle, _path_level, _rotation_angle
from .ray_space import Ray, UnitVector, _ascoords
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
_NEAR_REAL = 1e-6  # companion roots of a close real pair may split off the axis


def _zeros_per_index(n: int) -> np.ndarray:
    """Number of zero bits of each basis index, as an int64 array of size 2**n."""
    z = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        z = np.concatenate([z + 1, z])
    return z


@dataclass(frozen=True)
class GroverPathPoint:
    """One state of the search path: unmarked level ``u`` on ``n`` qubits.

    ``u = 1`` is the uniform superposition, ``u = 0`` the marked state.
    """

    n: int
    u: float

    def __post_init__(self):
        _check_qubits(self.n)
        u = float(self.u)
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
        size = 1 << n
        t_min = _rotation_angle(size) / 2.0
        if not t_min - 1e-12 <= t <= math.pi / 2.0 + 1e-12:
            raise DomainError(f"path angle {t!r} outside [{t_min!r}, {math.pi / 2.0!r}]")
        t = min(max(t, t_min), math.pi / 2.0)
        # the angle range maps exactly onto u in [1, 0]; clip rounding spill
        return cls(n, min(1.0, max(0.0, _path_level(size, t))))

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def angle(self) -> float:
        """Path angle ``t`` with sin(t)**2 the success probability."""
        return _path_angle(self.size, self.u)

    @property
    def success_probability(self) -> float:
        return 1.0 / ((self.size - 1) * self.u**2 + 1.0)

    def ray(self) -> UnitVector:
        z = np.full(self.size, self.u, dtype=np.complex128)
        z[self.size - 1] = 1.0
        return UnitVector(z / np.linalg.norm(z))


@dataclass(frozen=True)
class CoherentProduct:
    """Symmetric product state with per-qubit coordinates (v, 1)."""

    n: int
    v: complex

    def __post_init__(self):
        _check_qubits(self.n)
        v = complex(self.v)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise DomainError(f"coordinate must be finite, got {self.v!r}")
        object.__setattr__(self, "v", v)

    @property
    def radius(self) -> float:
        return abs(self.v)

    @property
    def phase(self) -> float:
        return math.atan2(self.v.imag, self.v.real)

    def ray(self) -> UnitVector:
        zeros = _zeros_per_index(self.n)
        amps = np.asarray(self.v, dtype=np.complex128) ** zeros
        return UnitVector(amps / np.linalg.norm(amps))


@dataclass(frozen=True)
class EntanglementResult:
    """Entanglement value plus the maximizing product-state coordinates.

    ``r_star``/``chi_star`` are NaN when the search did not go through the
    symmetric chart; ``root_count`` is None unless the root-finding route
    produced it.
    """

    value: float
    r_star: float
    chi_star: float
    method: str
    root_count: int | None = None


def grover_path_ray(n: int, u: float) -> UnitVector:
    """Unit vector of the path state with unmarked level ``u``."""
    return GroverPathPoint(n, u).ray()


def _overlap_unchecked(n: int, u: float, v: complex) -> float:
    size = 1 << n
    num = 1.0 + u * ((1.0 + v) ** n - 1.0)
    den = ((size - 1) * u * u + 1.0) * (1.0 + abs(v) ** 2) ** n
    return abs(num) ** 2 / den


def coherent_overlap(n: int, u: float, r: float, chi: float = 0.0) -> float:
    """Squared overlap of the path state (n, u) with the product (r e^{i chi}, 1)^n.

    Closed form of |<product|path>|^2; agrees with the literal inner
    product of the expanded vectors.
    """
    point = GroverPathPoint(n, u)  # validates n, u
    r = float(r)
    if not math.isfinite(r) or r < 0.0:
        raise DomainError(f"radius must be finite and >= 0, got {r!r}")
    v = r * complex(math.cos(chi), math.sin(chi))
    return min(1.0, _overlap_unchecked(point.n, point.u, v))


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


def extremum_roots(n: int, u: float) -> list[float]:
    """All radii r in [0, 1] stationary for the path state (n, u), sorted.

    The stationarity condition u[(1+r)^(n-1)(1-r) + r] = r is a degree-n
    polynomial in r.  Its exact (companion-matrix) roots near [0, 1] get a
    Newton polish on the exactly evaluated polynomial and are kept where it
    changes sign within one ulp, so no close root pair is missed.
    """
    u = GroverPathPoint(n, u).u
    if u > 1.0:
        return []  # u[(1+r)^(n-1)(1-r) + r] >= ur > r on (0, 1]
    if u < np.finfo(float).tiny:
        return [u]  # 1/u overflows the companion matrix; (1+u)^(n-1) rounds to 1
    binomials = [math.comb(n - 1, k) for k in range(n)]  # of (1+r)^(n-1)
    coeffs = u * np.polynomial.polynomial.polymul(binomials, [1.0, -1.0])
    coeffs[1] += u - 1.0
    roots: list[float] = []
    for z in np.polynomial.polynomial.polyroots(coeffs):
        r = float(z.real)
        if abs(z.imag) > _NEAR_REAL or not -_NEAR_REAL <= r <= 1.0 + _NEAR_REAL:
            continue
        for _ in range(8):
            slope = u * ((1.0 + r) ** (n - 2) * (n - 2 - n * r) + 1.0) - 1.0
            if slope == 0.0:
                break
            r = min(1.0, max(0.0, r - _stationarity(n, u, r) / slope))
        # a near-real complex pair or a root beyond [0, 1] has no sign change
        ulp_box = (max(0.0, math.nextafter(r, 0.0)), r, min(1.0, math.nextafter(r, 1.0)))
        values = [_stationarity(n, u, x) for x in ulp_box]
        if min(values) <= 0.0 <= max(values):
            roots.append(r)
    out: list[float] = []
    for r in sorted(roots):  # collapse a root pair that polished onto one point
        if not out or r - out[-1] > 1e-9:
            out.append(r)
    return out


def _best_real_axis(n: int, u: float, candidates) -> tuple[float, float]:
    best_p, best_r = -1.0, 0.0
    for r in candidates:
        p = _overlap_unchecked(n, u, complex(r))
        if p > best_p:
            best_p, best_r = p, float(r)
    return min(1.0, best_p), best_r


def entanglement_exact_2q(u: float) -> EntanglementResult:
    """Two-qubit entanglement of the path state, by the closed-form radius.

    The stationarity condition is a quadratic in r; its positive root is
    the maximizing radius.
    """
    point = GroverPathPoint(2, u)
    u = point.u
    if u > 1.0:
        raise DomainError(f"path level must lie in [0, 1], got {u!r}")
    if u == 0.0:
        return EntanglementResult(0.0, 0.0, 0.0, "closed2q", None)
    # u r^2 + (1 - u) r - u = 0, positive branch
    disc = (1.0 - u) ** 2 + 4.0 * u * u
    r = (-(1.0 - u) + math.sqrt(disc)) / (2.0 * u)
    p, r_star = _best_real_axis(2, u, [0.0, r, 1.0])
    return EntanglementResult(2.0 * math.acos(math.sqrt(p)), r_star, 0.0, "closed2q", None)


def entanglement_exact(n: int, u: float) -> EntanglementResult:
    """Entanglement of the path state from the stationarity roots.

    Evaluates the overlap at every stationary radius plus the interval
    endpoints and keeps the best; the optimal product phase is 0 because
    all path amplitudes are real and nonnegative.
    """
    point = GroverPathPoint(n, u)
    if point.u > 1.0:
        raise DomainError(f"path level must lie in [0, 1], got {point.u!r}")
    roots = extremum_roots(n, point.u)
    p, r_star = _best_real_axis(n, point.u, [0.0, 1.0] + roots)
    return EntanglementResult(
        2.0 * math.acos(math.sqrt(p)), r_star, 0.0, "rootfind", len(roots)
    )


def entanglement_approx(n: int, u: float) -> EntanglementResult:
    """Small-level approximation: evaluate the overlap at r = u / (1 - (n-1) u).

    Only defined while (n - 1) u < 1; raises ApproxDomainError beyond.
    """
    point = GroverPathPoint(n, u)
    u = point.u
    if (n - 1) * u >= 1.0:
        raise ApproxDomainError(
            f"approximation needs (n - 1) * u < 1, got n={n} u={u!r}"
        )
    r_m = u / (1.0 - (n - 1) * u)
    p = min(1.0, _overlap_unchecked(n, u, complex(r_m)))
    return EntanglementResult(2.0 * math.acos(math.sqrt(p)), r_m, 0.0, "approx", None)


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


def _symmetric_chart_max(coeffs, resolution):
    r_grid = np.linspace(0.0, 1.0, resolution)
    chi_grid = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
    p, ir, ic = kernels.poly_grid_max(coeffs, r_grid, chi_grid)
    # refine: 256 x 256 pass over one coarse cell around the winner
    dr = r_grid[1] - r_grid[0]
    dc = chi_grid[1] - chi_grid[0]
    r_fine = np.linspace(
        max(0.0, r_grid[ir] - dr), min(1.0, r_grid[ir] + dr), 256
    )
    chi_fine = np.linspace(chi_grid[ic] - dc, chi_grid[ic] + dc, 256)
    p2, jr, jc = kernels.poly_grid_max(coeffs, r_fine, chi_fine)
    if p2 >= p:
        return p2, float(r_fine[jr]), float(chi_fine[jc])
    return p, float(r_grid[ir]), float(chi_grid[ic])


def closest_product_overlap(
    state,
    n: int,
    resolution: int = 2048,
    seed: int = 0,
):
    """Best squared overlap of ``state`` with any n-qubit product state.

    Symmetric states (amplitudes constant on bit-count classes) are solved
    by exhaustive grids in both inhomogeneous charts of the single-qubit
    sphere, then a local refinement; the returned coordinates (r, chi) are
    the per-qubit point (r e^{i chi}, 1), with r = inf meaning the product
    |00...0>.  General states fall back to multistart per-qubit coordinate
    ascent and return NaN coordinates.

    Returns ``(p, r_star, chi_star, symmetric)``.
    """
    psi = _ascoords(state)
    _check_qubits(n)
    if psi.size != 1 << n:
        raise DimensionError(f"state has size {psi.size}, expected {1 << n}")
    nrm = np.linalg.norm(psi)
    if nrm == 0.0 or not np.isfinite(nrm):
        raise DomainError("state must be a nonzero finite vector")
    psi = psi / nrm
    if resolution < 2:
        raise DomainError("resolution must be at least 2")

    zeros = _zeros_per_index(n)
    sym = True
    for z in range(n + 1):
        cls = psi[zeros == z]
        if np.max(np.abs(cls - cls.mean())) > _SYMMETRY_TOL:
            sym = False
            break

    if sym:
        # chart 1: per-qubit (v, 1), amplitude v^zeros(x)
        a = np.zeros(n + 1, dtype=np.complex128)
        np.add.at(a, zeros, np.conj(psi))
        p1, r1, c1 = _symmetric_chart_max(a, resolution)
        # chart 2: per-qubit (1, s), amplitude s^ones(x) with ones(x) = n - zeros(x); v = 1/s
        p2, r2, c2 = _symmetric_chart_max(a[::-1], resolution)
        if p1 >= p2:
            return min(1.0, p1), r1, c1, True
        r_star = math.inf if r2 == 0.0 else 1.0 / r2
        chi_star = (-c2) % (2.0 * math.pi)
        return min(1.0, p2), r_star, chi_star, True

    rng = np.random.default_rng(seed)
    best = -1.0
    best_unconverged = -1.0
    for k in range(_ASCENT_STARTS + 2):
        if k == 0:
            f = np.full((n, 2), 1.0 / math.sqrt(2.0), dtype=np.complex128)
        elif k == 1:
            # greedy start from the largest amplitude's bit pattern
            x = int(np.argmax(np.abs(psi)))
            f = np.zeros((n, 2), dtype=np.complex128)
            for j in range(n):
                f[j, (x >> (n - 1 - j)) & 1] = 1.0
        else:
            f = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
            f /= np.linalg.norm(f, axis=1, keepdims=True)
        p, _, ok = kernels.product_ascent(psi, n, f, _ASCENT_MAX_SWEEPS, _ASCENT_TOL)
        if ok:
            best = max(best, p)
        else:
            best_unconverged = max(best_unconverged, p)
    if best < 0.0:
        raise ConvergenceError(
            f"product-state ascent on n={n} qubits: none of {_ASCENT_STARTS + 2} "
            f"starts converged in {_ASCENT_MAX_SWEEPS} sweeps; best unconverged "
            f"overlap {best_unconverged:.17g}"
        )
    return min(1.0, best), math.nan, math.nan, False


def entanglement_grid_oracle(
    state, n: int, resolution: int = 2048, seed: int = 0
) -> EntanglementResult:
    """Entanglement of an arbitrary state by brute-force product search."""
    p, r_star, chi_star, _ = closest_product_overlap(
        state, n, resolution=resolution, seed=seed
    )
    return EntanglementResult(
        2.0 * math.acos(math.sqrt(p)), r_star, chi_star, "oracle", None
    )


# ---------------------------------------------------------------------------
# pairwise measures for the two-qubit cross-checks


def reduced_density_2q(state) -> np.ndarray:
    """Reduced density matrix of the first qubit of a two-qubit pure state."""
    psi = _ascoords(state)
    if psi.size != 4:
        raise DimensionError(f"expected a 4-component state, got size {psi.size}")
    nrm = np.linalg.norm(psi)
    if nrm == 0.0:
        raise DomainError("state must be nonzero")
    m = (psi / nrm).reshape(2, 2)
    return m @ m.conj().T


_SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ],
    dtype=np.complex128,
)


def concurrence(state) -> float:
    """Concurrence |<psi*| sigma_y x sigma_y |psi>| of a two-qubit pure state."""
    psi = _ascoords(state)
    if psi.size != 4:
        raise DimensionError(f"expected a 4-component state, got size {psi.size}")
    nrm = np.linalg.norm(psi)
    if nrm == 0.0:
        raise DomainError("state must be nonzero")
    psi = psi / nrm
    return float(abs(psi @ _SPIN_FLIP @ psi))


def concurrence_from_quadric(r) -> float:
    """Concurrence as twice the separability minor |z0 z3 - z1 z2|.

    Same number as :func:`concurrence`, but computed as twice the (1, 1)
    quadric residual of the canonical ray, which ties the pairwise measure
    to the separability certificate.
    """
    return 2.0 * max_quadric_residual(r if isinstance(r, Ray) else Ray(r), 1, 1)


def concurrence_along_path(u: float) -> float:
    """Closed-form concurrence 2 u (1 - u) / (3 u^2 + 1) of the 2-qubit path state."""
    point = GroverPathPoint(2, u)
    u = point.u
    return 2.0 * u * (1.0 - u) / (3.0 * u * u + 1.0)


def pair_entropy_from_concurrence(c: float) -> float:
    """Entropy of a reduced density matrix with concurrence ``c`` (base 2)."""
    c = float(c)
    if not 0.0 <= c <= 1.0:
        raise DomainError(f"concurrence must lie in [0, 1], got {c!r}")
    lam_plus = (1.0 + math.sqrt(1.0 - c * c)) / 2.0
    lam = np.array([lam_plus, 1.0 - lam_plus])
    return partial_entropy(np.diag(lam))


def partial_entropy(rho) -> float:
    """Von Neumann entropy, base 2, of a density matrix; 0 log 0 is 0."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"density matrix must be square, got shape {rho.shape}")
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 1e-300]
    return float(-(lam * np.log2(lam)).sum())
