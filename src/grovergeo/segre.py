"""Segre embeddings, quadric separability certificates, and factor recovery.

A bipartite product ray embeds into the joint space as the outer product of
its factors; the image is exactly the zero set of all 2x2-minor quadrics of
the coordinate matrix.  Residuals of those quadrics, evaluated on unit-norm
canonical coordinates, certify separability scale-free.  Full separability
of an n-qubit ray is decided by recursively splitting off the last qubit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .ray_space import Ray, canonical_form, _ascoords

__all__ = [
    "QuadricSystem",
    "SeparabilityReport",
    "segre_embed",
    "quadric_system",
    "max_quadric_residual",
    "is_fully_separable",
    "grover_separability_residual",
]


@dataclass(frozen=True)
class QuadricSystem:
    """The quadratic constraints cutting out a Segre variety.

    Each quadruple (i, j, k, l) with i < j, k < l indexes the polynomial
    z[(m'+1)i+k] * z[(m'+1)j+l] - z[(m'+1)i+l] * z[(m'+1)j+k], a 2x2 minor
    of the (m+1) x (m'+1) coordinate matrix.
    """

    m: int
    m_prime: int
    constraints: tuple

    @property
    def count(self) -> int:
        return len(self.constraints)

    def evaluate(self, coords) -> np.ndarray:
        """Constraint polynomial values on the given coordinates, in order."""
        matrix = _coordinate_matrix(_ascoords(coords), self.m, self.m_prime)
        rows = self.m + 1
        # the i < j entries of each block, column pair by column pair; the
        # transpose puts (i, j) outermost, as in the constraint order
        values = np.concatenate(
            [block[np.triu_indices(len(block), s + 1, rows)] for s, block in _minor_blocks(matrix)]
        )
        return values.reshape(-1, rows * self.m // 2).T.ravel()


@dataclass(frozen=True)
class SeparabilityReport:
    """Outcome of a full-separability test.

    ``max_residual`` is the largest quadric residual met across the
    recursion.  ``factors`` lists one dim-2 ray per qubit, most significant
    bit first, and is None when the state is not fully separable.
    """

    fully_separable: bool
    max_residual: float
    factors: tuple | None


def segre_embed(a: Ray, b: Ray) -> Ray:
    """Embed a product of two rays: coordinates a_i * b_k at index (m'+1)i + k."""
    va, vb = _ascoords(a), _ascoords(b)
    return Ray(np.outer(va, vb).ravel())


def quadric_system(m: int, m_prime: int) -> QuadricSystem:
    """All minor constraints for the (m, m') Segre variety.

    Quadruples are emitted in ascending lexicographic (i, j, k, l) order;
    there are exactly m(m+1) m'(m'+1)/4 of them.
    """
    m, m_prime = _check_split(m, m_prime)
    quads = tuple(
        (i, j, k, l)
        for i in range(m + 1)
        for j in range(i + 1, m + 1)
        for k in range(m_prime + 1)
        for l in range(k + 1, m_prime + 1)
    )
    return QuadricSystem(m=m, m_prime=m_prime, constraints=quads)


def _check_split(m, m_prime) -> tuple[int, int]:
    m, m_prime = int(m), int(m_prime)
    if m < 1 or m_prime < 1:
        raise DomainError("both factor dimensions must be at least 2 (m, m' >= 1)")
    return m, m_prime


def _coordinate_matrix(z: np.ndarray, m, m_prime) -> np.ndarray:
    """The (m+1) x (m'+1) coordinate matrix of a flat coordinate vector."""
    m, m_prime = _check_split(m, m_prime)
    if z.size != (m + 1) * (m_prime + 1):
        raise DimensionError(
            f"coordinates of length {z.size} do not fill a {m + 1}x{m_prime + 1} matrix"
        )
    return z.reshape(m + 1, m_prime + 1)


def _minor_blocks(matrix: np.ndarray):
    """Yield ``(s, block)``: all 2x2 minors of a complex matrix, in row blocks.

    Column pairs k < l come in lexicographic order, each as consecutive
    blocks of about a million entries, so memory stays linear in the matrix
    size.  Entry (r, j) of a block is the minor of rows (s + r, j):
    z[s+r, k] z[j, l] - z[s+r, l] z[j, k].
    """
    rows, cols = matrix.shape
    chunk = max(1, 1_000_000 // rows)
    for k in range(cols):
        a = matrix[:, k]
        for l in range(k + 1, cols):
            b = matrix[:, l]
            for s in range(0, rows, chunk):
                yield s, np.outer(a[s : s + chunk], b) - np.outer(a, b[s : s + chunk]).T


def _max_minor_residual(matrix: np.ndarray) -> float:
    """Largest |2x2 minor| of a complex matrix."""
    worst = 0.0
    for _, block in _minor_blocks(matrix):
        worst = max(worst, float(np.abs(block).max()))
    return worst


def _rebuild_distance(rebuilt: np.ndarray, original: np.ndarray) -> float:
    """Fubini-Study distance from ``rebuilt`` to the unit vector ``original``.

    Equals 2*arccos|<a|b>| for a = original, b = rebuilt, but is evaluated
    as 4*arcsin(||a - c b|| / 2), with b scaled to unit norm and
    c = <b|a>/|<b|a>| aligning its phase:
    arccos cannot resolve distances below about 1e-7, where |<a|b>|
    rounds to 1.
    """
    overlap = np.vdot(rebuilt, original)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    gap = np.linalg.norm(original - phase * rebuilt / np.linalg.norm(rebuilt))
    return float(4.0 * np.arcsin(min(1.0, gap / 2.0)))


def max_quadric_residual(r: Ray, m: int, m_prime: int) -> float:
    """Largest constraint violation of a ray against the (m, m') quadrics.

    Evaluated on the unit-norm canonical form so the residual is scale
    free; it vanishes exactly on bipartite-separable rays for that split.
    """
    return _max_minor_residual(_coordinate_matrix(canonical_form(r).coords, m, m_prime))


def is_fully_separable(r: Ray, n: int, tol: float = 1e-9) -> SeparabilityReport:
    """Decide whether a 2^n-dimensional ray is a product of n qubit rays.

    Recursively tests the (2^(n-1)-1, 1) split: the even- and odd-index
    coordinate slices must be proportional.  On success the slice of larger
    norm serves as the remaining (n-1)-qubit state and the proportionality
    pair becomes the last qubit's factor.  Extracted factors are verified
    by recomposition before the state is declared separable.
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"qubit count {n} must be >= 1")
    tol = float(tol)
    if tol <= 0.0:
        raise DomainError("tolerance must be positive")
    z = canonical_form(r).coords
    if z.size != 1 << n:
        raise DimensionError(f"ray dimension {z.size} != 2^{n}")

    original = z
    factors_last_first = []
    worst = 0.0
    for _ in range(n - 1):
        matrix = z.reshape(-1, 2)
        residual = _max_minor_residual(matrix / np.linalg.norm(z))
        worst = max(worst, residual)
        if residual > tol:
            return SeparabilityReport(False, worst, None)
        even, odd = matrix[:, 0], matrix[:, 1]
        # reference slice of larger norm avoids dividing by a tiny amplitude
        ref = even if np.linalg.norm(even) >= np.linalg.norm(odd) else odd
        scale = np.vdot(ref, ref)
        factors_last_first.append(
            Ray([np.vdot(ref, even) / scale, np.vdot(ref, odd) / scale])
        )
        z = ref
    factors_last_first.append(Ray(z))
    factors = tuple(reversed(factors_last_first))

    rebuilt = factors[0].coords
    for f in factors[1:]:
        rebuilt = np.kron(rebuilt, f.coords)
    if _rebuild_distance(rebuilt, original) > max(1e-8, 100.0 * tol):
        return SeparabilityReport(False, worst, None)
    return SeparabilityReport(True, worst, factors)


def grover_separability_residual(N: int, phi: float) -> float:
    """Separability defect of the search path state at continuous angle phi.

    The state with amplitude cos(phi)/sqrt(N-1) on every unmarked basis
    state and sin(phi) on the target violates the product quadrics by
    exactly |cos(phi) sin(phi)/sqrt(N-1) - cos(phi)^2/(N-1)|, which
    vanishes only at phi with tan(phi) = 1/sqrt(N-1) (the average state)
    and at phi = pi/2 (the target).
    """
    N = int(N)
    if N < 4:
        raise DomainError(f"state space size {N} must be >= 4")
    phi = float(phi)
    c, s = np.cos(phi), np.sin(phi)
    return float(abs(c * s / np.sqrt(N - 1.0) - c * c / (N - 1.0)))
