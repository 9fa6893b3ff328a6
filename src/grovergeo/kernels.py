"""The two hot numerical kernels, in vectorized numpy.

Two inner loops dominate the package's runtime: the (r, chi) grid
maximization of a polynomial overlap, and the per-qubit coordinate ascent
toward the closest product state.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["poly_grid_max", "product_ascent"]


def poly_grid_max(coeffs, r_grid, chi_grid):
    """Maximize |poly(v)|^2 / (1+r^2)^deg over the grid v = r e^{i chi}.

    ``coeffs`` holds the polynomial coefficients, constant term first; its
    degree fixes the normalizing power.  Returns (best value, r index,
    chi index, values): ties resolve to the lowest r index, then lowest chi
    index, and ``values`` is the (r, chi) array of the function on the grid.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    r_grid = np.ascontiguousarray(r_grid, dtype=np.float64)
    chi_grid = np.ascontiguousarray(chi_grid, dtype=np.float64)
    deg = coeffs.size - 1
    phases = np.exp(1j * chi_grid)
    values = np.empty((r_grid.size, chi_grid.size))
    # chunk rows to bound the temporary complex arrays at a few million entries
    chunk = max(1, 4_000_000 // max(chi_grid.size, 1))
    for start in range(0, r_grid.size, chunk):
        rows = r_grid[start : start + chunk]
        v = rows[:, None] * phases[None, :]
        acc = np.full(v.shape, coeffs[deg], dtype=np.complex128)
        for z in range(deg - 1, -1, -1):
            acc *= v
            acc += coeffs[z]
        denom = (1.0 + rows * rows) ** deg
        values[start : start + rows.size] = (acc.real**2 + acc.imag**2) / denom[:, None]
    ir, ic = divmod(int(np.argmax(values)), chi_grid.size)
    return float(values[ir, ic]), ir, ic, values


def product_ascent(psi, n, factors, max_sweeps, tol):
    """Coordinate ascent of |<product|psi>|^2 over single-qubit factors.

    ``factors`` is an (n, 2) complex array updated in place; qubit j of
    basis index x is bit (n-1-j).  Each qubit update is exact: the factor
    is set parallel to its environment vector, which cannot decrease the
    overlap.  A sweep updates qubits 0..n-1 in turn, contracting psi with
    cached environments of the other factors: O(N) work per sweep.
    Returns (overlap^2, sweeps used, converged flag); converged means the
    gain of a full sweep fell to ``tol`` or below.
    """
    psi = np.ascontiguousarray(psi, dtype=np.complex128)
    last = -1.0
    nrm2 = 0.0
    for sweep in range(max_sweeps):
        right = [psi]
        for j in range(n - 1, 0, -1):
            right.append(right[-1].reshape(-1, 2) @ factors[j].conj())
        left = np.ones(1, dtype=np.complex128)
        for i in range(n):
            t0, t1 = left @ right[n - 1 - i].reshape(-1, 2)
            nrm2 = t0.real**2 + t0.imag**2 + t1.real**2 + t1.imag**2
            nrm = math.sqrt(nrm2)
            if nrm > 0.0:
                factors[i, 0] = t0 / nrm
                factors[i, 1] = t1 / nrm
            left = np.outer(left, factors[i].conj()).ravel()
        if abs(nrm2 - last) <= tol:
            return nrm2, sweep + 1, True
        last = nrm2
    return nrm2, max_sweeps, False
