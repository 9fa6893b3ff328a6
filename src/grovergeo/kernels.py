"""The two hot numerical kernels, in vectorized numpy.

Two inner loops dominate the package's runtime: the (r, chi) grid
maximization of a polynomial overlap, and the per-qubit coordinate ascent
toward the closest product state.  The ascent runs a batch of starts at
once: every contraction is one stacked matmul over the starts, so the
Python overhead of a sweep is paid once per batch, and each start's
arithmetic is the same as in a batch of its own.
"""
from __future__ import annotations

import numpy as np

__all__ = ["poly_grid_max", "product_ascent"]

# starts x amplitudes contracted as one batch: from n = 18 a batch is one start,
# so the ascent's memory stays linear in the state size
_GROUP_ENTRIES = 1 << 18


def poly_grid_max(coeffs, r_grid, chi_grid):
    """Maximize |poly(v)|^2 / (1+r^2)^deg over the grid v = r e^{i chi}.

    ``coeffs`` holds the polynomial coefficients, constant term first; its
    degree fixes the normalizing power.  The whole grid is evaluated at
    once, with two complex temporaries of its size (16 MB each at 1024^2).
    Returns (best value, r index, chi index, values): ties resolve to the
    lowest r index, then lowest chi index, and ``values`` is the (r, chi)
    array of the function on the grid.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    r_grid = np.ascontiguousarray(r_grid, dtype=np.float64)
    chi_grid = np.ascontiguousarray(chi_grid, dtype=np.float64)
    deg = coeffs.size - 1
    v = r_grid[:, None] * np.exp(1j * chi_grid)[None, :]
    acc = np.full(v.shape, coeffs[deg], dtype=np.complex128)
    for z in range(deg - 1, -1, -1):
        acc *= v
        acc += coeffs[z]
    values = (acc.real**2 + acc.imag**2) / ((1.0 + r_grid * r_grid) ** deg)[:, None]
    ir, ic = divmod(int(np.argmax(values)), chi_grid.size)
    return float(values[ir, ic]), ir, ic, values


def product_ascent(psi, n, factors, max_sweeps, tol):
    """Coordinate ascent of |<product|psi>|^2 over single-qubit factors, from a batch of starts.

    ``factors`` is an (S, n, 2) complex array of S starting products,
    updated in place; qubit j of basis index x is bit (n-1-j).  Each qubit
    update is exact: the factor is set parallel to its environment vector,
    which cannot decrease the overlap.  A sweep updates qubits 0..n-1 in
    turn for every start, contracting psi with cached environments of the
    other factors: O(N) work per start and sweep.  The starts run in groups
    of at most ``max(1, _GROUP_ENTRIES // N)``, each group as one batch,
    and a start leaves its batch on the sweep where it converges.
    Returns arrays (overlap^2, sweeps used, converged flag), one entry per
    start; converged means the gain of a full sweep fell to ``tol`` or below.
    """
    psi = np.ascontiguousarray(psi, dtype=np.complex128)
    starts = len(factors)
    overlaps = np.zeros(starts)
    sweeps = np.full(starts, max_sweeps)
    converged = np.zeros(starts, dtype=bool)
    group = max(1, _GROUP_ENTRIES >> n)
    for first in range(0, starts, group):
        active = np.arange(first, min(first + group, starts))
        last = np.full(active.size, -1.0)
        for sweep in range(max_sweeps):
            batch = factors[active]
            nrm2 = _sweep(psi, n, batch)
            factors[active] = batch
            overlaps[active] = nrm2
            done = np.abs(nrm2 - last) <= tol
            sweeps[active[done]] = sweep + 1
            converged[active[done]] = True
            active, last = active[~done], nrm2[~done]
            if not active.size:
                break
    return overlaps, sweeps, converged


def _sweep(psi, n, factors):
    """One sweep over qubits 0..n-1 of a (B, n, 2) batch, in place; returns each start's |env|^2.

    ``right[i]`` is psi contracted with the conjugated factors of qubits
    i+1..n-1, read as (B, 2^i, 2); the last qubit's is psi itself, shared by
    the batch.  ``left`` is the kron of the updated factors of qubits
    0..i-1, so qubit i's environment is ``left`` contracted with ``right[i]``.
    """
    batch = len(factors)
    pairs = psi.reshape(-1, 2)
    conj = factors.conj()
    right = [pairs] * n
    if n > 1:
        right[n - 2] = (pairs @ conj[:, n - 1, :, None]).reshape(batch, -1, 2)
    for i in range(n - 3, -1, -1):
        right[i] = (right[i + 1] @ conj[:, i + 1, :, None]).reshape(batch, -1, 2)
    left = np.ones((batch, 1), dtype=np.complex128)
    for i in range(n):
        env = (left[:, None, :] @ right[i])[:, 0]
        nrm2 = np.add.reduce((env * env.conj()).real, axis=1)
        np.divide(env, np.sqrt(nrm2)[:, None], out=factors[:, i], where=nrm2[:, None] > 0.0)
        if i < n - 1:
            left = (left[:, :, None] * factors[:, i, None, :].conj()).reshape(batch, -1)
    return nrm2
