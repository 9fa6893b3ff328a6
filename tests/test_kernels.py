import numpy as np
import pytest

from grovergeo import kernels


def _brute_grid_max(coeffs, r_grid, chi_grid):
    # reference evaluation with numpy.polynomial, row-major argmax
    deg = coeffs.size - 1
    v = r_grid[:, None] * np.exp(1j * chi_grid)[None, :]
    p = np.abs(np.polynomial.polynomial.polyval(v, coeffs)) ** 2
    p /= (1.0 + r_grid[:, None] ** 2) ** deg
    flat = int(np.argmax(p))
    return p.flat[flat], flat // chi_grid.size, flat % chi_grid.size


def _kron_rows(rows):
    prod = rows[0]
    for row in rows[1:]:
        prod = np.kron(prod, row)
    return prod


def _literal_product_overlap(psi, n, factors):
    return abs(np.vdot(_kron_rows(factors), psi)) ** 2


class TestPolyGridMax:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for deg in [2, 4, 7]:
            coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            r = np.linspace(0.0, 1.0, 101)
            chi = np.linspace(0.0, 2 * np.pi, 97, endpoint=False)
            want = _brute_grid_max(coeffs, r, chi)
            p, ir, ic = kernels.poly_grid_max(coeffs, r, chi)
            assert p == pytest.approx(want[0], rel=1e-12)
            assert (ir, ic) == (want[1], want[2])

    def test_tie_breaks_to_first_row_major_cell(self):
        # constant polynomial: every grid point attains the max at r=0 row
        coeffs = np.array([2.0 + 0.0j])
        r = np.linspace(0.0, 1.0, 7)
        chi = np.linspace(0.0, 2 * np.pi, 5, endpoint=False)
        p, ir, ic = kernels.poly_grid_max(coeffs, r, chi)
        assert (ir, ic) == (0, 0)
        assert p == pytest.approx(4.0)

    def test_normalization_power_follows_degree(self):
        # |v|^2 / (1+r^2): maximum on r in [0,1] sits at r = 1
        coeffs = np.array([0.0, 1.0], dtype=complex)
        r = np.linspace(0.0, 1.0, 501)
        chi = np.zeros(1)
        p, ir, _ = kernels.poly_grid_max(coeffs, r, chi)
        assert ir == 500
        assert p == pytest.approx(0.5, rel=1e-12)


class TestProductAscent:
    def test_recovers_product_states(self):
        rng = np.random.default_rng(2)
        for n in [2, 3, 5, 12]:
            f = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
            psi = f[0]
            for row in f[1:]:
                psi = np.kron(psi, row)
            psi /= np.linalg.norm(psi)
            start = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
            start /= np.linalg.norm(start, axis=1, keepdims=True)
            p, sweeps, ok = kernels.product_ascent(psi, n, start.copy(), 200, 1e-13)
            assert ok
            assert p == pytest.approx(1.0, abs=1e-9)

    def test_reported_value_matches_factors(self):
        # returned overlap must equal the literal overlap of the final factors
        rng = np.random.default_rng(3)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        f = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        p, _, ok = kernels.product_ascent(psi, 3, f, 300, 1e-13)
        assert ok
        assert _literal_product_overlap(psi, 3, f) == pytest.approx(p, abs=1e-11)

    def test_monotone_not_below_start(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            psi = rng.normal(size=16) + 1j * rng.normal(size=16)
            psi /= np.linalg.norm(psi)
            f = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
            f /= np.linalg.norm(f, axis=1, keepdims=True)
            before = _literal_product_overlap(psi, 4, f)
            p, _, _ = kernels.product_ascent(psi, 4, f.copy(), 300, 1e-13)
            assert p >= before - 1e-12

    def test_one_sweep_is_literal_gauss_seidel(self):
        # qubit i is set parallel to <e_b|psi>, e_b the kron of the other
        # factors with |b> at i: qubits before i already updated, after not
        rng = np.random.default_rng(7)
        n = 5
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        f = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        want = f.copy()
        for i in range(n):
            env = [
                np.vdot(_kron_rows([*want[:i], np.eye(2)[b], *want[i + 1 :]]), psi)
                for b in (0, 1)
            ]
            want[i] = env / np.linalg.norm(env)
        p, sweeps, _ = kernels.product_ascent(psi, n, f, 1, 0.0)
        assert sweeps == 1
        np.testing.assert_allclose(f, want, rtol=0, atol=1e-12)
        assert p == pytest.approx(_literal_product_overlap(psi, n, want), abs=1e-12)

    def test_unconverged_flag(self):
        rng = np.random.default_rng(6)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        f = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        p, sweeps, ok = kernels.product_ascent(psi, 3, f, 1, 0.0)
        assert not ok
        assert sweeps == 1
