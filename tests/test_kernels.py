import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
            p, ir, ic, _ = kernels.poly_grid_max(coeffs, r, chi)
            assert p == pytest.approx(want[0], rel=1e-12)
            assert (ir, ic) == (want[1], want[2])

    def test_tie_breaks_to_first_row_major_cell(self):
        # constant polynomial: every grid point attains the max at r=0 row
        coeffs = np.array([2.0 + 0.0j])
        r = np.linspace(0.0, 1.0, 7)
        chi = np.linspace(0.0, 2 * np.pi, 5, endpoint=False)
        p, ir, ic, _ = kernels.poly_grid_max(coeffs, r, chi)
        assert (ir, ic) == (0, 0)
        assert p == pytest.approx(4.0)

    def test_normalization_power_follows_degree(self):
        # |v|^2 / (1+r^2): maximum on r in [0,1] sits at r = 1
        coeffs = np.array([0.0, 1.0], dtype=complex)
        r = np.linspace(0.0, 1.0, 501)
        chi = np.zeros(1)
        p, ir, _, _ = kernels.poly_grid_max(coeffs, r, chi)
        assert ir == 500
        assert p == pytest.approx(0.5, rel=1e-12)

    def test_values_are_the_whole_grid(self):
        rng = np.random.default_rng(1)
        coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
        r = np.linspace(0.0, 1.0, 33)
        chi = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
        v = r[:, None] * np.exp(1j * chi)[None, :]
        want = np.abs(np.polynomial.polynomial.polyval(v, coeffs)) ** 2
        want /= (1.0 + r[:, None] ** 2) ** 5
        p, ir, ic, values = kernels.poly_grid_max(coeffs, r, chi)
        assert values.shape == (33, 40)
        np.testing.assert_allclose(values, want, rtol=1e-12)
        assert p == values[ir, ic] == values.max()


def _literal_ascent(psi, n, f, max_sweeps, tol):
    """One start's Gauss-Seidel ascent, qubit by qubit, in place: (overlap^2, sweeps, converged).

    Qubit i is set parallel to its environment: psi contracted with the
    conjugates of every other factor, the ones before i already updated.
    """
    tensor = psi.reshape((2,) * n)
    last, nrm2 = -1.0, 0.0
    for sweep in range(max_sweeps):
        for i in range(n):
            env = tensor
            for j in range(n - 1, -1, -1):  # from the last axis, so axis j is qubit j
                if j != i:
                    env = np.tensordot(env, f[j].conj(), axes=([j], [0]))
            nrm2 = float(np.vdot(env, env).real)
            if nrm2 > 0.0:
                f[i] = env / np.sqrt(nrm2)
        if abs(nrm2 - last) <= tol:
            return nrm2, sweep + 1, True
        last = nrm2
    return nrm2, max_sweeps, False


def _random_factors(rng, starts, n):
    f = rng.normal(size=(starts, n, 2)) + 1j * rng.normal(size=(starts, n, 2))
    return f / np.linalg.norm(f, axis=2, keepdims=True)


class TestProductAscent:
    def test_recovers_product_states(self):
        rng = np.random.default_rng(2)
        for n in [2, 3, 5, 12]:
            f = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
            psi = f[0]
            for row in f[1:]:
                psi = np.kron(psi, row)
            psi /= np.linalg.norm(psi)
            start = _random_factors(rng, 1, n)
            p, sweeps, ok = kernels.product_ascent(psi, n, start.copy(), 200, 1e-13)
            assert ok[0]
            assert p[0] == pytest.approx(1.0, abs=1e-9)

    def test_reported_value_matches_factors(self):
        # returned overlap must equal the literal overlap of the final factors
        rng = np.random.default_rng(3)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        f = _random_factors(rng, 1, 3)
        p, _, ok = kernels.product_ascent(psi, 3, f, 300, 1e-13)
        assert ok[0]
        assert _literal_product_overlap(psi, 3, f[0]) == pytest.approx(p[0], abs=1e-11)

    def test_monotone_not_below_start(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            psi = rng.normal(size=16) + 1j * rng.normal(size=16)
            psi /= np.linalg.norm(psi)
            f = _random_factors(rng, 1, 4)
            before = _literal_product_overlap(psi, 4, f[0])
            p, _, _ = kernels.product_ascent(psi, 4, f.copy(), 300, 1e-13)
            assert p[0] >= before - 1e-12

    def test_one_sweep_is_literal_gauss_seidel(self):
        # qubit i is set parallel to <e_b|psi>, e_b the kron of the other
        # factors with |b> at i: qubits before i already updated, after not
        rng = np.random.default_rng(7)
        n = 5
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        f = _random_factors(rng, 1, n)
        want = f[0].copy()
        for i in range(n):
            env = [
                np.vdot(_kron_rows([*want[:i], np.eye(2)[b], *want[i + 1 :]]), psi)
                for b in (0, 1)
            ]
            want[i] = env / np.linalg.norm(env)
        p, sweeps, _ = kernels.product_ascent(psi, n, f, 1, 0.0)
        assert sweeps[0] == 1
        np.testing.assert_allclose(f[0], want, rtol=0, atol=1e-12)
        assert p[0] == pytest.approx(_literal_product_overlap(psi, n, want), abs=1e-12)

    def test_unconverged_flag(self):
        rng = np.random.default_rng(6)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        f = _random_factors(rng, 1, 3)
        p, sweeps, ok = kernels.product_ascent(psi, 3, f, 1, 0.0)
        assert not ok[0]
        assert sweeps[0] == 1

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(
        n=st.integers(2, 9),
        starts=st.integers(1, 40),
        max_sweeps=st.integers(1, 60),
        tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_start_runs_its_own_ascent(self, n, starts, max_sweeps, tol, seed):
        # a batch gives every start the sweeps, flag and overlap it gets alone
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        f = _random_factors(rng, starts, n)
        want = [_literal_ascent(psi, n, start.copy(), max_sweeps, tol) for start in f]
        alone = [kernels.product_ascent(psi, n, start[None].copy(), max_sweeps, tol) for start in f]
        p, sweeps, ok = kernels.product_ascent(psi, n, f, max_sweeps, tol)
        assert sweeps.tolist() == [w[1] for w in want]
        assert ok.tolist() == [w[2] for w in want]
        np.testing.assert_allclose(p, [w[0] for w in want], rtol=0, atol=1e-14)
        # and bit for bit what it gets in a batch of its own
        assert p.tolist() == [a[0][0] for a in alone]
        assert sweeps.tolist() == [a[1][0] for a in alone]

    def test_groups_bound_the_batch(self, monkeypatch):
        # groups of 3 starts give the results of one group of all 10
        rng = np.random.default_rng(8)
        n = 6
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        f = _random_factors(rng, 10, n)
        g = f.copy()
        whole = kernels.product_ascent(psi, n, f, 40, 1e-12)
        monkeypatch.setattr(kernels, "_GROUP_ENTRIES", 3 << n)
        grouped = kernels.product_ascent(psi, n, g, 40, 1e-12)
        for a, b in zip(whole, grouped):
            assert a.tolist() == b.tolist()
        assert np.array_equal(f, g)
        assert 0 < whole[2].sum() < 10  # converged and unconverged starts
