import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grovergeo
from grovergeo import (
    Ray,
    canonical_form,
    fs_distance,
    grover_separability_residual,
    is_fully_separable,
    max_quadric_residual,
    quadric_system,
    segre_embed,
)
from grovergeo.errors import DimensionError, DomainError
from grovergeo.segre import _max_minor_residual, _minor_norm


def _rand_ray(rng, dim):
    return Ray(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def _kron_chain(vectors):
    out = vectors[0]
    for v in vectors[1:]:
        out = np.kron(out, v)
    return out


class TestQuadricSystem:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("mp", [1, 2, 3, 4])
    def test_constraint_count_formula(self, m, mp):
        assert quadric_system(m, mp).count == m * (m + 1) * mp * (mp + 1) // 4

    def test_count_builds_no_constraints(self):
        tracemalloc.start()
        try:
            count = quadric_system(2047, 1).count
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 2096128
        assert peak < 2**20

    def test_quadruples_lexicographic_and_valid(self):
        qs = quadric_system(2, 3)
        assert qs.constraints == tuple(sorted(qs.constraints))
        for i, j, k, l in qs.constraints:
            assert 0 <= i < j <= 2
            assert 0 <= k < l <= 3

    def test_evaluate_vanishes_on_embeds(self):
        rng = np.random.default_rng(0)
        qs = quadric_system(2, 3)
        emb = segre_embed(_rand_ray(rng, 3), _rand_ray(rng, 4))
        vals = qs.evaluate(canonical_form(emb).coords)
        assert vals.shape == (qs.count,)
        assert np.max(np.abs(vals)) < 1e-13

    def test_evaluate_nonzero_off_variety(self):
        qs = quadric_system(1, 1)
        bell = canonical_form(Ray([1.0, 0.0, 0.0, 1.0])).coords
        assert abs(qs.evaluate(bell)[0]) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("mp", [1, 2, 3, 4])
    def test_evaluate_is_each_literal_minor_in_order(self, m, mp):
        rng = np.random.default_rng(10 * m + mp)
        z = rng.normal(size=(m + 1, mp + 1)) + 1j * rng.normal(size=(m + 1, mp + 1))
        qs = quadric_system(m, mp)
        want = [z[i, k] * z[j, l] - z[i, l] * z[j, k] for i, j, k, l in qs.constraints]
        np.testing.assert_allclose(qs.evaluate(z.ravel()), want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("mp", [1, 2, 3, 4])
    def test_evaluate_max_is_the_residual(self, m, mp):
        r = _rand_ray(np.random.default_rng(100 + 10 * m + mp), (m + 1) * (mp + 1))
        vals = quadric_system(m, mp).evaluate(canonical_form(r).coords)
        assert float(np.abs(vals).max()) == max_quadric_residual(r, m, mp)

    def test_dimension_guard(self):
        with pytest.raises(DimensionError):
            quadric_system(2, 2).evaluate(np.ones(4))

    def test_degenerate_factors_rejected(self):
        with pytest.raises(DomainError):
            quadric_system(0, 2)


class TestEmbedResidual:
    def test_embeds_always_satisfy_quadrics(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(100):
            m = int(rng.integers(1, 6))
            mp = int(rng.integers(1, 6))
            emb = segre_embed(_rand_ray(rng, m + 1), _rand_ray(rng, mp + 1))
            worst = max(worst, max_quadric_residual(emb, m, mp))
        assert worst < 1e-12

    def test_entangled_rays_violate(self):
        bell = Ray([1.0, 0.0, 0.0, 1.0])
        assert max_quadric_residual(bell, 1, 1) == pytest.approx(0.5, abs=1e-12)

    def test_scale_free(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        a = max_quadric_residual(Ray(v), 1, 2)
        b = max_quadric_residual(Ray(v * (3.0 - 4.0j)), 1, 2)
        assert a == pytest.approx(b, abs=1e-14)

    def test_embed_coordinates_layout(self):
        # index of a_i b_k must be (m'+1) i + k
        a = Ray([2.0, 3.0])
        b = Ray([5.0, 7.0, 11.0])
        np.testing.assert_allclose(
            segre_embed(a, b).coords, [10, 14, 22, 15, 21, 33], atol=1e-14
        )

    def test_dimension_guard(self):
        with pytest.raises(DimensionError):
            max_quadric_residual(Ray(np.ones(6)), 1, 1)
        # a single-row split has no minors, so it certifies nothing
        with pytest.raises(DomainError):
            max_quadric_residual(Ray([1.0, 2.0, 3.0]), 0, 2)
        # negative factor dimensions whose product matches the ray dimension
        with pytest.raises(DomainError):
            max_quadric_residual(Ray([1.0, 0.0]), -2, -3)

    @pytest.mark.parametrize("rows,cols", [(1001, 2), (1500, 3), (2000, 2)])
    def test_row_blocks_match_full_outer_exactly(self, rows, cols):
        # these sizes span two to four blocks of the residual's row chunking
        rng = np.random.default_rng(rows)
        m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        m = np.outer(m[:, 0], m[0]) + 1e-9 * m  # near-product: minors cancel
        want = 0.0
        for k in range(cols):
            for l in range(k + 1, cols):
                outer = np.outer(m[:, k], m[:, l])
                want = max(want, float(np.abs(outer - outer.T).max()))
        assert _max_minor_residual(m) == want

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(
        distinct=st.integers(2, 4).flatmap(
            lambda cols: st.lists(
                st.lists(
                    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
                    | st.sampled_from([0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0)]),
                    min_size=cols,
                    max_size=cols,
                ),
                min_size=1,
                max_size=4,
                unique_by=lambda row: np.asarray(row, dtype=complex).tobytes(),
            )
        ),
        rows=st.integers(2, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_repeated_rows_give_the_brute_force_maximum(self, distinct, rows, seed):
        # every distinct row appears at least once, in shuffled order
        rng = np.random.default_rng(seed)
        distinct = np.asarray(distinct, dtype=complex)
        extra = rng.integers(0, len(distinct), max(0, rows - len(distinct)))
        m = distinct[rng.permutation(np.concatenate([np.arange(len(distinct)), extra]))]
        want = 0.0
        for k in range(m.shape[1]):
            for l in range(k + 1, m.shape[1]):
                a, b = m[:, k], m[:, l]
                for s in range(0, len(m), 512):
                    # the library's operand order: complex products need not commute bitwise
                    block = np.outer(a[s : s + 512], b) - np.outer(a, b[s : s + 512]).T
                    want = max(want, float(np.abs(block).max()))
        assert _max_minor_residual(m) == want
        assert _max_minor_residual(np.repeat(distinct[:1], rows, axis=0)) == 0.0

    def test_residual_leaves_numpy_ma_unimported(self):
        # numpy.ma costs about 0.6 MB of RSS; a fresh interpreter shows whether it loads
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from grovergeo import Ray, max_quadric_residual\n"
            "z = np.arange(1.0, 65.0) + 1j\n"
            "max_quadric_residual(Ray(z), 31, 1)\n"
            "max_quadric_residual(Ray(z), 7, 7)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(grovergeo.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestMinorNorm:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        kind=st.sampled_from(["random", "rank-1", "rank-1 plus noise"]),
        rows=st.integers(2, 300),
        noise=st.floats(-17.0, -4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bounds_the_largest_minor(self, kind, rows, noise, seed):
        # so at one tol the QR certificate accepts no state the max-minor test rejects
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(rows, 2)) + 1j * rng.normal(size=(rows, 2))
        if kind != "random":
            m = np.outer(m[:, 0], m[0])
        if kind == "rank-1 plus noise":
            m += 10.0**noise * (rng.normal(size=(rows, 2)) + 1j * rng.normal(size=(rows, 2)))
        m /= np.linalg.norm(m)
        residual = _minor_norm(m)
        assert residual >= _max_minor_residual(m) - 2.2e-16
        if kind == "random":
            # Cauchy-Binet: the root-sum-square of every 2x2 minor
            minors = np.outer(m[:, 0], m[:, 1]) - np.outer(m[:, 1], m[:, 0])
            rss = math.sqrt(float(np.sum(np.abs(np.triu(minors, 1)) ** 2)))
            assert residual == pytest.approx(rss, rel=1e-12)


class TestFullSeparability:
    def test_accepts_products_and_recovers_factors(self):
        rng = np.random.default_rng(3)
        for n in [2, 3, 4, 5]:
            factors = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(n)]
            rep = is_fully_separable(Ray(_kron_chain(factors)), n)
            assert rep.fully_separable
            assert rep.max_residual < 1e-10
            assert len(rep.factors) == n
            for want, got in zip(factors, rep.factors):
                assert fs_distance(Ray(want), got) < 1e-6

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        angles=st.lists(
            st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi)),
            min_size=1,
            max_size=12,
        )
    )
    def test_accepts_random_products_and_rebuilds_them(self, angles):
        # one Bloch-sphere point per qubit, basis states included
        factors = [
            np.array([math.cos(th / 2.0), np.exp(1j * ph) * math.sin(th / 2.0)])
            for th, ph in angles
        ]
        psi = _kron_chain(factors)
        rep = is_fully_separable(Ray(psi), len(factors))
        assert rep.fully_separable
        rebuilt = _kron_chain([f.coords for f in rep.factors])
        fidelity = abs(np.vdot(rebuilt / np.linalg.norm(rebuilt), psi)) ** 2
        assert fidelity >= 1.0 - 1e-12

    def test_factor_order_most_significant_first(self):
        up = np.array([1.0, 0.0])
        down = np.array([0.0, 1.0])
        rep = is_fully_separable(Ray(_kron_chain([up, down, down])), 3)
        got = [np.argmax(np.abs(f.coords)) for f in rep.factors]
        assert got == [0, 1, 1]

    @pytest.mark.parametrize(
        "state,n",
        [
            ([1.0, 0.0, 0.0, 1.0], 2),  # maximally entangled pair
            ([0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0], 3),  # W-like
            ([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0], 3),  # GHZ-like
        ],
    )
    def test_rejects_entangled(self, state, n):
        rep = is_fully_separable(Ray(np.asarray(state, dtype=complex)), n)
        assert not rep.fully_separable
        assert rep.factors is None
        assert rep.max_residual > 1e-3

    def test_rejects_partially_separable(self):
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        qubit = np.array([0.6, 0.8])
        rep = is_fully_separable(Ray(np.kron(bell, qubit)), 3)
        assert not rep.fully_separable

    def test_single_qubit_is_trivially_separable(self):
        rep = is_fully_separable(Ray([0.6, 0.8j]), 1)
        assert rep.fully_separable
        assert len(rep.factors) == 1

    def test_tiny_amplitude_factor_handled(self):
        # last qubit nearly |1>: the even slice is tiny, reference must flip
        rng = np.random.default_rng(4)
        factors = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(3)]
        factors[-1] = np.array([1e-13, 1.0])
        rep = is_fully_separable(Ray(_kron_chain(factors)), 3)
        assert rep.fully_separable

    def test_accepts_twelve_qubit_product_near_fidelity_one(self):
        # 70th draw: its rebuild is exact to ~1e-15, but 2*arccos|<a|b>|
        # reads ~1e-7 there, above the 1e-8 rebuild threshold
        rng = np.random.default_rng(0)
        for _ in range(70):
            f = rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2))
            f /= np.linalg.norm(f, axis=1, keepdims=True)
        psi = _kron_chain(list(f))
        rep = is_fully_separable(Ray(psi / np.linalg.norm(psi)), 12)
        assert rep.fully_separable
        for want, got in zip(f, rep.factors):
            assert fs_distance(Ray(want), got) < 1e-6

    def test_rebuild_distance_resolves_near_zero(self):
        # the rebuild is checked by fs_distance, which matches 2*arccos|<a|b>|
        # where that resolves and stays exact where it reads 0
        rng = np.random.default_rng(5)
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        a /= np.linalg.norm(a)
        b = rng.normal(size=8) + 1j * rng.normal(size=8)
        want = 2.0 * np.arccos(abs(np.vdot(a, b)) / np.linalg.norm(b))
        assert fs_distance(b, a) == pytest.approx(want, abs=1e-12)
        # a unit-norm tilt by angle eps off a: the Fubini-Study distance is 2*eps
        eps = 1e-12
        w = b - np.vdot(a, b) * a
        tilted = (np.cos(eps) * a + np.sin(eps) * w / np.linalg.norm(w)) * (2.0 - 1.0j)
        assert fs_distance(tilted, a) == pytest.approx(2.0 * eps, rel=1e-3)

    def test_validation(self):
        with pytest.raises(DimensionError):
            is_fully_separable(Ray(np.ones(6)), 3)
        with pytest.raises(DomainError):
            is_fully_separable(Ray(np.ones(4)), 0)
        with pytest.raises(DomainError):
            is_fully_separable(Ray(np.ones(4)), 2, tol=0.0)

    @pytest.mark.parametrize("tol", [np.inf, np.nan])
    def test_non_finite_tolerance_rejected(self, tol):
        # an infinite tolerance would accept the Bell state
        with pytest.raises(DomainError):
            is_fully_separable(Ray([1.0, 0.0, 0.0, 1.0]), 2, tol=tol)


class TestGroverSeparabilityResidual:
    def test_closed_form_matches_literal_minors(self):
        for N in [4, 16, 64]:
            for phi in np.linspace(0.1, np.pi / 2, 9):
                z = np.full(N, np.cos(phi) / np.sqrt(N - 1), dtype=complex)
                z[N - 1] = np.sin(phi)
                lit = max_quadric_residual(Ray(z), N // 2 - 1, 1)
                assert grover_separability_residual(N, phi) == pytest.approx(
                    lit, abs=1e-12
                )

    def test_vanishes_only_at_path_ends(self):
        N = 16
        theta_half = np.arcsin(N**-0.5)
        assert grover_separability_residual(N, theta_half) < 1e-15
        assert grover_separability_residual(N, np.pi / 2) < 1e-15
        for phi in np.linspace(theta_half + 0.05, np.pi / 2 - 0.05, 20):
            assert grover_separability_residual(N, phi) > 1e-4

    def test_frozen_midpoint_value(self):
        assert grover_separability_residual(4, np.pi / 4) == pytest.approx(
            0.12200846792814621, abs=1e-15
        )

    def test_size_guard(self):
        with pytest.raises(DomainError):
            grover_separability_residual(2, 0.3)
        with pytest.raises(DomainError):
            grover_separability_residual(2**1100, 0.3)  # N - 1.0 overflows

    @pytest.mark.parametrize("phi", [np.inf, -np.inf, np.nan, np.array([0.3, np.nan]), [np.inf, 0.3]])
    def test_non_finite_angle_rejected(self, phi):
        with pytest.raises(DomainError):
            grover_separability_residual(16, phi)

    @pytest.mark.parametrize("n", [2, 12, 1023])
    def test_array_matches_scalar_calls(self, n):
        N = 1 << n
        phi = np.linspace(np.arcsin(N**-0.5), np.pi / 2, 1000)
        res = grover_separability_residual(N, phi)
        assert res.shape == phi.shape
        assert res.tolist() == [grover_separability_residual(N, x) for x in phi.tolist()]

    def test_scalar_gives_float(self):
        for phi in (0.3, np.float64(0.3), np.array(0.3)):
            assert type(grover_separability_residual(16, phi)) is float
