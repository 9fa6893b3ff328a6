import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from grovergeo.segre import _max_minor_residual, _rebuild_distance


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
        rng = np.random.default_rng(5)
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        a /= np.linalg.norm(a)
        b = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert _rebuild_distance(b, a) == pytest.approx(fs_distance(b, a), abs=1e-12)
        # a unit-norm tilt by angle eps off a: the Fubini-Study distance is 2*eps
        eps = 1e-12
        w = b - np.vdot(a, b) * a
        tilted = (np.cos(eps) * a + np.sin(eps) * w / np.linalg.norm(w)) * (2.0 - 1.0j)
        assert _rebuild_distance(tilted, a) == pytest.approx(2.0 * eps, rel=1e-3)

    def test_validation(self):
        with pytest.raises(DimensionError):
            is_fully_separable(Ray(np.ones(6)), 3)
        with pytest.raises(DomainError):
            is_fully_separable(Ray(np.ones(4)), 0)
        with pytest.raises(DomainError):
            is_fully_separable(Ray(np.ones(4)), 2, tol=0.0)


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
