import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grovergeo import (
    CoherentProduct,
    GroverPathPoint,
    closest_product_overlap,
    coherent_overlap,
    concurrence,
    concurrence_along_path,
    concurrence_from_quadric,
    critical_qubit_number,
    entanglement_approx,
    entanglement_approx_curve,
    entanglement_exact,
    entanglement_exact_2q,
    entanglement_grid_oracle,
    extremum_roots,
    grover_path_ray,
    half_way_angle,
    kernels,
    pair_entropy_from_concurrence,
    partial_entropy,
    reduced_density_2q,
    stationary_parameter,
    triangle_envelope,
)
from grovergeo.errors import (
    ApproxDomainError,
    ConvergenceError,
    DimensionError,
    DomainError,
)


class TestPathPoint:
    def test_level_endpoints(self):
        assert GroverPathPoint(3, 1.0).success_probability == pytest.approx(1 / 8)
        assert GroverPathPoint(3, 0.0).success_probability == 1.0

    def test_angle_round_trip(self):
        for n, t in [(2, 0.7), (4, 1.1), (6, 1.5)]:
            p = GroverPathPoint.from_angle(n, t)
            assert p.angle == pytest.approx(t, abs=1e-12)
            assert p.success_probability == pytest.approx(np.sin(t) ** 2, abs=1e-12)

    def test_from_angle_endpoints(self):
        n = 4
        t_min = np.arctan2(1.0, np.sqrt(15.0))
        assert GroverPathPoint.from_angle(n, t_min).u == pytest.approx(1.0, abs=1e-12)
        assert GroverPathPoint.from_angle(n, np.pi / 2).u == pytest.approx(0.0, abs=1e-12)

    def test_from_angle_domain(self):
        with pytest.raises(DomainError):
            GroverPathPoint.from_angle(4, 0.1)
        with pytest.raises(DomainError):
            GroverPathPoint.from_angle(4, 1.8)

    def test_ray_amplitudes(self):
        z = GroverPathPoint(2, 0.5).ray().coords
        np.testing.assert_allclose(z[:3], z[0], atol=1e-15)
        assert z[3] == pytest.approx(2.0 * z[0].real, abs=1e-15)

    def test_level_validation(self):
        with pytest.raises(DomainError):
            GroverPathPoint(2, -0.1)
        with pytest.raises(DomainError):
            GroverPathPoint(2, np.nan)


class TestCoherentProduct:
    def test_ray_is_power_pattern(self):
        v = 0.3 + 0.4j
        z = CoherentProduct(3, v).ray().coords
        zeros = np.array([3, 2, 2, 1, 2, 1, 1, 0])
        want = v**zeros
        want = want / np.linalg.norm(want)
        np.testing.assert_allclose(z, want, atol=1e-14)

    def test_polar_properties(self):
        cp = CoherentProduct(2, 1j * 0.5)
        assert cp.radius == pytest.approx(0.5)
        assert cp.phase == pytest.approx(np.pi / 2)

    def test_zero_coordinate_is_marked_state(self):
        z = CoherentProduct(2, 0.0).ray().coords
        np.testing.assert_allclose(z, [0, 0, 0, 1], atol=1e-15)

    def test_finite_guard(self):
        with pytest.raises(DomainError):
            CoherentProduct(2, np.inf)


class TestCoherentOverlap:
    def test_matches_literal_inner_product(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            u = rng.random()
            r = rng.random()
            chi = rng.uniform(0, 2 * np.pi)
            psi = grover_path_ray(n, u)
            prod = CoherentProduct(n, r * np.exp(1j * chi)).ray()
            want = abs(np.vdot(prod.coords, psi.coords)) ** 2
            assert coherent_overlap(n, u, r, chi) == pytest.approx(want, abs=1e-13)

    def test_phase_zero_is_best_for_path_states(self):
        for chi in np.linspace(0.1, 2 * np.pi - 0.1, 7):
            assert coherent_overlap(3, 0.2, 0.3, chi) <= coherent_overlap(3, 0.2, 0.3, 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            coherent_overlap(3, 0.2, -0.5)


class TestStationaryStructure:
    def test_stationary_parameter_inverts_roots(self):
        for n, u in [(3, 0.2), (5, 0.07), (7, 0.05)]:
            for r in extremum_roots(n, u):
                if 0.0 < r < 1.0:
                    assert stationary_parameter(n, r) == pytest.approx(u, abs=1e-10)

    def test_roots_are_overlap_extrema(self):
        # central difference of the real-axis overlap vanishes at each root
        n, u = 4, 0.1
        for r in extremum_roots(n, u):
            if 1e-3 < r < 1 - 1e-3:
                h = 1e-6
                d = (coherent_overlap(n, u, r + h) - coherent_overlap(n, u, r - h)) / (2 * h)
                assert abs(d) < 1e-6

    def test_single_root_below_critical_count(self):
        for n in [2, 4, 6]:
            for u in np.linspace(0.01, 0.99, 40):
                assert len(extremum_roots(n, u)) == 1

    def test_fold_appears_at_seven_qubits(self):
        counts = {len(extremum_roots(7, u)) for u in np.linspace(0.0795, 0.0825, 40)}
        assert 3 in counts

    def test_frozen_fold_window(self):
        # interior local max / local min of the stationarity level over r
        rs = np.linspace(1e-6, 1 - 1e-9, 200001)
        g = np.array([stationary_parameter(7, r) for r in rs])
        d = np.sign(np.diff(g))
        peaks = np.flatnonzero((d[:-1] > 0) & (d[1:] < 0)) + 1
        troughs = np.flatnonzero((d[:-1] < 0) & (d[1:] > 0)) + 1
        assert len(peaks) == 1 and len(troughs) == 1
        assert g[peaks[0]] == pytest.approx(0.08171729626723374, abs=1e-9)
        assert g[troughs[0]] == pytest.approx(0.08070617906683483, abs=1e-9)

    def test_critical_qubit_number_value(self):
        assert critical_qubit_number() == pytest.approx(4 + 2 * np.sqrt(2), abs=1e-15)
        assert 6 < critical_qubit_number() < 7

    def test_extremum_roots_validation(self):
        with pytest.raises(DomainError):
            stationary_parameter(3, 1.5)

    def test_extreme_levels(self):
        for n in (1, 7, 24):
            # u[(1+r)^(n-1)(1-r) + r] >= ur > r on (0, 1] once u > 1
            for u in (np.nextafter(1.0, 2.0), 3.0, 1e308):
                assert extremum_roots(n, u) == []
            assert extremum_roots(n, 1.0) == [1.0]
            # below the smallest normal float the root is u itself
            assert extremum_roots(n, 5e-324) == [5e-324]
            assert extremum_roots(n, 0.0) == [0.0]

    def test_close_root_pair_at_fold_edge(self):
        # the two lower roots lie 1.3e-4 apart: a sign-change scan on a grid
        # coarser than that sees neither
        u = 0.08171729570489242
        roots = extremum_roots(7, u)
        assert len(roots) == 3
        assert roots[1] - roots[0] == pytest.approx(1.333e-4, rel=1e-3)
        for r in roots:
            assert stationary_parameter(7, r) == pytest.approx(u, abs=1e-10)
        assert entanglement_exact(7, u).root_count == 3


_PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)


class TestExactRouteProperties:
    @_PROPERTY_SETTINGS
    @given(n=st.integers(2, 24), u=st.floats(0.0, 1.0))
    def test_roots_sorted_distinct_and_inverting(self, n, u):
        roots = extremum_roots(n, u)
        assert roots
        assert all(0.0 <= r <= 1.0 for r in roots)
        assert all(b > a for a, b in zip(roots, roots[1:]))
        for r in roots:
            # near r = 1 the level moves by more than 1e-10 per ulp of r, so
            # ask for u to be attained within one ulp of each root
            lo = stationary_parameter(n, float(np.nextafter(r, 0.0)))
            hi = stationary_parameter(n, min(1.0, float(np.nextafter(r, 1.0))))
            assert min(lo, hi) - 1e-10 <= u <= max(lo, hi) + 1e-10

    @_PROPERTY_SETTINGS
    @given(n=st.integers(2, 24), u=st.floats(0.0, 1.0), r=st.floats(0.0, 1.0))
    def test_rootfind_overlap_is_the_best(self, n, u, r):
        # the closed-form overlap rounds to about n ulps near its maximum
        tol = 4 * n * np.finfo(float).eps
        best = np.cos(entanglement_exact(n, u).value / 2.0) ** 2
        assert best >= coherent_overlap(n, u, r) - tol
        if (n - 1) * u < 1.0:
            approx = np.cos(entanglement_approx(n, u).value / 2.0) ** 2
            assert best >= approx - tol


class TestExactTwoQubit:
    FROZEN = {
        1 / 3: 0.3398369094541249,
        0.1: 0.17565925088427667,
        0.25: 0.3212885892648111,
        0.5: 0.289751701436045,
        2 / 3: 0.19164719497541502,
        0.9: 0.05250225107653846,
    }

    def test_frozen_values(self):
        for u, want in self.FROZEN.items():
            assert entanglement_exact_2q(u).value == pytest.approx(want, abs=1e-12)

    def test_peak_location_and_radius(self):
        res = entanglement_exact_2q(1 / 3)
        assert res.r_star == pytest.approx(np.sqrt(2) - 1, abs=1e-12)
        assert np.cos(res.value / 2) ** 2 == pytest.approx(0.9714045207910312, abs=1e-12)

    def test_peak_is_at_one_third(self):
        us = np.linspace(0.0, 1.0, 2001)
        values = [entanglement_exact_2q(u).value for u in us]
        assert us[int(np.argmax(values))] == pytest.approx(1 / 3, abs=1e-3)

    def test_product_endpoints(self):
        assert entanglement_exact_2q(0.0).value == 0.0
        assert entanglement_exact_2q(1.0).value == pytest.approx(0.0, abs=1e-7)

    def test_agrees_with_schmidt_route(self):
        # largest singular value of the 2x2 amplitude matrix is the overlap
        for u in [0.05, 0.3, 0.6, 0.95]:
            psi = grover_path_ray(2, u).coords
            smax = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)[0]
            want = 2.0 * np.arccos(min(1.0, smax))
            assert entanglement_exact_2q(u).value == pytest.approx(want, abs=1e-12)

    def test_level_cap(self):
        with pytest.raises(DomainError):
            entanglement_exact_2q(1.2)


class TestExactGeneral:
    def test_matches_closed_two_qubit(self):
        for u in [0.0, 0.05, 1 / 3, 0.7, 1.0]:
            a = entanglement_exact(2, u).value
            b = entanglement_exact_2q(u).value
            assert a == pytest.approx(b, abs=1e-12)

    def test_mirror_symmetry_about_half_way(self):
        for n in [2, 3, 5]:
            t_half = half_way_angle(n)
            for dt in [0.05, 0.15, 0.3]:
                ua = GroverPathPoint.from_angle(n, t_half - dt).u
                ub = GroverPathPoint.from_angle(n, t_half + dt).u
                ea = entanglement_exact(n, ua).value
                eb = entanglement_exact(n, ub).value
                assert ea == pytest.approx(eb, abs=1e-9)

    def test_root_count_reported(self):
        assert entanglement_exact(6, 0.2).root_count == 1
        assert entanglement_exact(7, 0.0812).root_count == 3

    def test_level_cap(self):
        with pytest.raises(DomainError):
            entanglement_exact(3, 1.01)


class TestApproximation:
    FROZEN = {
        (2, 0.1): 0.17569548751180958,
        (2, 1 / 3): 0.38535070113403264,
        (3, 0.1): 0.3520868041513994,
        (5, 0.02): 0.2013267179014346,
    }

    def test_frozen_values(self):
        for (n, u), want in self.FROZEN.items():
            res = entanglement_approx(n, u)
            assert res.value == pytest.approx(want, abs=1e-12)
            assert res.r_star == pytest.approx(u / (1 - (n - 1) * u), abs=1e-15)

    def test_close_to_exact_at_small_level(self):
        for n in [2, 3, 4]:
            for u in [0.01, 0.03]:
                a = entanglement_approx(n, u).value
                b = entanglement_exact(n, u).value
                assert a == pytest.approx(b, abs=1e-4)

    def test_domain_boundary(self):
        with pytest.raises(ApproxDomainError):
            entanglement_approx(5, 0.25)  # (n-1)u = 1
        with pytest.raises(ApproxDomainError):
            entanglement_approx(11, 0.2)


class TestApproxCurve:
    def test_mirror_construction(self):
        n = 4
        t_half = half_way_angle(n)
        for dt in [0.05, 0.2]:
            a = entanglement_approx_curve(n, t_half - dt).value
            b = entanglement_approx_curve(n, t_half + dt).value
            assert a == pytest.approx(b, abs=1e-12)

    def test_frozen_envelope_distances(self):
        frozen = {
            5: 0.6040329074545853,
            10: 0.07525488752243503,
            15: 0.011538530051757867,
        }
        for n, want in frozen.items():
            theta = 2.0 * np.arcsin(2.0 ** (-n / 2))
            ts = np.linspace(theta / 2, np.pi / 2, 200)
            d = max(
                abs(entanglement_approx_curve(n, t).value - triangle_envelope(t))
                for t in ts
            )
            assert d == pytest.approx(want, abs=1e-10)

    def test_apex_value_at_fifteen_qubits(self):
        assert entanglement_approx_curve(15, np.pi / 4).value == pytest.approx(
            1.5592565486151835, abs=1e-10
        )

    def test_triangle_envelope_shape(self):
        assert triangle_envelope(np.pi / 4) == pytest.approx(np.pi / 2)
        assert triangle_envelope(0.0) == pytest.approx(0.0, abs=1e-15)
        assert triangle_envelope(np.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_angle_domain(self):
        with pytest.raises(DomainError):
            entanglement_approx_curve(4, 0.05)


class TestOracle:
    def test_agrees_with_exact_on_path_states(self):
        rng = np.random.default_rng(0)
        for n in [2, 3, 5]:
            for u in rng.random(3):
                o = entanglement_grid_oracle(grover_path_ray(n, u), n, resolution=512)
                e = entanglement_exact(n, u).value
                assert o.value == pytest.approx(e, abs=2e-3)

    def test_refinement_accuracy(self):
        o = entanglement_grid_oracle(grover_path_ray(3, 0.2), 3, resolution=2048)
        e = entanglement_exact(3, 0.2).value
        assert o.value == pytest.approx(e, abs=1e-7)

    def test_large_qubit_count_cross_route(self):
        # grid search and root-finding stay consistent well past the fold
        u = GroverPathPoint.from_angle(15, np.pi / 4).u
        o = entanglement_grid_oracle(grover_path_ray(15, u), 15, resolution=2048)
        e = entanglement_exact(15, u).value
        assert o.value == pytest.approx(e, abs=1e-6)

    def test_bell_state(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert entanglement_grid_oracle(bell, 2).value == pytest.approx(
            np.pi / 2, abs=1e-5
        )

    def test_product_corners_of_both_charts(self):
        up = entanglement_grid_oracle(np.eye(4)[0], 2)  # |00>, needs inverted chart
        down = entanglement_grid_oracle(np.eye(4)[3], 2)
        assert up.value == 0.0
        assert up.r_star == np.inf
        assert down.value == 0.0
        assert down.r_star == 0.0

    def test_w_state_symmetric_chart(self):
        w = np.zeros(8, dtype=complex)
        w[1] = w[2] = w[4] = 3**-0.5
        res = entanglement_grid_oracle(w, 3)
        assert np.cos(res.value / 2) ** 2 == pytest.approx(4 / 9, abs=1e-9)
        assert res.r_star == pytest.approx(np.sqrt(2), abs=1e-3)

    def test_general_branch_on_random_products(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        psi = f[0]
        for row in f[1:]:
            psi = np.kron(psi, row)
        p, r_star, chi_star, symmetric = closest_product_overlap(psi, 4)
        assert not symmetric
        assert np.isnan(r_star) and np.isnan(chi_star)
        assert p == pytest.approx(1.0, abs=1e-9)

    def test_general_branch_tracks_symmetric_answer(self):
        # tiny asymmetric perturbation flips the branch but barely moves E
        rng = np.random.default_rng(2)
        psi = grover_path_ray(4, 0.15).coords + 1e-5 * rng.normal(size=16)
        res = entanglement_grid_oracle(psi, 4)
        assert np.isnan(res.r_star)  # general branch taken
        assert res.value == pytest.approx(entanglement_exact(4, 0.15).value, abs=1e-3)

    def test_two_qubit_random_states_match_schmidt(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            smax = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)[0]
            p = closest_product_overlap(psi, 2)[0]
            assert p == pytest.approx(smax**2, abs=1e-10)

    def test_non_convergence_raises(self, monkeypatch):
        calls = []

        def never_converges(psi, n, factors, max_sweeps, tol):
            calls.append(1)
            return 0.5, max_sweeps, False

        monkeypatch.setattr(kernels, "product_ascent", never_converges)
        rng = np.random.default_rng(4)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        with pytest.raises(ConvergenceError) as info:
            closest_product_overlap(psi, 3)
        assert len(calls) == 34  # 32 random + 2 deterministic starts
        message = str(info.value)
        assert "n=3" in message and "34" in message and "500" in message
        assert "0.5" in message

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
    def test_general_branch_beats_sampled_products(self, n, seed):
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        p, _, _, symmetric = closest_product_overlap(psi, n)
        assert not symmetric
        assert p <= 1.0
        for _ in range(16):
            f = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
            f /= np.linalg.norm(f, axis=1, keepdims=True)
            prod = f[0]
            for row in f[1:]:
                prod = np.kron(prod, row)
            assert p >= abs(np.vdot(prod, psi)) ** 2 - 1e-12

    def test_validation(self):
        with pytest.raises(DimensionError):
            entanglement_grid_oracle(np.ones(6), 3)
        with pytest.raises(DomainError):
            entanglement_grid_oracle(np.zeros(8), 3)
        with pytest.raises(DomainError):
            closest_product_overlap(np.ones(8), 3, resolution=1)


class TestPairwiseMeasures:
    def test_concurrence_routes_agree_on_path(self):
        for u in np.linspace(0.0, 1.0, 21):
            psi = grover_path_ray(2, u)
            a = concurrence(psi)
            b = concurrence_from_quadric(psi)
            c = concurrence_along_path(u)
            assert a == pytest.approx(c, abs=1e-12)
            assert b == pytest.approx(c, abs=1e-12)

    def test_frozen_closed_form_values(self):
        assert concurrence_along_path(1 / 3) == pytest.approx(1 / 3, abs=2e-16)
        assert concurrence_along_path(0.1) == pytest.approx(0.18 / 1.03, abs=1e-15)
        assert concurrence_along_path(0.5) == pytest.approx(0.5 / 1.75, abs=1e-15)

    def test_bell_state_maximal(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert concurrence(bell) == pytest.approx(1.0, abs=1e-12)
        assert partial_entropy(reduced_density_2q(bell)) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_vanishes(self):
        prod = np.kron([0.6, 0.8], [1 / np.sqrt(2), 1j / np.sqrt(2)])
        assert concurrence(prod) == pytest.approx(0.0, abs=1e-12)
        assert partial_entropy(reduced_density_2q(prod)) == pytest.approx(0.0, abs=1e-9)

    def test_frozen_path_entropy(self):
        rho = reduced_density_2q(grover_path_ray(2, 1 / 3))
        # spectrum in closed form: (1 +- sqrt(1 - C^2)) / 2 with C = 1/3
        lam_plus = (1.0 + np.sqrt(8.0) / 3.0) / 2.0
        want = -(lam_plus * np.log2(lam_plus) + (1 - lam_plus) * np.log2(1 - lam_plus))
        assert partial_entropy(rho) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.1873, abs=1e-4)
        lam = np.sort(np.linalg.eigvalsh(rho))[::-1]
        np.testing.assert_allclose(lam, [lam_plus, 1 - lam_plus], atol=1e-12)

    def test_entropy_from_concurrence_matches_reduced_density(self):
        for u in [0.1, 1 / 3, 0.6]:
            psi = grover_path_ray(2, u)
            a = pair_entropy_from_concurrence(concurrence(psi))
            b = partial_entropy(reduced_density_2q(psi))
            assert a == pytest.approx(b, abs=1e-12)

    def test_entanglement_concurrence_near_coincidence(self):
        us = np.linspace(0.0, 1.0, 1001)
        worst = max(
            abs(entanglement_exact_2q(u).value - concurrence_along_path(u)) for u in us
        )
        assert worst < 0.01
        assert worst == pytest.approx(0.00650357517285, abs=1e-5)

    def test_reduced_density_properties(self):
        rho = reduced_density_2q(grover_path_ray(2, 0.4))
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-15)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(DimensionError):
            concurrence(np.ones(8))
        with pytest.raises(DimensionError):
            concurrence_from_quadric(np.ones(8))
        with pytest.raises(DimensionError):
            reduced_density_2q(np.ones(8))
        with pytest.raises(DomainError):
            pair_entropy_from_concurrence(1.5)
        with pytest.raises(DimensionError):
            partial_entropy(np.ones((2, 3)))
