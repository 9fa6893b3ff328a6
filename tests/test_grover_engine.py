import numpy as np
import pytest

from grovergeo import (
    GeodesicKernelParams,
    Ray,
    SearchInstance,
    average_state,
    fourier_state,
    fs_distance,
    generalized_state,
    grover_state,
    optimal_query_count,
    search_metrics,
    success_probability,
    worst_case_time,
)
from grovergeo.errors import (
    DegenerateKernel,
    DomainError,
    SizeError,
    UnreachableTarget,
)


class TestSearchInstance:
    def test_derived_quantities(self):
        inst = SearchInstance(4, 5)
        assert inst.size == 16
        np.testing.assert_allclose(inst.rotation_angle, 2.0 * np.arcsin(0.25), rtol=1e-15)

    def test_validation(self):
        with pytest.raises(SizeError):
            SearchInstance(0, 0)
        with pytest.raises(SizeError):
            SearchInstance(25, 0)
        with pytest.raises(DomainError):
            SearchInstance(2, 4)
        with pytest.raises(DomainError):
            SearchInstance(2, -1)


class TestGroverStates:
    def test_four_state_success_sequence(self):
        inst = SearchInstance(2, 3)
        probs = [success_probability(inst, k) for k in range(4)]
        np.testing.assert_allclose(probs, [0.25, 1.0, 0.25, 0.25], atol=1e-12)
        assert probs[1] == 1.0

    def test_sixteen_state_third_query(self):
        inst = SearchInstance(4, 5)
        assert success_probability(inst, 3) == pytest.approx(0.9613189697265625, abs=1e-13)

    def test_state_matches_success_probability(self):
        inst = SearchInstance(4, 11)
        for k in [0, 2, 5]:
            amp = grover_state(inst, k).coords[inst.target]
            np.testing.assert_allclose(abs(amp) ** 2, success_probability(inst, k), atol=1e-12)

    def test_closed_form_equals_operator_application(self):
        for n, target in [(2, 3), (4, 5), (6, 40)]:
            inst = SearchInstance(n, target)
            for k in range(5):
                a = grover_state(inst, k, mode="closed_form").coords
                b = grover_state(inst, k, mode="operator").coords
                assert np.max(np.abs(a - b)) < 1e-10

    def test_step_speed_is_twice_rotation_angle(self):
        inst = SearchInstance(4, 5)
        states = [grover_state(inst, k) for k in range(5)]
        steps = [fs_distance(a, b) for a, b in zip(states, states[1:])]
        np.testing.assert_allclose(steps, 2.0 * inst.rotation_angle, atol=1e-9)
        assert steps[0] == pytest.approx(1.0107210205683146, abs=1e-12)

    def test_average_state_distance_to_target(self):
        d = fs_distance(average_state(2), Ray(np.eye(4)[3]))
        assert d == pytest.approx(2.0943951023931953, abs=1e-14)

    def test_rejects_negative_k_and_bad_mode(self):
        inst = SearchInstance(2, 0)
        with pytest.raises(DomainError):
            grover_state(inst, -1)
        with pytest.raises(DomainError):
            grover_state(inst, 1, mode="magic")


class TestOptimalQueryCount:
    @pytest.mark.parametrize(
        "N,want", [(4, 1), (16, 3), (2**20, 804)]
    )
    def test_frozen_counts(self, N, want):
        assert optimal_query_count(N) == want

    def test_matches_rounding_formula_at_large_n(self):
        theta = 2.0 * np.arcsin(2.0**-10)
        assert optimal_query_count(2**20) == round(np.pi / (2.0 * theta) - 0.5)

    def test_locally_optimal(self):
        for N in [4, 16, 64, 1024, 2**12]:
            n = int(np.log2(N))
            inst = SearchInstance(n, 0)
            k = optimal_query_count(N)
            p = success_probability(inst, k)
            assert p >= success_probability(inst, k + 1)
            if k > 0:
                assert p >= success_probability(inst, k - 1)

    def test_too_small(self):
        with pytest.raises(SizeError):
            optimal_query_count(2)


class TestSearchMetrics:
    def test_half_overlap_costs_one_query(self):
        m = search_metrics(0.5)
        np.testing.assert_allclose(m.speed, 4.0 * np.arcsin(0.5), rtol=1e-15)
        np.testing.assert_allclose(m.distance, np.pi - 2.0 * np.arcsin(0.5), rtol=1e-15)
        assert m.queries == pytest.approx(1.0, abs=1e-15)

    def test_frozen_small_overlap_values(self):
        assert search_metrics(0.01).queries == pytest.approx(78.03850730571567, abs=1e-11)
        assert search_metrics(1 / 16).queries == pytest.approx(12.05818031051726, abs=1e-12)

    def test_small_overlap_asymptote(self):
        q = 0.01
        assert abs(search_metrics(q).queries - np.pi / (4 * q)) / search_metrics(q).queries < 0.01

    def test_full_overlap_is_free(self):
        assert search_metrics(1.0).queries == 0.0

    @pytest.mark.parametrize("q", [0.0, -0.5, 1.5, np.nan, 1e-310])
    def test_domain(self, q):
        with pytest.raises(DomainError):
            search_metrics(q)

    def test_array_matches_scalar_calls(self):
        tiny = np.finfo(float).tiny
        q = np.concatenate([np.geomspace(tiny, 1.0, 500), np.linspace(0.0, 1.0, 501)[1:]])
        m = search_metrics(q)
        scalar = [search_metrics(x) for x in q.tolist()]
        assert m.speed.shape == m.distance.shape == m.queries.shape == q.shape
        assert m.speed.tolist() == [s.speed for s in scalar]
        assert m.distance.tolist() == [s.distance for s in scalar]
        assert m.queries.tolist() == [s.queries for s in scalar]

    @pytest.mark.parametrize("q", [0.5, np.float64(0.5), np.array(0.5)])
    def test_scalar_gives_floats(self, q):
        m = search_metrics(q)
        assert type(m.speed) is type(m.distance) is type(m.queries) is float

    @pytest.mark.parametrize("bad", [0.0, np.nan, 1e-310])
    def test_array_domain(self, bad):
        q = np.linspace(0.1, 1.0, 7)
        q[3] = bad
        with pytest.raises(DomainError):
            search_metrics(q)


class TestWorstCaseTime:
    def test_uniform_sixteen(self):
        assert worst_case_time(np.full(16, 0.25)) == pytest.approx(
            2.6082688394304085, abs=1e-13
        )

    def test_uniform_is_best_among_random(self):
        rng = np.random.default_rng(0)
        base = worst_case_time(np.full(16, 0.25))
        for _ in range(200):
            m = rng.random(16) + 0.05
            m /= np.linalg.norm(m)
            assert worst_case_time(m) >= base - 1e-12

    def test_zero_amplitude_target_unreachable(self):
        m = np.zeros(4)
        m[0] = 1.0
        with pytest.raises(UnreachableTarget):
            worst_case_time(m)

    def test_validation(self):
        with pytest.raises(DomainError):
            worst_case_time(np.full(16, 0.5))  # squares sum to 4
        with pytest.raises(DomainError):
            worst_case_time([-0.5, np.sqrt(0.75)])
        with pytest.raises(DomainError):
            worst_case_time([1.0])


class TestGeneralizedKernel:
    def test_fourier_start_recovers_uniform_overlap(self):
        f = fourier_state(4, 3)
        par = GeodesicKernelParams(f, 5)
        assert par.overlap == pytest.approx(0.25, abs=1e-15)
        np.testing.assert_allclose(par.angle, 2.0 * np.arcsin(0.25), rtol=1e-15)
        assert par.state[5] == par.overlap  # aligned: real positive at target

    def test_closed_form_equals_operator(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        par = GeodesicKernelParams(v, 2)
        for k in range(4):
            a = generalized_state(par, 2, k, mode="closed_form").coords
            b = generalized_state(par, 2, k, mode="operator").coords
            assert np.max(np.abs(a - b)) < 1e-9

    def test_step_distance_is_twice_step_angle(self):
        par = GeodesicKernelParams(fourier_state(4, 1), 3)
        s0 = generalized_state(par, 3, 0)
        s1 = generalized_state(par, 3, 1)
        np.testing.assert_allclose(fs_distance(s0, s1), 2.0 * par.angle, atol=1e-9)

    def test_grover_kernel_is_special_case(self):
        inst = SearchInstance(4, 5)
        par = GeodesicKernelParams(average_state(4), 5)
        for k in range(4):
            a = generalized_state(par, 5, k).coords
            b = grover_state(inst, k).coords
            assert np.max(np.abs(a - b)) < 1e-12

    def test_immutability(self):
        par = GeodesicKernelParams(fourier_state(2, 1), 0)
        with pytest.raises(AttributeError):
            par.overlap = 0.9
        with pytest.raises(ValueError):
            par.state[0] = 1.0

    def test_degenerate_kernels_rejected(self):
        with pytest.raises(DegenerateKernel):
            GeodesicKernelParams(np.zeros(4), 0)
        with pytest.raises(DegenerateKernel):
            GeodesicKernelParams(np.eye(4)[1], 0)  # no target overlap
        for bad in (np.inf, np.nan):
            for target in (0, 1):
                with pytest.raises(DomainError):
                    GeodesicKernelParams(np.array([bad, 1.0]), target)

    def test_underflowing_start_state_normalises(self):
        # |z|^2 underflows to 0: the state is rescaled by a power of two, not rejected
        par = GeodesicKernelParams(np.array([1e-200, 1e-200]), 0)
        assert par.overlap == pytest.approx(2**-0.5, abs=1e-15)

    def test_target_mismatch_rejected(self):
        par = GeodesicKernelParams(fourier_state(2, 1), 0)
        with pytest.raises(DomainError):
            generalized_state(par, 3, 1)

    def test_start_on_target_ray(self):
        par = GeodesicKernelParams(np.eye(4)[2], 2)
        s = generalized_state(par, 2, 0)
        assert abs(s.coords[2]) == pytest.approx(1.0, abs=1e-12)


class TestFourierStates:
    def test_uniform_magnitudes(self):
        for p in [0, 1, 7]:
            f = fourier_state(3, p)
            np.testing.assert_allclose(np.abs(f.coords), 8**-0.5, atol=1e-14)

    def test_orthonormal_family(self):
        mat = np.column_stack([fourier_state(3, p).coords for p in range(8)])
        np.testing.assert_allclose(mat.conj().T @ mat, np.eye(8), atol=1e-12)

    def test_zero_frequency_is_average_state(self):
        np.testing.assert_allclose(
            fourier_state(4, 0).coords, average_state(4).coords, atol=1e-15
        )

    def test_frequency_range(self):
        with pytest.raises(DomainError):
            fourier_state(3, 8)
        with pytest.raises(DomainError):
            fourier_state(3, -1)
