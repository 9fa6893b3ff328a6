import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import grovergeo
from grovergeo import (
    CoherentProduct,
    Ray,
    SearchInstance,
    UnitVector,
    canonical_form,
    fs_distance,
    fs_line_element,
    geodesic_point,
    grover_path_ray,
    grover_state,
    horizontality_residual,
    inhomogeneous,
    transition_probability,
)
from grovergeo.errors import (
    ChartUndefined,
    DimensionError,
    DomainError,
    GeodesicBasisError,
    InsufficientSamples,
    InvalidRay,
    TangentError,
)


def _random_ray(rng, dim):
    return Ray(rng.normal(size=dim) + 1j * rng.normal(size=dim))


class TestRayValidation:
    def test_accepts_lists_and_arrays(self):
        assert Ray([1.0, 2.0]).dim == 2
        assert len(Ray(np.arange(1, 5))) == 4

    def test_coords_read_only(self):
        r = Ray([1.0, 2.0])
        with pytest.raises(ValueError):
            r.coords[0] = 5.0

    @pytest.mark.parametrize("bad", [[1.0], [], [[1.0, 2.0], [3.0, 4.0]]])
    def test_bad_shapes(self, bad):
        with pytest.raises(InvalidRay):
            Ray(bad)

    def test_zero_and_nonfinite(self):
        with pytest.raises(InvalidRay):
            Ray([0.0, 0.0, 0.0])
        with pytest.raises(InvalidRay):
            Ray([1.0, np.nan])
        with pytest.raises(InvalidRay):
            Ray([1.0, np.inf])

    def test_unit_vector_norm_guard(self):
        UnitVector([1.0, 0.0])
        with pytest.raises(InvalidRay):
            UnitVector([1.0, 1.0])

    def test_normalised_constructions_keep_the_ray_checks(self):
        # these skip UnitVector's own checks, so they must not build a
        # one-coordinate ray or, when |z|^2 overflows, an all-zero one:
        # the coordinates are scaled by a power of two first, which is exact
        with pytest.raises(InvalidRay):
            canonical_form(np.array([2.0]))
        amps = np.complex128(1e75) ** np.array([4, 3, 3, 2, 3, 2, 2, 1, 3, 2, 2, 1, 2, 1, 1, 0])
        with np.errstate(over="ignore"):  # the first |z|^2
            want = canonical_form(amps).coords
        assert np.array_equal(want, canonical_form(amps * 2.0**-1000).coords)
        # the product itself is built in the chart (1, 1e-75), where no |z|^2 overflows
        assert np.array_equal(CoherentProduct(4, 1e75).ray().coords, want)

    def test_underflowing_coordinates_normalise(self):
        # |z|^2 underflows to 0 although the coordinates do not
        got = canonical_form([1e-170, 2e-170, 0.0, 0.0]).coords
        want = canonical_form(np.array([1e-170, 2e-170, 0.0, 0.0]) * 2.0**600).coords
        assert np.array_equal(got, want)
        assert abs(np.linalg.norm(got) - 1.0) < 1e-15
        with pytest.raises(InvalidRay):
            canonical_form([0.0, 0.0, 0.0])

    def test_subnormal_squares_normalise(self):
        # |z|^2 falls below the normal range and loses bits without reaching 0:
        # the same ray once read 1.2e-2 and 1.1e-5 from itself
        assert fs_distance([3e-162, 1e-162j], [3.0, 1j]) <= 1e-15
        assert fs_distance([1e-160, 1e-160], [1.0, 1.0]) <= 1e-15


class TestCanonicalForm:
    def test_pivot_real_positive_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            r = canonical_form(_random_ray(rng, 5))
            z = r.coords
            j = int(np.argmax(np.abs(z)))
            assert z[j].imag == 0.0
            assert z[j].real > 0.0
            assert abs(np.linalg.norm(z) - 1.0) < 1e-12

    def test_gauge_invariance(self):
        # same ray under any complex rescaling -> identical representative
        rng = np.random.default_rng(1)
        for _ in range(25):
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            scale = (0.1 + rng.random() * 5.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            a = canonical_form(Ray(v)).coords
            b = canonical_form(Ray(v * scale)).coords
            np.testing.assert_allclose(a, b, atol=1e-13)

    def test_tie_breaks_to_lowest_index(self):
        z = canonical_form(Ray([1j, 1.0])).coords
        assert z[0].imag == 0.0 and z[0].real > 0.0
        np.testing.assert_allclose(z[0], 2**-0.5, atol=1e-15)
        np.testing.assert_allclose(z[1], -1j * 2**-0.5, atol=1e-15)

    def test_accepts_plain_arrays(self):
        np.testing.assert_allclose(
            canonical_form(np.array([0.0, 2.0])).coords, [0.0, 1.0], atol=1e-15
        )


class TestInhomogeneousChart:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        r = _random_ray(rng, 4)
        for pivot in range(4):
            chart = inhomogeneous(r, pivot)
            assert chart.pivot == pivot
            assert chart.values.size == 3
            assert fs_distance(chart.to_ray(), r) < 1e-7

    def test_undefined_on_vanishing_coordinate(self):
        r = Ray([1.0, 0.0, 0.0])
        with pytest.raises(ChartUndefined):
            inhomogeneous(r, 1)

    def test_pivot_range(self):
        with pytest.raises(ChartUndefined):
            inhomogeneous(Ray([1.0, 2.0]), 7)


class TestMetric:
    def test_transition_probability_matches_overlap(self):
        rng = np.random.default_rng(3)
        a, b = _random_ray(rng, 5), _random_ray(rng, 5)
        va = a.coords / np.linalg.norm(a.coords)
        vb = b.coords / np.linalg.norm(b.coords)
        want = abs(np.vdot(va, vb)) ** 2
        np.testing.assert_allclose(transition_probability(a, b), want, rtol=1e-12)

    def test_distance_probability_relation(self):
        # P = cos^2(s/2) links the two exactly
        rng = np.random.default_rng(4)
        for _ in range(10):
            a, b = _random_ray(rng, 6), _random_ray(rng, 6)
            s = fs_distance(a, b)
            np.testing.assert_allclose(
                transition_probability(a, b), np.cos(s / 2.0) ** 2, atol=1e-12
            )

    def test_metric_axioms(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a, b, c = (_random_ray(rng, 4) for _ in range(3))
            dab = fs_distance(a, b)
            assert dab == fs_distance(b, a)
            assert 0.0 <= dab <= np.pi + 1e-15
            assert fs_distance(a, a) == 0.0
            assert fs_distance(a, c) <= dab + fs_distance(b, c) + 1e-12

    def test_phase_invariance(self):
        rng = np.random.default_rng(6)
        a, b = _random_ray(rng, 5), _random_ray(rng, 5)
        d = fs_distance(a, b)
        d2 = fs_distance(Ray(a.coords * np.exp(0.7j)), Ray(b.coords * -3.0))
        np.testing.assert_allclose(d, d2, atol=1e-13)

    def test_antipodal_distance_is_pi(self):
        assert fs_distance(Ray([1.0, 0.0]), Ray([0.0, 1.0])) == np.pi
        assert fs_distance([0.6, 0.8j, 0.0, 0.0], [0.0, 0.0, 2.0 - 1.0j, 3.0]) == np.pi

    def test_resolves_rays_a_billionth_apart(self):
        # 2*arccos|<a|b>| reads 0 here: |<a|b>| rounds to 1
        assert fs_distance([1.0, 1e-9], [1.0, 0.0]) == pytest.approx(2e-9, rel=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            fs_distance(Ray([1.0, 0.0]), Ray([1.0, 0.0, 0.0]))
        with pytest.raises(DimensionError):
            transition_probability(Ray([1.0, 0.0]), Ray([1.0, 0.0, 0.0]))


_COORDINATE = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


def _vectors(dim):
    """Complex vectors of length ``dim`` whose norm neither underflows nor vanishes."""
    vector = st.lists(_COORDINATE, min_size=dim, max_size=dim).map(
        lambda z: np.array(z, dtype=complex)
    )
    return vector.filter(lambda v: np.max(np.abs(v)) >= 1e-3)


_SCALE = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False)
_PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=100)


class TestDistanceProperties:
    @_PROPERTY_SETTINGS
    @given(st.integers(2, 16).flatmap(lambda d: st.tuples(_vectors(d), _vectors(d), _vectors(d))))
    def test_metric_axioms(self, trio):
        a, b, c = trio
        assert fs_distance(a, a) == 0.0
        assert fs_distance(a, b) == fs_distance(b, a)
        assert 0.0 <= fs_distance(a, b) <= np.pi
        assert fs_distance(a, c) <= fs_distance(a, b) + fs_distance(b, c) + 1e-14

    @_PROPERTY_SETTINGS
    @given(st.integers(2, 16).flatmap(lambda d: st.tuples(_vectors(d), _vectors(d))), _SCALE, _SCALE)
    def test_invariant_under_complex_scale(self, pair, lam, mu):
        a, b = pair
        d = fs_distance(a, b)
        assert fs_distance(lam * a, b) == pytest.approx(d, abs=1e-14)
        assert fs_distance(a, mu * b) == pytest.approx(d, abs=1e-14)

    @_PROPERTY_SETTINGS
    @given(
        st.integers(1, 8).flatmap(_vectors),
        st.integers(1, 8).flatmap(_vectors),
        st.floats(1e-15, 1e-3),
    )
    def test_unit_tilt_reads_twice_its_angle(self, head, tail, eps):
        # a and w are orthonormal by disjoint support: no bit of the tilt is
        # lost in a's coordinates
        a = np.concatenate([head / np.linalg.norm(head), np.zeros(tail.size)])
        w = np.concatenate([np.zeros(head.size), tail / np.linalg.norm(tail)])
        tilted = np.cos(eps) * a + np.sin(eps) * w
        assert fs_distance(a, tilted) == pytest.approx(2.0 * eps, rel=1e-6)


_ANY_COORDINATE = st.complex_numbers(allow_nan=False, allow_infinity=False)


class TestExtremeMagnitudes:
    @_PROPERTY_SETTINGS
    @given(
        st.integers(2, 16).flatmap(
            lambda d: st.tuples(
                st.lists(_ANY_COORDINATE, min_size=d, max_size=d).map(lambda z: np.array(z, dtype=complex)),
                _vectors(d),
            )
        )
    )
    @example(pair=(np.array([1e200, 1.0]), np.array([1.0, 0.0])))  # |z|^2 overflowed in the first norm
    # parts near 2^511, whose 16 |z|^2 sum past the largest float
    @example(pair=(np.full(16, 3e153 + 3e153j), np.ones(16, dtype=complex)))
    def test_any_finite_coordinates_read_their_scaled_distance(self, pair):
        # a ray reads, without a warning, the distance of its coordinates scaled
        # by the power of two that takes the largest part into [0.5, 1)
        a, b = pair
        assume(a.any())
        _, exponent = math.frexp(np.abs(a.view(np.float64)).max())
        scaled = np.ldexp(a.real, -exponent) + 1j * np.ldexp(a.imag, -exponent)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = fs_distance(a, b)
        assert abs(d - fs_distance(scaled, b)) <= 1e-15


_NORMALISING_CALLS = {
    "fs_distance": lambda bad: fs_distance([1.0, 0.0], bad),
    "transition_probability": lambda bad: transition_probability(bad, [1.0, 0.0]),
    "canonical_form": canonical_form,
    "inhomogeneous": lambda bad: inhomogeneous(bad, 1),
}


class TestNonFinite:
    # rejected before the norm, whose |inf|^2 would warn
    @pytest.mark.parametrize("bad", [[np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]])
    @pytest.mark.parametrize("name", sorted(_NORMALISING_CALLS))
    def test_normalising_functions_reject(self, name, bad):
        with pytest.raises(InvalidRay):
            _NORMALISING_CALLS[name](bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_horizontality_rejects_a_non_finite_sample(self, bad):
        p = UnitVector(np.eye(2)[0])
        with pytest.raises(InvalidRay):
            horizontality_residual([p, [1.0, bad], p])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_geodesic_rejects_a_non_finite_endpoint(self, bad):
        # an infinite endpoint once warned in the norm; a NaN one passed both basis checks
        with pytest.raises(InvalidRay):
            geodesic_point([bad, 0.0], [0.0, 1.0], 0.5)
        with pytest.raises(InvalidRay):
            geodesic_point([1.0, 0.0], [0.0, bad], 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_line_element_rejects_non_finite_input(self, bad):
        with pytest.raises(InvalidRay):
            fs_line_element([1.0, 0.0], [0.0, bad])
        with pytest.raises(InvalidRay):
            fs_line_element([bad, 0.0], [0.0, 1.0])


class TestGeodesic:
    def setup_method(self):
        self.p1 = UnitVector(np.eye(4)[0])
        self.p2 = UnitVector(np.eye(4)[2])

    def test_endpoints(self):
        assert fs_distance(geodesic_point(self.p1, self.p2, 0.0), self.p1) < 1e-12
        assert fs_distance(geodesic_point(self.p1, self.p2, np.pi), self.p2) < 1e-12

    def test_arc_length_parametrization(self):
        for s in [0.3, 1.0, 2.2, 3.0]:
            g = geodesic_point(self.p1, self.p2, s)
            np.testing.assert_allclose(fs_distance(self.p1, g), s, atol=1e-12)

    def test_additivity(self):
        a = geodesic_point(self.p1, self.p2, 0.4)
        b = geodesic_point(self.p1, self.p2, 1.9)
        np.testing.assert_allclose(fs_distance(a, b), 1.5, atol=1e-12)

    def test_requires_orthonormal_basis(self):
        with pytest.raises(GeodesicBasisError):
            geodesic_point(self.p1, UnitVector(np.full(4, 0.5)), 1.0)
        with pytest.raises(GeodesicBasisError):
            geodesic_point(Ray(np.eye(4)[0] * 2.0), self.p2, 1.0)

    def test_arc_length_domain(self):
        with pytest.raises(DomainError):
            geodesic_point(self.p1, self.p2, -0.1)
        with pytest.raises(DomainError):
            geodesic_point(self.p1, self.p2, 3.2)


class TestHorizontality:
    def test_real_geodesic_trace_is_horizontal(self):
        p1, p2 = UnitVector(np.eye(4)[0]), UnitVector(np.eye(4)[2])
        samples = [geodesic_point(p1, p2, s) for s in np.linspace(0.0, 1.5, 12)]
        assert horizontality_residual(samples) < 1e-12

    def test_phase_jitter_is_detected(self):
        p1, p2 = UnitVector(np.eye(4)[0]), UnitVector(np.eye(4)[2])
        samples = [
            UnitVector(geodesic_point(p1, p2, s).coords * np.exp(1j * 0.1 * i))
            for i, s in enumerate(np.linspace(0.0, 1.5, 12))
        ]
        assert horizontality_residual(samples) > 1e-3

    def test_needs_three_samples(self):
        p = UnitVector(np.eye(4)[0])
        with pytest.raises(InsufficientSamples):
            horizontality_residual([p, p])

    def test_orthogonal_consecutive_samples_rejected(self):
        p1, p2 = UnitVector(np.eye(4)[0]), UnitVector(np.eye(4)[2])
        with pytest.raises(DomainError):
            horizontality_residual([p1, p2, p1])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            horizontality_residual(
                [UnitVector(np.eye(4)[0]), UnitVector(np.eye(4)[1]), UnitVector([1.0, 0.0])]
            )


class TestLineElement:
    def test_matches_definition(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        v /= np.linalg.norm(v)
        d = 1e-4 * (rng.normal(size=6) + 1j * rng.normal(size=6))
        d -= np.real(np.vdot(v, d)) * v  # keep norm to first order
        want = 4.0 * (np.vdot(d, d).real - np.vdot(v, d).imag ** 2)
        np.testing.assert_allclose(fs_line_element(v, d), want, rtol=1e-10)

    def test_vertical_displacement_costs_nothing(self):
        # moving along the phase orbit is pure gauge
        v = np.full(4, 0.5, dtype=complex)
        d = 1e-5j * v
        assert fs_line_element(v, d) < 1e-25

    def test_matches_squared_distance_to_second_order(self):
        p1, p2 = UnitVector(np.eye(4)[0]), UnitVector(np.eye(4)[1])
        eps = 1e-5
        g = geodesic_point(p1, p2, eps)
        ds2 = fs_line_element(p1.coords, g.coords - p1.coords)
        np.testing.assert_allclose(np.sqrt(ds2), eps, rtol=1e-4)

    def test_norm_violating_displacement_rejected(self):
        v = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(TangentError):
            fs_line_element(v, np.array([0.1, 0.0], dtype=complex))

    def test_non_unit_base_rejected(self):
        with pytest.raises(InvalidRay):
            fs_line_element(np.array([2.0, 0.0], dtype=complex), np.zeros(2, dtype=complex))


_LARGE_STATES = """
import math
import numpy as np
from grovergeo import CoherentProduct, SearchInstance, grover_path_ray, grover_state
from grovergeo import optimal_query_count
def check(v):
    # the norm error, exact but for the squares' rounding: each square splits
    # into a multiple of 2^-29, whose float64 sums are exact below 2, and a
    # remainder under 2^-30, whose pairwise sum errs by under 1e-17.  (A
    # math.fsum of every square would cost some 30 s here.)
    sq = v.coords.view(float) ** 2
    hi = sq + 2.0**23
    hi -= 2.0**23
    sq -= hi
    err = abs(math.fsum([hi.sum(), sq.sum()]) - 1.0)
    assert err <= 1e-12, (v.dim, err)
for n in range(17, 22):
    inst = SearchInstance(n, 12345)
    for k in np.linspace(0, optimal_query_count(inst.size), 40).round():
        check(grover_state(inst, int(k)))
    for u in np.linspace(0.0, 1.0, 12):
        check(grover_path_ray(n, float(u)))
    check(CoherentProduct(n, 0.3 * np.exp(0.4j)).ray())
"""


def _exact_norm_error(v) -> float:
    z = v.coords
    return abs(math.fsum(np.concatenate([z.real**2, z.imag**2])) - 1.0)


class TestUnitNorm:
    def test_large_states_pass_their_own_check(self):
        # a fresh interpreter, so that the BLAS thread count takes effect:
        # one thread, as the benchmark runs, is where a BLAS norm errs most
        src = str(Path(grovergeo.__file__).resolve().parents[1])
        threads = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        out = subprocess.run(
            [sys.executable, "-c", _LARGE_STATES],
            env={**os.environ, **threads, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_normalised_to_the_last_bits(self, n):
        inst = SearchInstance(n, 37)
        rng = np.random.default_rng(n)
        states = [grover_state(inst, k) for k in range(0, 12, 3)]
        states += [grover_path_ray(n, u) for u in (0.01, 0.3, 1.0)]
        states.append(canonical_form(_random_ray(rng, 1 << n)))
        assert max(_exact_norm_error(v) for v in states) <= 1e-15
