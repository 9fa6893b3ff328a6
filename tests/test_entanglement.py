import hashlib
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
from grovergeo import entanglement as ent
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
    fs_distance,
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
    InvalidRay,
    SizeError,
)
from grovergeo.cli import _angle_grid
from grovergeo.ray_space import _norm, _unit

# a seeded 18-qubit product state: every start of the ascent converges in 2 sweeps
_ASCENT_MEMORY = """
import resource
import numpy as np
from grovergeo import closest_product_overlap

def product(rng, n):
    psi = np.ones(1, dtype=complex)
    for _ in range(n):
        psi = np.kron(psi, rng.normal(size=2) + 1j * rng.normal(size=2))
    return psi

rng = np.random.default_rng(18)
closest_product_overlap(product(rng, 4), 4)  # imports and first-call allocations
psi = product(rng, 18)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
p = closest_product_overlap(psi, 18)[0]
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(p, 1024 * (after - before))
"""


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

    @pytest.mark.parametrize("bad", [[0.5], [0.5, 0.1], 1j, 0.5 + 0j, np.array([0.5]), "half"])
    def test_a_level_is_one_real_number(self, bad):
        # every route takes one level per call; anything else is a package error
        for make in (lambda u: GroverPathPoint(7, u), lambda u: extremum_roots(7, u),
                     lambda u: entanglement_exact(7, u)):
            with pytest.raises(DomainError):
                make(bad)

    def test_numpy_scalar_levels(self):
        want = entanglement_exact(7, 0.0812)
        for u in (np.float64(0.0812), np.array(0.0812)):
            assert GroverPathPoint(7, u).u == 0.0812
            assert extremum_roots(7, u) == extremum_roots(7, 0.0812)
            assert entanglement_exact(7, u) == want


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
        with pytest.raises(DomainError):  # finite parts, but |v| overflows
            CoherentProduct(2, 1.7e308 + 1.7e308j)


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

    def test_flipped_chart_matches_literal_inner_product(self):
        # past 1, u and r are evaluated inverted
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            u, r = 10 ** rng.uniform(-1, 2, size=2)
            chi = rng.uniform(0, 2 * np.pi)
            psi = grover_path_ray(n, u)
            prod = CoherentProduct(n, r * np.exp(1j * chi)).ray()
            want = abs(np.vdot(prod.coords, psi.coords)) ** 2
            assert coherent_overlap(n, u, r, chi) == pytest.approx(want, abs=1e-13)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        n=st.integers(2, 24),
        u=st.floats(0.0, 1e300),
        r=st.floats(0.0, 1e300),
        chi=st.floats(0.0, 2 * np.pi),
    )
    @example(n=11, u=0.5, r=1e15, chi=0.0)
    def test_large_radii_and_levels_stay_in_range(self, n, u, r, chi):
        assert 0.0 <= coherent_overlap(n, u, r, chi) <= 1.0

    def test_phase_zero_is_best_for_path_states(self):
        for chi in np.linspace(0.1, 2 * np.pi - 0.1, 7):
            assert coherent_overlap(3, 0.2, 0.3, chi) <= coherent_overlap(3, 0.2, 0.3, 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            coherent_overlap(3, 0.2, -0.5)
        # min(1, nan) is 1: a NaN phase would claim a product state
        with pytest.raises(DomainError):
            coherent_overlap(3, 0.5, 0.5, float("nan"))
        with pytest.raises(DomainError):
            coherent_overlap(3, 0.5, 0.5, float("inf"))


# fs_distance reads equal rays of 2^10 complex amplitudes as up to about
# 1.3e-14 apart: its overlap is a BLAS dot product
_RAY_TOL = 1e-13


class TestChartRule:
    """Path points and coherent products past 1 are built in the chart (1, 1/x).

    Up to 1 the ray is the literal vector's, bit for bit; past 1 it is the
    literal vector's ray wherever that vector is representable.
    """

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(n=st.integers(1, 10), u=st.floats(0.0, 1e300))
    @example(n=3, u=1e200)  # u^2 overflowed, and so did |z|^2 of the ray
    def test_path_point(self, n, u):
        point = GroverPathPoint(n, u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = point.ray().coords
            p = point.success_probability
        assert np.isfinite(got).all()
        assert abs(_norm(got) - 1.0) <= 1e-15
        literal = np.full(1 << n, u, dtype=complex)
        literal[-1] = 1.0
        if u <= 1.0:
            assert np.array_equal(got, _unit(literal))
        else:
            with np.errstate(over="ignore"):  # the literal vector's |z|^2
                assert fs_distance(literal, got) <= _RAY_TOL
        assert 0.0 <= p <= 1.0
        assert abs(p - math.sin(point.angle) ** 2) <= 1e-15

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        n=st.integers(1, 10),
        v=st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False),
    )
    @example(n=24, v=2e14)  # (2e14)^24 overflowed: the r_m of entanglement_approx near u = 1/23
    @example(n=4, v=1e75)  # |z|^2 overflowed
    def test_coherent_product(self, n, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = CoherentProduct(n, v).ray().coords
        assert np.isfinite(got).all()
        assert abs(_norm(got) - 1.0) <= 1e-15
        if n * math.log10(max(abs(v), 1.0)) < 300:  # the literal vector v^zeros(x) is representable
            literal = np.complex128(v) ** ent._zeros_per_index(n)
            if abs(v) <= 1.0:
                assert np.array_equal(got, _unit(literal))
            else:
                with np.errstate(over="ignore"):  # the literal vector's |z|^2
                    assert fs_distance(literal, got) <= _RAY_TOL


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
        with pytest.raises(SizeError):
            extremum_roots(25, 0.5)
        for u in (-0.1, np.nan, np.inf):
            with pytest.raises(DomainError):
                extremum_roots(7, u)

    def test_extreme_levels(self):
        for n in (1, 7, 24):
            # u[(1+r)^(n-1)(1-r) + r] >= ur > r on (0, 1] once u > 1
            for u in (np.nextafter(1.0, 2.0), 3.0, 1e308):
                assert extremum_roots(n, u) == []
                with pytest.raises(DomainError):
                    entanglement_exact(n, u)
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

    def test_two_qubit_roots_at_small_levels(self):
        # small levels at which a companion-matrix root finder found no real root
        assert extremum_roots(2, 1e-15) == [entanglement_exact_2q(1e-15).r_star]
        small = [1e-15, 7.0456969927982054e-15, 4.140554727411892e-14, 1.193002141969449e-13]
        for u in small + [1.1975375624907633e-11]:
            closed = entanglement_exact_2q(u)
            (r,) = extremum_roots(2, u)
            assert abs(r - closed.r_star) <= math.ulp(closed.r_star)
            assert entanglement_exact(2, u).value == pytest.approx(closed.value, rel=1e-15)


def _changed_pieces(n, u):
    """The number of monotone pieces of stationary_parameter whose ends' exact stationarity signs differ.

    The pieces end at 0, at the roots of (n - 1) r^2 - (n - 2) r + 1 (the
    fold edges, real from n = 7 on) and at 1.
    """
    ends = [0.0, 1.0]
    if n >= 7:
        s = math.sqrt(n * n - 8 * n + 8)
        ends[1:1] = (n - 2 - s) / (2 * (n - 1)), (n - 2 + s) / (2 * (n - 1))
    signs = [np.sign(ent._stationarity(n, u, r)) for r in ends]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _straddles(n, u, r):
    """Whether the exact stationarity condition changes sign or vanishes within one ulp of r."""
    near = (max(0.0, math.nextafter(r, 0.0)), r, min(1.0, math.nextafter(r, 1.0)))
    values = [ent._stationarity(n, u, x) for x in near]
    return min(values) <= 0.0 <= max(values)


_PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)


class TestExactRouteProperties:
    def test_path_endpoints_have_only_their_endpoint_root(self):
        # the exact route ranks only the stationary roots: for 0 < u < 1 the
        # overlap rises at r = 0 and falls at r = 1, and at u = 0 and 1 the
        # endpoint is the one root
        for n in range(1, 25):
            assert extremum_roots(n, 0.0) == [0.0]
            assert extremum_roots(n, 1.0) == [1.0]

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
    @given(n=st.integers(1, 24), k=st.floats(0.0, 307.0))
    @example(n=2, k=15.0)
    @example(n=7, k=307.0)
    def test_log_uniform_levels_have_a_root_per_changed_piece(self, n, k):
        u = 10.0**-k
        roots = extremum_roots(n, u)
        if 0.0 < u < 1.0:
            assert roots
        assert len(roots) == _changed_pieces(n, u)

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


_TINY = float(np.finfo(float).tiny)
_ROOT_LEVEL = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0795, 0.0825),  # the n = 7 fold window
    st.sampled_from([0.0, 1.0, 5e-324, _TINY]),
    st.floats(1.0, 1e300, exclude_min=True),
)


# sha256 of the roots' float.hex() bits, one line per level, taken from the
# companion-matrix route that the bracketed one replaced; it found a root at
# every one of these levels
_ROOT_BITS_SHA256 = "9120f33b9a95cf29f85dd87fe9f3dc7cf7f311f48be475f9451f3667eb2b1022"
_ROOT_BITS_EXAMPLES = [0.0, 1.0, 5e-324, _TINY, 0.0812, 0.08171729570489242, 0.0795, 0.0825, 0.5]


class TestPerLevelRoots:
    @_PROPERTY_SETTINGS
    @given(n=st.integers(1, 24), u=_ROOT_LEVEL)
    @example(n=7, u=0.08171729626723459)  # just below the fold's upper turn: a root pair 2.8e-8 apart
    @example(n=9, u=0.032362347018072515)  # just above its lower turn: a pair 3.4e-8 apart
    def test_each_root_is_an_exact_sign_change_within_one_ulp(self, n, u):
        roots = extremum_roots(n, u)
        assert all(_straddles(n, u, r) for r in roots)
        assert all(b > a for a, b in zip(roots, roots[1:]))
        assert len(roots) == _changed_pieces(n, u)

    def test_root_bits_are_frozen(self):
        digest = hashlib.sha256()
        for n in range(1, 25):
            grids = [GroverPathPoint.from_angle(n, t).u for points in (30, 257) for t in _angle_grid(n, points)]
            for u in _ROOT_BITS_EXAMPLES + grids:
                digest.update((" ".join(r.hex() for r in extremum_roots(n, u)) + "\n").encode())
        assert digest.hexdigest() == _ROOT_BITS_SHA256

    @pytest.mark.parametrize("n", [48, 100, 400])
    def test_per_level_solver_past_the_qubit_cap(self, n):
        # the solver builds no 2^n vector; 20 levels from 0.5 down to 1e-100
        for u in np.geomspace(0.5, 1e-100, 20).tolist():
            roots = ent._stationary_radii(n, u)
            assert roots and all(_straddles(n, u, r) for r in roots)
            assert all(b > a for a, b in zip(roots, roots[1:]))
            assert len(roots) == _changed_pieces(n, u)


# E of the exact route on a grid of n and u, to 42 digits: the largest squared
# overlap P over r = 0, 1 and the real roots in [0, 1] of the stationarity
# polynomial (mpmath.polyroots), then E = 2 acos(sqrt(P)), all at 60 digits
# with mpmath; at 80 digits every value agrees to 1e-45
_EXACT_REFERENCE = [
    (2, 1 - 1e-7, "0.0000000500000024736822258117200863598034939059134"),
    (2, 1 - 1e-5, "0.00000500002499999807641214269216630553579095668"),
    (2, 1e-8, "0.0000000199999997999999957517845615668794018726316"),
    (2, 1e-6, "0.00000199999799999533324482975039329673987432297"),
    (2, 0.3, "0.337054389576235444212947517051527347401422"),
    (3, 1 - 1e-7, "0.0000000500000038799324692044197425640411314210226"),
    (3, 1 - 1e-5, "0.00000500003906274295222998436300412012721485201"),
    (3, 1e-8, "0.0000000399999996999999828785690226307737008606752"),
    (3, 1e-6, "0.00000399999699998204147919069300864756913728718"),
    (3, 0.3, "0.568333257465393001006279302272238228023547"),
    (4, 1 - 1e-7, "0.000000041457813602957492591505781828298137423665"),
    (4, 1 - 1e-5, "0.00000414581844161337914541689146236933936349663"),
    (4, 1e-8, "0.0000000663324954452943348442178586925341158509298"),
    (4, 1e-6, "0.00000663324596252463182239711494008783612581122"),
    (4, 0.3, "0.680929812212704942946297051951977752844523"),
    (5, 1 - 1e-7, "0.0000000318688749921738609592059646602186562260174"),
    (5, 1 - 1e-5, "0.00000318691768619899762506321520427906318564694"),
    (5, 1e-8, "0.000000101980389879623296175039083926891354397875"),
    (5, 1e-6, "0.0000101980351047305835097567418735433210029237"),
    (5, 0.3, "0.633849860371559260329264180406453377138627"),
    (8, 1 - 1e-7, "0.0000000122783087515764123125848312518846929655899"),
    (8, 1 - 1e-5, "0.0000012278429785791813498832253686853390556172"),
    (8, 1e-8, "0.000000314324672553712014755613244896716560525479"),
    (8, 1e-6, "0.0000314324637250645888083462173051477384751442"),
    (8, 0.3, "0.281615993638304955911188064926683714416946"),
    (12, 1 - 1e-7, "0.00000000312003726274421857050194542698546155721749"),
    (12, 1 - 1e-5, "0.000000312006814538688994095816116903612250729512"),
    (12, 1e-8, "0.00000127796713552092311949405215704807508676488"),
    (12, 1e-6, "0.000127796711332260061694251009100448139211068"),
    (12, 0.3, "0.072726524582391517893140360235158352442981"),
    (14, 1 - 1e-7, "0.00000000156178473582549971298766562756202026334491"),
    (14, 1 - 1e-5, "0.000000156180019751498364071842691102922224935191"),
    (14, 1e-8, "0.00000255882785651259584875647883849110228006419"),
    (14, 1e-6, "0.000255882782845101886216405047525246104048007"),
    (14, 0.3, "0.0364323866903009424644552886696159355964806"),
    (20, 1 - 1e-7, "0.000000000195310563641035919460101953133793636190784"),
    (20, 1 - 1e-5, "0.0000000195312497335022531443090008800290299038851"),
    (20, 1e-8, "0.0000204797949200952703938526293562331390294505"),
    (20, 1e-6, "0.00204797877588730579637421457332319626843504"),
    (20, 0.3, "0.00455722800144160203332659173234115966285383"),
    (24, 1 - 1e-7, "0.0000000000488280934773064806812950765029461965584629"),
    (24, 1 - 1e-5, "0.00000000488285769057161088971804986652423766299581"),
    (24, 1e-8, "0.0000819199389189945574044138411963708067194884"),
    (24, 1e-6, "0.00819194808382809951990448984138218456300739"),
    (24, 0.3, "0.00113932178610591435653569652620130878085786"),
]

_LEVELS_NEAR_PRODUCTS = [1 - 1e-7, 1 - 1e-5, 1 - 2**-52, 1e-6, 1e-8, 1e-300]


class TestClassDistance:
    """The closed-form, root-finding and approximate routes' one distance."""

    def test_exact_route_matches_the_frozen_reference(self):
        for n, u, want in _EXACT_REFERENCE:
            assert abs(entanglement_exact(n, u).value - float(want)) <= 1e-15, (n, u)

    @_PROPERTY_SETTINGS
    @given(n=st.integers(1, 14), u=st.sampled_from(_LEVELS_NEAR_PRODUCTS) | st.floats(0.0, 1.0))
    @example(n=2, u=1 - 1e-7)
    @example(n=2, u=1 - 1e-5)
    @example(n=2, u=1 - 2**-52)
    @example(n=2, u=1e-6)
    @example(n=2, u=1e-8)
    @example(n=2, u=1e-300)
    def test_each_route_reads_the_distance_to_its_product(self, n, u):
        results = [entanglement_exact(n, u)]
        if n == 2:
            results.append(entanglement_exact_2q(u))
        if (n - 1) * u < 1.0:
            results.append(entanglement_approx(n, u))
        psi = grover_path_ray(n, u)
        for res in results:
            want = fs_distance(psi, CoherentProduct(n, res.r_star).ray())
            assert abs(res.value - want) <= 1e-15, res.method

    def test_path_endpoints_read_exactly_zero(self):
        # the uniform state is the product at r = 1, the marked state the one at r = 0
        for n in range(1, 25):
            assert entanglement_exact(n, 1.0).value == 0.0
            assert entanglement_exact(n, 0.0).value == 0.0
            assert entanglement_approx(n, 0.0).value == 0.0
        assert entanglement_exact_2q(1.0).value == entanglement_exact_2q(0.0).value == 0.0

    @_PROPERTY_SETTINGS
    @given(u=st.floats(0.0, 1e300))
    @example(u=0.3375)  # 2 acos(sqrt(P)) read 5.2e-8 at these levels
    @example(u=0.372)
    @example(u=0.063)
    def test_one_qubit_states_are_products(self, u):
        if u <= 1.0:
            assert entanglement_exact(1, u).value == 0.0
        assert entanglement_approx(1, u).value == 0.0

    @_PROPERTY_SETTINGS
    @given(n=st.integers(2, 24), ulps=st.integers(1, 2**52))
    @example(n=24, ulps=1)
    def test_approx_stays_finite_up_to_its_domain_edge(self, n, ulps):
        # the last levels below 1 / (n - 1) put r_m near 1e15 and beyond
        edge = 1.0 / (n - 1)
        u = max(0.0, edge - ulps * math.ulp(edge))
        assume((n - 1) * u < 1.0)
        res = entanglement_approx(n, u)
        assert math.isfinite(res.r_star)
        assert 0.0 <= res.value <= math.pi


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
        assert entanglement_exact_2q(1.0).value == 0.0

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


def _brute_force_grid_overlap(psi, n, resolution=256):
    """Best squared overlap of a symmetric state with the products on a plain grid.

    A low-resolution reference for the oracle: both charts evaluated on a
    ``resolution`` x ``resolution`` (r, chi) grid, with no polish.
    """
    zeros = np.array([n - bin(x).count("1") for x in range(1 << n)])
    coeffs = np.zeros(n + 1, dtype=complex)
    # the pairwise norm: the BLAS one reads p 4.3e-15 high on _EXACT_REFERENCE_CLASSES
    np.add.at(coeffs, zeros, np.conj(psi) / _norm(psi))
    r = np.linspace(0.0, 1.0, resolution)
    chi = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    return max(kernels.poly_grid_max(c, r, chi)[0] for c in (coeffs, coeffs[::-1]))


_CLASS_AMPLITUDE = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)

# an n = 10 symmetric state, classes (normal + i normal) * U(0, 1)^8, whose best
# product is |00...0> with p = 0.821554927784684357 (40-digit mpmath)
_rng = np.random.default_rng(345)
_EXACT_REFERENCE_CLASSES = _rng.normal(size=11) + 1j * _rng.normal(size=11)
_EXACT_REFERENCE_SCALES = _rng.uniform(size=11)

# an n = 8 symmetric state (class amplitudes by number of zero bits) whose best
# product sits on a ridge about 0.02 wide near v = 0.09 e^{3.47 i}: no cell of
# the 64^2 grid on it is a local maximum, so only a row's best cell leads there
_RIDGE_CLASSES = [
    -1.0810573515601227 + 0.28519870476625164j,
    -6.441333710022086e-05 + 0.0006235929948852592j,
    -0.14743537739963875 - 0.05681393821417398j,
    0.0055051555686339 + 0.026617557667150897j,
    -0.0030832850366593863 + 0.006096099594064087j,
    -0.0005999058255999881 - 0.0004972143923703842j,
    -1.2684858034803889e-08 + 5.832074818079489e-09j,
    0.0026656547221250953 + 0.00574170566109376j,
    -0.0001549227877282602 - 0.00019564614852533345j,
]


class TestGridStarts:
    def test_best_local_maxima_then_row_bests(self):
        # |0.5 + v^3|^2 / (1+r^2)^3 peaks at the three cube roots of unity (0.28),
        # then at v = 0 (0.25)
        coeffs = np.array([0.5, 0.0, 0.0, 1.0], dtype=complex)
        r = np.linspace(0.0, 1.0, 11)
        chi = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
        values = kernels.poly_grid_max(coeffs, r, chi)[3]
        peaks, row_best = ent._grid_starts(values, 5)
        assert sorted(peaks[:3].tolist()) == [120, 124, 128]
        # and nothing else: the last column, beside the peak at column 0, is not one
        assert peaks[3:].tolist() == [0]
        assert row_best.tolist() == [i * 12 + int(np.argmax(values[i])) for i in range(1, 10)]
        assert ent._grid_starts(values, 2)[0].size == 2

    def test_origin_row_is_one_point(self):
        # |1|^2 / (1+r^2) decays from v = 0, its one local maximum
        coeffs = np.array([1.0, 0.0], dtype=complex)
        r = np.linspace(0.0, 1.0, 5)
        chi = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
        peaks, row_best = ent._grid_starts(kernels.poly_grid_max(coeffs, r, chi)[3], 4)
        assert peaks.tolist() == [0]
        assert row_best.tolist() == [8, 16, 24, 32]


class TestOracle:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        n=st.integers(2, 14),
        classes=st.lists(_CLASS_AMPLITUDE, min_size=15, max_size=15),
        scales=st.lists(st.floats(0.0, 1.0), min_size=15, max_size=15),
        scale_power=st.sampled_from([0, 4, 8]),
        path_level=st.none() | st.floats(0.0, 1.0),
    )
    @example(
        n=10,
        classes=[*_EXACT_REFERENCE_CLASSES, 0, 0, 0, 0],
        scales=[*_EXACT_REFERENCE_SCALES, 0, 0, 0, 0],
        scale_power=8,
        path_level=None,
    )
    def test_polish_beats_a_brute_force_grid(self, n, classes, scales, scale_power, path_level):
        zeros = np.array([n - bin(x).count("1") for x in range(1 << n)])
        if path_level is None:
            # scaled class amplitudes span many decades, which narrows the maxima
            amplitudes = np.array(classes[: n + 1]) * np.array(scales[: n + 1]) ** scale_power
            assume(np.max(np.abs(amplitudes)) >= 1e-3)
            psi = amplitudes[zeros]
        else:
            psi = grover_path_ray(n, path_level).coords
        for state in (psi, psi[::-1]):  # the bit flip swaps the two charts
            p = closest_product_overlap(state, n)[0]
            assert p >= _brute_force_grid_overlap(state, n) - 1e-15
        if path_level is not None:
            exact = entanglement_exact(n, path_level)
            oracle = entanglement_grid_oracle(psi, n)
            assert abs(oracle.value - exact.value) <= 1e-15

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), nudge=st.sampled_from([None, 1e-12, 1e-6]))
    def test_dicke_coordinates_are_an_isometry(self, n, seed, nudge):
        # a symmetric state's Dicke coordinates are sqrt(C(n, k)) times its class-k amplitude
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(2, n + 1)) + 1j * rng.normal(size=(2, n + 1))
        if nudge is not None:
            b = a + nudge * b  # near-equal classes, where the distance is smallest
        root = np.sqrt([math.comb(n, k) for k in range(n + 1)])
        zeros = np.array([n - bin(x).count("1") for x in range(1 << n)])
        assert abs(fs_distance(root * a, root * b) - fs_distance(a[zeros], b[zeros])) <= 2e-15

    def test_symmetric_candidates_are_ranked_in_dicke_coordinates(self, monkeypatch):
        sizes = []

        def recorded(a, b):
            sizes.append((len(a), len(b)))
            return fs_distance(a, b)

        monkeypatch.setattr(ent, "fs_distance", recorded)
        n = 8
        psi = grover_path_ray(n, 0.3)
        assert closest_product_overlap(psi, n)[3]
        assert sizes and set(sizes) == {(n + 1, n + 1)}
        # the oracle's E is the one distance taken on 2^n vectors, to the winner's product
        sizes.clear()
        entanglement_grid_oracle(psi, n)
        assert set(sizes[:-1]) == {(n + 1, n + 1)} and sizes[-1] == (1 << n, 1 << n)

    def test_finds_a_maximum_off_the_grid_maxima(self):
        psi = np.array(_RIDGE_CLASSES)[[8 - bin(x).count("1") for x in range(256)]]
        p = closest_product_overlap(psi, 8)[0]
        # the four best local maxima of the 64^2 grid reached 0.626880495932635;
        # the reference is a 40-digit mpmath Newton solve of the stationarity condition
        assert p >= _brute_force_grid_overlap(psi, 8, resolution=1024) - 1e-15
        assert p == pytest.approx(0.62688895592865350175, abs=1e-14)

    def test_reaches_a_maximum_on_the_chart_edge(self):
        # a near-W two-qubit state: its best product lies 2.5e-6 inside |v| = 1, where
        # starts clipped at the edge of either chart must slide along it to get there
        classes = [
            5.05467249082836e-06 - 8.396361103317075e-07j,
            -0.12079415270760359 - 0.6967128337101339j,
            -4.1876272753869137e-07 + 2.01617803177296e-06j,
        ]
        psi = np.array(classes)[[2 - bin(x).count("1") for x in range(4)]]
        p, r_star, _, _ = closest_product_overlap(psi, 2)
        assert p >= _brute_force_grid_overlap(psi, 2, resolution=1024) - 1e-15
        assert p == pytest.approx(0.50000438128847944729, abs=1e-14)
        assert r_star == pytest.approx(0.99999748768665207, abs=1e-9)

    def test_ascent_start_on_a_zero_of_p_stays_there(self):
        # p(v) = v^3: the start v = 0 has no ascent direction, and dividing by p there warned
        columns = ent._derivative_columns(np.array([0, 0, 0, 1], dtype=complex))
        v, value = ent._newton_ascent(columns, np.array([0j, 0.5]), 1 / 63, 3)
        assert v[0] == 0.0 and value[0] == 0.0
        assert value[1] > 0.5**6 / 1.25**3

    def test_path_state_phase_lies_in_one_turn(self):
        for n in range(2, 9):
            for u in np.linspace(0.0, 1.0, 20):
                chi = entanglement_grid_oracle(grover_path_ray(n, u), n).chi_star
                assert 0.0 <= chi < 2.0 * np.pi

    def test_polish_reaches_the_exact_value(self):
        # the second row of entangle-sweep --n 3 --points 5; a refine grid that
        # skipped chi = 0 read E 2.4e-9 too high here
        u = 0.48327488912095812
        res = entanglement_grid_oracle(grover_path_ray(3, u), 3)
        assert res.chi_star == 0.0
        assert abs(res.value - entanglement_exact(3, u).value) <= 1e-12

    def test_agrees_with_exact_on_path_states(self):
        rng = np.random.default_rng(0)
        for n in [2, 3, 5]:
            for u in rng.random(3):
                o = entanglement_grid_oracle(grover_path_ray(n, u), n)
                e = entanglement_exact(n, u).value
                assert abs(o.value - e) <= 1e-15

    def test_refinement_accuracy(self):
        o = entanglement_grid_oracle(grover_path_ray(3, 0.2), 3)
        e = entanglement_exact(3, 0.2).value
        assert o.value == pytest.approx(e, abs=1e-7)

    def test_large_qubit_count_cross_route(self):
        # grid search and root-finding stay consistent well past the fold
        u = GroverPathPoint.from_angle(15, np.pi / 4).u
        o = entanglement_grid_oracle(grover_path_ray(15, u), 15)
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

    def test_product_states_read_exactly_zero(self):
        # E is the distance to the best product vector, not 2*acos(sqrt(p)),
        # which reads 3e-8 when p is one ulp below 1
        assert entanglement_grid_oracle(grover_path_ray(7, 1.0), 7).value == 0.0
        rng = np.random.default_rng(6)
        f = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        psi = f[0]
        for row in f[1:]:
            psi = np.kron(psi, row)
        res = entanglement_grid_oracle(psi, 5)
        assert np.isnan(res.r_star)  # general branch taken
        assert res.value <= 1e-14

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_value_is_the_angle_of_the_overlap(self, symmetric):
        rng = np.random.default_rng(7)
        psi = grover_path_ray(4, 0.3).coords
        if not symmetric:
            psi = psi + 0.1 * rng.normal(size=16)
        p, _, _, sym = closest_product_overlap(psi, 4)
        assert sym == symmetric
        res = entanglement_grid_oracle(psi, 4)
        assert res.value == pytest.approx(2.0 * np.arccos(np.sqrt(p)), abs=1e-12)

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
            calls.append(factors.shape)
            starts = len(factors)
            return np.full(starts, 0.5), np.full(starts, max_sweeps), np.zeros(starts, dtype=bool)

        monkeypatch.setattr(kernels, "product_ascent", never_converges)
        rng = np.random.default_rng(4)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        with pytest.raises(ConvergenceError) as info:
            closest_product_overlap(psi, 3)
        assert calls == [(34, 3, 2)]  # one call: 32 random + 2 deterministic starts
        message = str(info.value)
        assert "n=3" in message and "34" in message and "500" in message
        assert "0.5" in message

    def test_ascent_memory_linear_in_state_size(self):
        # a fresh interpreter, whose peak RSS the call may raise by a bound of
        # 16 complex state vectors; the 34 starts as one batch would need 34
        src = str(Path(grovergeo.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", _ASCENT_MEMORY],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        p, growth = map(float, out.stdout.split())
        assert p == pytest.approx(1.0, abs=1e-12)
        assert growth < 16 * 16 * 2**18

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
            closest_product_overlap(np.array([np.inf, 0.0, 0.0, 1.0]), 2)
        with pytest.raises(DomainError):
            closest_product_overlap(np.array([np.nan, 0.0, 0.0, 1.0]), 2)

    def test_underflowing_state_normalises(self):
        # |z|^2 underflows to 0: the state is rescaled by a power of two, not rejected
        res = entanglement_grid_oracle(np.array([1e-200, 0.0, 0.0, 1e-200]), 2)
        assert res.value == pytest.approx(np.pi / 2, abs=1e-15)


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
        for bad in ([0.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 1.0], [np.inf, 0.0, 0.0, 1.0]):
            with pytest.raises(InvalidRay):
                concurrence(bad)

    @_PROPERTY_SETTINGS
    @given(u=st.floats(0.0, 1e308))
    @example(u=2.0)  # 2u(1 - u) read -0.3077
    @example(u=1e155)  # u * u overflowed: NaN
    @example(u=1e308)
    def test_closed_form_is_the_path_ray_concurrence_at_every_level(self, u):
        c = concurrence_along_path(u)
        assert 0.0 <= c <= 1.0
        assert abs(c - concurrence(grover_path_ray(2, u))) <= 4.5e-16

    def test_underflowing_state_normalises(self):
        assert concurrence([1e-200, 0.0, 0.0, 1e-200]) == pytest.approx(1.0, abs=1e-15)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# 8 parts in [-1, 1], scaled by 2^e: past e = 511 the |z|^2 overflow, below e = -537 they underflow
_PAIR_STATE = st.tuples(
    st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
    st.one_of(st.integers(-8, 8), st.integers(-1070, 1020)),
).map(lambda draw: np.ldexp(draw[0][0::2], draw[1]) + 1j * np.ldexp(draw[0][1::2], draw[1]))


class TestStackedPairMeasures:
    """A (..., 4) stack of states reads, row by row, what each state reads alone, bit for bit."""

    @staticmethod
    def _check_rows(stack):
        c = concurrence(stack)
        rho = reduced_density_2q(stack)
        s = partial_entropy(rho)
        assert c.shape == s.shape == stack.shape[:-1] and rho.shape == (*stack.shape[:-1], 2, 2)
        for i, psi in enumerate(stack):
            # one state reads its literal contraction psi^T (sigma_y x sigma_y) psi
            unit = _unit(psi)
            assert _same_bits(concurrence(psi), abs(unit @ ent._SPIN_FLIP @ unit))
            assert _same_bits(c[i], concurrence(psi))
            assert _same_bits(rho[i], reduced_density_2q(psi))
            assert _same_bits(s[i], partial_entropy(reduced_density_2q(psi)))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.lists(_PAIR_STATE.filter(np.any), min_size=1, max_size=64))
    def test_random_states(self, states):
        stack = np.array(states)
        self._check_rows(stack)
        # the first state, alone in a stack of 1 and among 63 others
        self._check_rows(stack[:1])
        self._check_rows(np.resize(stack, (64, 4)))

    def test_path_rays_of_the_angle_grid(self):
        ts = np.linspace(GroverPathPoint(2, 1.0).angle, np.pi / 2, 401)
        points = [GroverPathPoint.from_angle(2, t) for t in ts]
        stack = np.array([point.ray().coords for point in points])
        # measure-compare's stacked rays are the rays one point at a time
        assert _same_bits(_unit(ent._path_coords(2, [point.u for point in points])), stack)
        self._check_rows(stack)
        self._check_rows(stack[:1])
        self._check_rows(stack[-64:])

    def test_leading_axes(self):
        stack = np.resize(grover_path_ray(2, 0.4).coords, (2, 3, 4))
        assert concurrence(stack).shape == partial_entropy(reduced_density_2q(stack)).shape == (2, 3)
        assert isinstance(concurrence(stack[0, 0]), float)
        assert isinstance(partial_entropy(reduced_density_2q(stack[0, 0])), float)

    @pytest.mark.parametrize("bad", [[np.nan, 0.0, 0.0, 1.0], [0.0, np.inf, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
    @pytest.mark.parametrize("measure", [concurrence, reduced_density_2q])
    def test_each_row_is_checked(self, measure, bad):
        stack = np.array([[1.0, 0.0, 0.0, 1.0], bad, [0.0, 1.0, 1.0, 0.0]], dtype=complex)
        with pytest.raises(InvalidRay):
            measure(stack)

    def test_a_stack_needs_four_components(self):
        with pytest.raises(InvalidRay):
            concurrence(1.0)
        with pytest.raises(DimensionError):
            concurrence(np.ones((3, 2)))
        with pytest.raises(DimensionError):
            partial_entropy(np.ones((3, 2, 3)))
