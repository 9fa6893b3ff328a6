"""End-to-end acceptance checks, one per promised behavior.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with
``pytest -s``) carrying the measured numbers, then asserts.  Check 10b is
expected to fail and is marked as such: the small-overlap reference curve
pi*sqrt(N)/4 differs from the true query count by a relative gap of about
2/(pi*sqrt(N)), which stays above 1% until N = 4096, so the claim as
stated cannot hold at N = 256.
"""
import math

import numpy as np
import pytest

from grovergeo import (
    GroverPathPoint,
    Ray,
    SearchInstance,
    canonical_form,
    concurrence,
    concurrence_along_path,
    concurrence_from_quadric,
    critical_qubit_number,
    entanglement_approx_curve,
    entanglement_exact,
    entanglement_exact_2q,
    entanglement_grid_oracle,
    extremum_roots,
    fs_distance,
    geodesic_point,
    grover_path_ray,
    grover_separability_residual,
    grover_state,
    horizontality_residual,
    max_quadric_residual,
    optimal_query_count,
    partial_entropy,
    quadric_system,
    reduced_density_2q,
    search_metrics,
    segre_embed,
    success_probability,
    triangle_envelope,
    worst_case_time,
)


def _line(tag, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def _angle_grid(n, points):
    t_min = math.atan2(1.0, math.sqrt((1 << n) - 1))
    return np.linspace(t_min, math.pi / 2.0, points)


def test_01_four_state_search_is_exact():
    p1 = success_probability(SearchInstance(2, 0), 1)
    k_opt = optimal_query_count(4)
    ok = abs(p1 - 1.0) <= 1e-12 and k_opt == 1
    _line("01 four-state search exact", ok, f"success(k=1)={p1!r} optimal={k_opt}")


def test_02_query_count_scaling():
    theta = 2.0 * math.asin(2.0**-10)
    k = optimal_query_count(1 << 20)
    k_formula = round(math.pi / (2.0 * theta) - 0.5)
    p = success_probability(SearchInstance(20, 0), k)
    ratios = {}
    for n in (10, 14, 20):
        ratios[n] = optimal_query_count(1 << n) / math.sqrt(1 << n)
    worst = max(abs(r - math.pi / 4.0) / (math.pi / 4.0) for r in ratios.values())
    ok = k == 804 == k_formula and p >= 0.9999 and worst <= 0.02
    _line(
        "02 query-count scaling",
        ok,
        f"k(2^20)={k} (formula {k_formula}) success={p:.6f} "
        f"max |k/sqrt(N) - pi/4| rel dev={worst:.4f}",
    )


def test_03_two_qubit_entanglement_peak():
    value = entanglement_exact_2q(1.0 / 3.0).value
    ts = _angle_grid(2, 400)
    es = [entanglement_exact_2q(GroverPathPoint.from_angle(2, t).u).value for t in ts]
    i = int(np.argmax(es))
    step = ts[1] - ts[0]
    off = abs(ts[i] - math.pi / 3.0)
    ok = abs(value - 0.3395) <= 0.005 and off <= step
    _line(
        "03 two-qubit peak",
        ok,
        f"E(1/3)={value:.13f} argmax angle off by {off:.2e} (grid step {step:.2e})",
    )


def test_04_oracle_agrees_with_root_finding():
    worst = 0.0
    for n in range(2, 9):
        for u in np.linspace(0.0, 1.0, 20):
            e = entanglement_exact(n, u).value
            o = entanglement_grid_oracle(grover_path_ray(n, u), n).value
            worst = max(worst, abs(e - o))
    ok = worst <= 2e-3
    _line("04 oracle equivalence", ok, f"max |exact - oracle| = {worst:.3e} over n=2..8")


def test_05_fold_structure():
    us = np.linspace(1e-4, 1.0, 2000)
    max6 = max(len(extremum_roots(6, u)) for u in us)
    counts7 = [len(extremum_roots(7, u)) for u in us]
    max7 = max(counts7)
    n_c = critical_qubit_number()
    ok = max6 == 1 and max7 == 3 and 6.0 < n_c < 7.0
    _line(
        "05 fold structure",
        ok,
        f"max roots: n=6 -> {max6}, n=7 -> {max7} "
        f"({counts7.count(3)} of 2000 points folded); critical count {n_c:.10f}",
    )


def test_06_envelope_convergence():
    d = {}
    for n in (5, 10, 15):
        ts = _angle_grid(n, 200)
        d[n] = max(
            abs(entanglement_approx_curve(n, t).value - triangle_envelope(t)) for t in ts
        )
    apex = entanglement_approx_curve(15, math.pi / 4.0).value
    ok = d[15] < d[10] < d[5] and apex >= 0.9 * (math.pi / 2.0)
    _line(
        "06 envelope convergence",
        ok,
        f"d(5)={d[5]:.4f} d(10)={d[10]:.4f} d(15)={d[15]:.6f} apex E_15(pi/4)={apex:.6f}",
    )


def test_07_separability_only_at_endpoints():
    ok = True
    worst_interior = math.inf
    for n in range(2, 9):
        size = 1 << n
        phis = _angle_grid(n, 2000)
        res = np.array([grover_separability_residual(size, p) for p in phis])
        ok = ok and res[0] <= 1e-10 and res[-1] <= 1e-10
        interior = res[2:-2]
        worst_interior = min(worst_interior, interior.min())
        ok = ok and bool(np.all(interior > 1e-10))
    _line(
        "07 separability endpoints",
        ok,
        f"endpoint residuals <= 1e-10; smallest interior residual {worst_interior:.3e}",
    )


def test_08_quadric_system_correctness():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(500):
        m, m_prime = (int(x) for x in rng.integers(1, 5, 2))
        a = rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1)
        b = rng.normal(size=m_prime + 1) + 1j * rng.normal(size=m_prime + 1)
        r = segre_embed(Ray(a), Ray(b))
        worst = max(worst, max_quadric_residual(r, m, m_prime))
    counts_ok = all(
        quadric_system(m, mp).count == m * (m + 1) * mp * (mp + 1) // 4
        for m in range(1, 5)
        for mp in range(1, 5)
    )
    ok = worst <= 1e-12 and counts_ok
    _line(
        "08 quadric correctness",
        ok,
        f"max residual over 500 embeds = {worst:.3e}; constraint counts match",
    )


def test_09_pairwise_measure_concordance():
    c_third = concurrence_along_path(1.0 / 3.0)
    s_third = partial_entropy(reduced_density_2q(grover_path_ray(2, 1.0 / 3.0)))
    worst_route = 0.0
    for u in np.linspace(0.0, 1.0, 41):
        psi = grover_path_ray(2, u)
        worst_route = max(worst_route, abs(concurrence_from_quadric(psi) - concurrence(psi)))
    gap = max(
        abs(entanglement_exact_2q(u).value - concurrence_along_path(u))
        for u in np.linspace(0.0, 1.0, 1001)
    )
    ok = (
        abs(c_third - 1.0 / 3.0) <= 2e-16
        and abs(s_third - 0.1873) <= 1e-3
        and worst_route <= 1e-12
        and gap <= 0.01
    )
    _line(
        "09 pairwise concordance",
        ok,
        f"C(1/3)-1/3={c_third - 1.0 / 3.0:.1e} S(1/3)={s_third:.6f} "
        f"route gap={worst_route:.1e} max|E-C|={gap:.6f}",
    )


def test_10a_half_overlap_takes_one_query():
    t_w = search_metrics(0.5).queries
    ok = abs(t_w - 1.0) <= 1e-15
    _line("10a one query at overlap 1/2", ok, f"T_w(1/2)={t_w!r}")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "T_w(1/sqrt(N)) sits a relative 2/(pi*sqrt(N)) above pi*sqrt(N)/4; "
        "that gap is 3.98% at N=256 and first drops below 1% at N=4096"
    ),
)
def test_10b_small_overlap_reference_curve():
    gaps = {}
    for n in (8, 10, 12, 16, 20):
        size = 1 << n
        q = size**-0.5
        ref = math.pi * math.sqrt(size) / 4.0
        gaps[size] = abs(search_metrics(q).queries - ref) / ref
    worst = max(gaps.values())
    ok = worst <= 0.01
    _line(
        "10b small-overlap reference curve",
        ok,
        "rel gaps " + " ".join(f"N={s}:{g:.4f}" for s, g in gaps.items()),
    )


def test_10c_uniform_distribution_is_fastest():
    base = worst_case_time(np.full(16, 0.25))
    rng = np.random.default_rng(0)
    ok = abs(base - 2.6082688394304085) <= 1e-12
    for _ in range(1000):
        m = rng.random(16) + 0.05
        m /= np.linalg.norm(m)
        ok = ok and worst_case_time(m) >= base - 1e-12
    _line(
        "10c uniform is fastest",
        ok,
        f"uniform T={base:.13f}; 1000 random distributions all slower or equal",
    )


def test_11_geometry_suite():
    rng = np.random.default_rng(0)
    gauge = 0.0
    for _ in range(10):
        z = rng.normal(size=8) + 1j * rng.normal(size=8)
        scale = complex(rng.normal(), rng.normal())
        a = canonical_form(Ray(z)).coords
        b = canonical_form(Ray(scale * z)).coords
        gauge = max(gauge, float(np.max(np.abs(a - b))))

    identity = symmetry = triangle = 0.0
    for _ in range(20):
        trio = [
            rng.normal(size=6) + 1j * rng.normal(size=6) for _ in range(3)
        ]
        a, b, c = (Ray(v) for v in trio)
        identity = max(identity, fs_distance(a, a))
        symmetry = max(symmetry, abs(fs_distance(a, b) - fs_distance(b, a)))
        triangle = max(
            triangle, fs_distance(a, c) - fs_distance(a, b) - fs_distance(b, c)
        )

    z1 = rng.normal(size=5) + 1j * rng.normal(size=5)
    z2 = rng.normal(size=5) + 1j * rng.normal(size=5)
    z1 /= np.linalg.norm(z1)
    z2 -= np.vdot(z1, z2) * z1
    z2 /= np.linalg.norm(z2)
    additivity = 0.0
    for frac1, frac2 in [(0.0, 1.0), (0.2, 0.7), (0.5, 0.9)]:
        s1, s2 = frac1 * math.pi, frac2 * math.pi
        g1, g2 = geodesic_point(z1, z2, s1), geodesic_point(z1, z2, s2)
        additivity = max(additivity, abs(fs_distance(g1, g2) - (s2 - s1)))
        additivity = max(additivity, abs(fs_distance(z1, g1) - s1))

    speed_dev = 0.0
    horiz = 0.0
    for n in (4, 6, 10):
        inst = SearchInstance(n, target=(1 << n) - 1)
        theta = inst.rotation_angle
        kmax = min(optimal_query_count(inst.size), 6)
        states = [grover_state(inst, k) for k in range(kmax + 1)]
        for k in range(kmax):
            speed_dev = max(
                speed_dev, abs(fs_distance(states[k], states[k + 1]) - 2.0 * theta)
            )
        horiz = max(horiz, horizontality_residual(states))

    ok = (
        gauge <= 1e-12
        and identity == 0.0
        and symmetry <= 1e-12
        and triangle <= 1e-9
        and additivity <= 1e-9
        and speed_dev <= 1e-9
        and horiz <= 1e-6
    )
    _line(
        "11 geometry suite",
        ok,
        f"gauge={gauge:.1e} identity={identity:.1e} symmetry={symmetry:.1e} "
        f"triangle={triangle:.1e} additivity={additivity:.1e} "
        f"step-speed dev={speed_dev:.1e} horizontality={horiz:.1e}",
    )
