import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import grovergeo
from grovergeo import SearchInstance, __version__, grover_separability_residual
from grovergeo.cli import main
from grovergeo.errors import ConvergenceError


@pytest.fixture()
def runner():
    return CliRunner()


def parse_csv(text):
    """Split CLI output into (header_lines, column_names, rows of strings)."""
    lines = text.splitlines()
    headers = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    columns = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    return headers, columns, rows


class TestCsvEnvelope:
    def test_header_block(self, runner):
        res = runner.invoke(main, ["grover-trace", "--n", "2", "--kmax", "1"])
        assert res.exit_code == 0
        headers, columns, rows = parse_csv(res.stdout)
        assert headers[0] == f"# grovergeo {__version__}"
        assert headers[1] == "# command: grover-trace"
        assert headers[2] == "# config: n=2 target=0 kmax=1"
        assert headers[3].startswith("# units: ")
        assert columns == [
            "k",
            "success_probability",
            "fs_distance_to_target",
            "step_speed",
            "quadric_residual",
        ]
        assert len(rows) == 2
        assert all(len(r) == len(columns) for r in rows)

    def test_no_negative_zero_tokens(self, runner):
        res = runner.invoke(main, ["measure-compare"])
        assert res.exit_code == 0
        _, _, rows = parse_csv(res.stdout)
        assert not any(tok == "-0" for row in rows for tok in row)

    def test_linefeed_only(self, runner, tmp_path):
        out = tmp_path / "trace.csv"
        res = runner.invoke(main, ["grover-trace", "--n", "3", "--out", str(out)])
        assert res.exit_code == 0
        data = out.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_version_flag(self, runner):
        res = runner.invoke(main, ["--version"])
        assert res.exit_code == 0
        assert "grovergeo" in res.stdout
        assert __version__ in res.stdout


# sha256 of the exact stdout; between them these cover the int columns, the
# blank root_count, the ``all`` header and the -0.0 fold
_GOLDEN_STDOUT = {
    "grover-trace --n 2 --target 3 --kmax 2": "0deb9e0688a422cacba264d3a2410a1e6a65cd53edfcc45d3380098a228a7ec0",
    "entangle-sweep --n 3 --points 5 --method exact": "d068f908b7f5a1f936cb840ded9e27fa1066b3ed93bfcb37845074a0087a6b50",
    "entangle-sweep --n 3 --points 5 --method approx": "a7bf36052d8a7cd6070ef44bc1b4f0a0b204d2a3d1533ad9b1e47875efa12d62",
    "entangle-sweep --n 3 --points 5 --method oracle": "94f7712d1082b187551db6ca8fb21c00b75c9757b67050bb064caff0e6d99776",
    "entangle-sweep --n 3 --points 5 --method all": "a0a43652e4028f821400dc7cfac298ecd18423c82a1db4d0a7310804c0e117a1",
    "measure-compare --points 9": "da91f7f164c5ff7fb0924e8f06e5186202e69fbbaff9ef462c83f7df1960fd3a",
    "search-time --points 7": "bc80ba7295a8db38e9c16c66075696fafc901da58006e72e3e4ea29282972357",
    "separability --n 4 --points 7": "b2a8dca5c66ab027cd64e7c3d824140421e7b369d6e3ffaf6bf56484e2026a49",
    # the exact route across n, frozen before it solved a sweep as one stack
    "entangle-sweep --n 1 --points 257 --method exact": "b062cdc4c6e4b307f269f13736602f4cd74c7bfacde1133bd9c4ab4c4ef89500",
    "entangle-sweep --n 2 --points 257 --method exact": "d9158ce29e9a96243768bada549daae76d1712ed3d654ab409aa484deaebec18",
    "entangle-sweep --n 7 --points 257 --method exact": "79cdc0b242b2643ea073650dcb06f5c855ace3498c167c50026e79bb913cb18e",
    "entangle-sweep --n 12 --points 257 --method exact": "664843c2c456b34f70bace3b37c9fc2734dabfdaf1a8736deb512144be1fb6c7",
    "entangle-sweep --n 24 --points 257 --method exact": "f66b316e66bd053b5d68a1f32552ae10feeaf30cbc6b16e5c47bdedb5e9de0fb",
    "entangle-sweep --n 8 --points 5 --method all": "0347d5e209afce6d97965aea7c14fedce2c1571f8b27b330536bafb91bc5f5dc",
}


@pytest.mark.parametrize("command", sorted(_GOLDEN_STDOUT))
def test_golden_stdout_bytes(runner, command):
    res = runner.invoke(main, command.split())
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == _GOLDEN_STDOUT[command], res.stdout


class TestDeterminism:
    def test_file_runs_are_byte_identical(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["entangle-sweep", "--n", "3", "--points", "40", "--method", "exact"]
        assert runner.invoke(main, args + ["--out", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_matches_file(self, runner, tmp_path):
        out = tmp_path / "st.csv"
        args = ["search-time", "--points", "17"]
        res = runner.invoke(main, args)
        assert res.exit_code == 0
        assert runner.invoke(main, args + ["--out", str(out)]).exit_code == 0
        assert res.stdout == out.read_text(encoding="utf-8")

    def test_oracle_run_is_reproducible(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["entangle-sweep", "--n", "2", "--points", "4", "--method", "oracle"]
        assert runner.invoke(main, args + ["--out", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()


class TestGroverTrace:
    def test_frozen_two_qubit_trace(self, runner):
        res = runner.invoke(main, ["grover-trace", "--n", "2", "--target", "3", "--kmax", "2"])
        assert res.exit_code == 0
        _, columns, rows = parse_csv(res.stdout)
        vals = [[float(x) for x in row] for row in rows]
        assert [v[0] for v in vals] == [0, 1, 2]
        np.testing.assert_allclose([v[1] for v in vals], [0.25, 1.0, 0.25], atol=1e-15)
        # one query reaches the target exactly at N = 4
        assert vals[1][2] == pytest.approx(0.0, abs=1e-7)
        assert vals[0][2] == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)
        # constant step speed = twice the rotation angle
        theta = 2.0 * math.asin(0.5)
        for v in vals:
            assert v[3] == pytest.approx(2.0 * theta, abs=1e-9)
        # residual: separable at k=0 and k=1, maximally entangled after overshoot
        assert vals[0][4] == pytest.approx(0.0, abs=1e-15)
        assert vals[1][4] == pytest.approx(0.0, abs=1e-12)
        assert vals[2][4] == pytest.approx(0.5, abs=1e-12)

    def test_default_kmax_is_optimal(self, runner):
        res = runner.invoke(main, ["grover-trace", "--n", "4"])
        assert res.exit_code == 0
        headers, _, rows = parse_csv(res.stdout)
        assert "kmax=3" in headers[2]  # optimal count for N = 16
        assert len(rows) == 4
        best = max(float(r[1]) for r in rows)
        assert best == pytest.approx(0.9613189697265625, abs=1e-12)

    def test_memory_linear_in_state_size(self, runner):
        # a bound of 16 complex state vectors; one (N/2)^2 block of minors,
        # or an N x N identity for the target ray, would break it.  A first
        # small run keeps one-time import allocations out of the peak.
        runner.invoke(main, ["grover-trace", "--n", "2", "--kmax", "0"])
        for n in (12, 16):
            tracemalloc.start()
            try:
                res = runner.invoke(main, ["grover-trace", "--n", str(n), "--kmax", "0"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert res.exit_code == 0
            assert peak < 16 * 16 * 2**n, (n, peak)

    @pytest.mark.parametrize("n,kmax", [(16, 3), (20, 1)])
    def test_largest_states_match_the_closed_form(self, runner, n, kmax):
        res = runner.invoke(main, ["grover-trace", "--n", str(n), "--kmax", str(kmax)])
        assert res.exit_code == 0
        _, columns, rows = parse_csv(res.stdout)
        assert [int(r[0]) for r in rows] == list(range(kmax + 1))
        residual = [float(r[columns.index("quadric_residual")]) for r in rows]
        theta = SearchInstance(n, 0).rotation_angle
        want = grover_separability_residual(2**n, (np.arange(kmax + 1) + 0.5) * theta)
        np.testing.assert_allclose(residual, want, rtol=0, atol=1e-12)

    def test_qubit_cap(self, runner):
        res = runner.invoke(main, ["grover-trace", "--n", "21"])
        assert res.exit_code == 2

    def test_bad_target(self, runner):
        res = runner.invoke(main, ["grover-trace", "--n", "2", "--target", "4"])
        assert res.exit_code == 2

    def test_negative_kmax(self, runner):
        res = runner.invoke(main, ["grover-trace", "--n", "2", "--kmax", "-1"])
        assert res.exit_code == 2


class TestEntangleSweep:
    def test_exact_sweep_values(self, runner):
        res = runner.invoke(main, ["entangle-sweep", "--n", "2", "--points", "5"])
        assert res.exit_code == 0
        _, columns, rows = parse_csv(res.stdout)
        assert columns == ["t", "u", "E", "r_star", "chi_star", "root_count"]
        ts = [float(r[0]) for r in rows]
        np.testing.assert_allclose(ts, np.linspace(math.pi / 6.0, math.pi / 2.0, 5), atol=1e-12)
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)
        assert float(rows[-1][1]) == pytest.approx(0.0, abs=1e-12)
        # ends of the path are product states
        assert float(rows[0][2]) == pytest.approx(0.0, abs=1e-7)
        assert float(rows[-1][2]) == pytest.approx(0.0, abs=1e-7)
        assert float(rows[2][2]) > 0.3
        assert all(r[5] == "1" for r in rows)

    def test_approx_sweep_has_blank_root_count(self, runner):
        res = runner.invoke(
            main, ["entangle-sweep", "--n", "4", "--points", "7", "--method", "approx"]
        )
        assert res.exit_code == 0
        _, columns, rows = parse_csv(res.stdout)
        assert all(r[5] == "" for r in rows)
        # mirror symmetry of the curve construction: row i vs row points-1-i
        es = [float(r[2]) for r in rows]
        # the grid is symmetric about the halfway angle only approximately,
        # so just require the curve to rise then fall
        assert es[3] == max(es)

    def test_all_method_routes_agree(self, runner):
        res = runner.invoke(
            main, ["entangle-sweep", "--n", "2", "--points", "5", "--method", "all"]
        )
        assert res.exit_code == 0
        headers, columns, rows = parse_csv(res.stdout)
        assert columns == ["t", "u", "E_exact", "E_approx", "E_oracle"]
        assert headers[2] == "# config: n=2 points=5 method=all seed=0 resolution=64"
        for r in rows:
            e_exact, e_oracle = float(r[2]), float(r[4])
            assert abs(e_oracle - e_exact) <= 1e-15

    def test_oracle_qubit_cap(self, runner):
        res = runner.invoke(
            main, ["entangle-sweep", "--n", "15", "--points", "3", "--method", "oracle"]
        )
        assert res.exit_code == 2

    def test_oracle_sweep_at_the_cap_matches_the_exact_route(self, runner):
        res = runner.invoke(
            main, ["entangle-sweep", "--n", "14", "--points", "5", "--method", "all"]
        )
        assert res.exit_code == 0
        _, _, rows = parse_csv(res.stdout)
        assert len(rows) == 5
        for r in rows:
            assert abs(float(r[4]) - float(r[2])) <= 1e-10

    def test_exact_sweep_allows_larger_n(self, runner):
        res = runner.invoke(main, ["entangle-sweep", "--n", "10", "--points", "3"])
        assert res.exit_code == 0

    @pytest.mark.parametrize("method, points", [("exact", 30), ("all", 5)])
    def test_exact_route_is_one_call_per_level(self, runner, monkeypatch, method, points):
        # a wrapper installed on the module sees every level of a sweep
        args = ["entangle-sweep", "--n", "9", "--points", str(points), "--method", method]
        plain = runner.invoke(main, args)
        calls = {"entanglement_exact": 0, "extremum_roots": 0}

        def counting(name, original):
            def counted(*a, **kw):
                calls[name] += 1
                return original(*a, **kw)

            return counted

        for name in calls:
            monkeypatch.setattr(grovergeo.entanglement, name, counting(name, getattr(grovergeo.entanglement, name)))
        res = runner.invoke(main, args)
        assert plain.exit_code == res.exit_code == 0
        assert calls == {"entanglement_exact": points, "extremum_roots": points}
        assert res.stdout_bytes == plain.stdout_bytes

    def test_bad_method(self, runner):
        res = runner.invoke(main, ["entangle-sweep", "--n", "2", "--method", "magic"])
        assert res.exit_code == 2

    def test_min_points(self, runner):
        res = runner.invoke(main, ["entangle-sweep", "--n", "2", "--points", "1"])
        assert res.exit_code == 2

    def test_oracle_failure_exit_code(self, runner, monkeypatch):
        def boom(*args, **kwargs):
            raise ConvergenceError("synthetic non-convergence")

        monkeypatch.setattr("grovergeo.entanglement.entanglement_grid_oracle", boom)
        res = runner.invoke(
            main, ["entangle-sweep", "--n", "2", "--points", "2", "--method", "oracle"]
        )
        assert res.exit_code == 3


@pytest.mark.parametrize("command", ["separability", "entangle-sweep"])
@pytest.mark.parametrize("n", [-3, 0, 1024, 1100])
def test_out_of_range_qubit_count_is_usage_error(runner, command, n):
    res = runner.invoke(main, [command, "--n", str(n), "--points", "3"])
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert f"got n={n}" in res.output


_N_RANGES = {"grover-trace": (2, 20), "entangle-sweep": (1, 24), "separability": (2, 1023)}


@st.composite
def _sized_invocations(draw):
    """A command with --n, and whether its arguments are valid.

    n is drawn from [-5, 2000], but only outside the command's range or at
    most 5, so that no large state is ever built.
    """
    command = draw(st.sampled_from(sorted(_N_RANGES)))
    lo, hi = _N_RANGES[command]
    n = draw(st.integers(-5, 2000).filter(lambda n: not lo <= n <= hi or n <= 5))
    args, valid = [command, "--n", str(n)], lo <= n <= hi
    if command == "grover-trace":
        kmax = draw(st.integers(-2, 3))
        args += ["--kmax", str(kmax)]
        valid = valid and kmax >= 0
    else:
        points = draw(st.integers(-2, 5))
        args += ["--points", str(points)]
        valid = valid and points >= 2
    return args, valid


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_sized_invocations())
def test_sized_commands_exit_0_or_2(invocation):
    args, valid = invocation
    res = CliRunner().invoke(main, args)
    assert res.exit_code == (0 if valid else 2), res.output
    assert "Traceback" not in res.output


class TestMeasureCompare:
    def test_frozen_middle_row(self, runner):
        res = runner.invoke(main, ["measure-compare"])
        assert res.exit_code == 0
        _, _, rows = parse_csv(res.stdout)
        assert len(rows) == 401
        t, u, e, c, s = (float(x) for x in rows[200])
        assert t == pytest.approx(math.pi / 3.0, abs=1e-15)
        assert u == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert e == pytest.approx(0.33983690945412365, abs=1e-13)
        assert c == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert s == pytest.approx(0.18729859856877215, abs=1e-13)

    def test_measures_coincide_at_ends_only(self, runner):
        res = runner.invoke(main, ["measure-compare", "--points", "41"])
        assert res.exit_code == 0
        _, _, rows = parse_csv(res.stdout)
        gaps = [abs(float(r[2]) - float(r[3])) for r in rows]
        assert gaps[0] < 1e-12 and gaps[-1] < 1e-12
        assert 0.001 < max(gaps) < 0.01


class TestSearchTime:
    def test_frozen_endpoint_rows(self, runner):
        res = runner.invoke(
            main, ["search-time", "--qmin", "0.5", "--qmax", "1.0", "--points", "2"]
        )
        assert res.exit_code == 0
        _, columns, rows = parse_csv(res.stdout)
        assert columns == ["q", "V", "s_w", "T_w", "approx_small_q", "approx_large_q"]
        q0 = [float(x) for x in rows[0]]
        q1 = [float(x) for x in rows[1]]
        assert q0[1] == pytest.approx(2.0 * math.pi / 3.0, abs=1e-14)  # V = 4 arcsin 1/2
        assert q0[2] == pytest.approx(2.0 * math.pi / 3.0, abs=1e-14)  # s_w = pi - 2 arcsin 1/2
        assert q0[3] == pytest.approx(1.0, abs=1e-14)
        assert q0[5] == pytest.approx(1.0 / math.pi, abs=1e-15)
        assert q1[1] == pytest.approx(2.0 * math.pi, abs=1e-14)
        assert q1[2] == 0.0
        assert q1[3] == 0.0
        assert q1[4] == pytest.approx(math.pi / 4.0, abs=1e-15)

    def test_time_is_decreasing_in_overlap(self, runner):
        res = runner.invoke(main, ["search-time", "--points", "50"])
        assert res.exit_code == 0
        _, _, rows = parse_csv(res.stdout)
        tw = [float(r[3]) for r in rows]
        assert all(a > b for a, b in zip(tw, tw[1:]))

    def test_small_overlap_asymptote(self, runner):
        res = runner.invoke(
            main, ["search-time", "--qmin", "0.001", "--qmax", "0.002", "--points", "2"]
        )
        assert res.exit_code == 0
        _, _, rows = parse_csv(res.stdout)
        for r in rows:
            t_w, approx = float(r[3]), float(r[4])
            assert t_w == pytest.approx(approx, rel=2e-3)

    def test_bad_range(self, runner):
        assert runner.invoke(main, ["search-time", "--qmin", "0"]).exit_code == 2
        assert (
            runner.invoke(main, ["search-time", "--qmin", "0.9", "--qmax", "0.5"]).exit_code
            == 2
        )
        assert runner.invoke(main, ["search-time", "--qmax", "1.5"]).exit_code == 2

    def test_subnormal_overlap_is_usage_error(self, runner):
        # pi / (4 q) overflows below the smallest normal float
        res = runner.invoke(
            main, ["search-time", "--qmin", "1e-320", "--qmax", "1e-310", "--points", "3"]
        )
        assert res.exit_code == 2
        assert "Traceback" not in res.output


class TestSeparability:
    def test_residual_vanishes_only_at_ends(self, runner):
        res = runner.invoke(main, ["separability", "--n", "3", "--points", "101"])
        assert res.exit_code == 0
        _, columns, rows = parse_csv(res.stdout)
        assert columns == ["phi", "residual"]
        vals = [float(r[1]) for r in rows]
        assert vals[0] <= 1e-10 and vals[-1] <= 1e-10
        assert all(v > 1e-10 for v in vals[2:-2])

    def test_single_qubit_rejected(self, runner):
        res = runner.invoke(main, ["separability", "--n", "1"])
        assert res.exit_code == 2

    def test_angle_grid_limits(self, runner):
        res = runner.invoke(main, ["separability", "--n", "2", "--points", "3"])
        assert res.exit_code == 0
        _, _, rows = parse_csv(res.stdout)
        assert float(rows[0][0]) == pytest.approx(math.pi / 6.0, abs=1e-12)
        assert float(rows[-1][0]) == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_import_loads_no_scipy():
    # a fresh interpreter, so modules other tests imported do not count
    src = str(Path(grovergeo.__file__).resolve().parents[1])
    code = "import sys, grovergeo.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
