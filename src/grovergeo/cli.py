"""Command-line front end emitting deterministic CSV sweeps.

Every command writes comma-separated values with ``#``-prefixed header
comments (tool version, full configuration, column units), then one
column-name row, then data rows with 17 significant digits.  Identical
configuration produces byte-identical output.  Exit codes: 0 on success,
2 on usage or domain errors, 3 on numerical failure (oracle
non-convergence).
"""
from __future__ import annotations

import functools
import math

import click
import numpy as np

from . import __version__
from . import entanglement as ent
from .errors import ConvergenceError, GrovergeoError, SizeError
from .grover_engine import (
    _MAX_QUBITS,
    SearchInstance,
    _basis_state,
    _path_angle,
    grover_state,
    optimal_query_count,
    search_metrics,
    success_probability,
)
from .ray_space import Ray, fs_distance
from .segre import grover_separability_residual, max_quadric_residual

_ORACLE_RESOLUTION = 1024
_SEPARABILITY_MAX_QUBITS = 1023  # 2**n - 1 must convert to a float


class NumericalFailure(click.ClickException):
    """A numerical routine failed to converge."""

    exit_code = 3


def _guarded(fn):
    # package errors surface as exit 2 (usage) or 3 (numerical failure)
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConvergenceError as exc:
            raise NumericalFailure(str(exc)) from exc
        except GrovergeoError as exc:
            raise click.UsageError(str(exc)) from exc

    return wrapper


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value) + 0.0, ".17g")  # +0.0 folds -0.0 into 0


def _write_csv(out, command, config, units, columns, rows):
    lines = [
        f"# grovergeo {__version__}",
        f"# command: {command}",
        "# config: " + " ".join(f"{k}={v}" for k, v in config.items()),
        f"# units: {units}",
        ",".join(columns),
    ]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out == "-":
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _check_n(n, lo, hi):
    # keeps n < 0 and 2**n beyond float range away from _angle_grid
    if not lo <= n <= hi:
        raise SizeError(f"n must be in [{lo}, {hi}], got n={n}")


def _angle_grid(n, points):
    return np.linspace(_path_angle(1 << n, 1.0), math.pi / 2.0, points)


@click.group()
@click.version_option(__version__, prog_name="grovergeo")
def main():
    """Numerical toolkit for the geometry of quantum search."""


@main.command("grover-trace")
@click.option("--n", type=int, required=True, help="Number of qubits (2..20).")
@click.option("--target", type=int, default=0, show_default=True, help="Marked basis index.")
@click.option("--kmax", type=click.IntRange(min=0), default=None, help="Last query count [default: optimal].")
@click.option("--out", type=click.Path(dir_okay=False, allow_dash=True), default="-", show_default=True)
@_guarded
def grover_trace(n, target, kmax, out):
    """Trace a search run: success, distance, step speed, quadric residual."""
    _check_n(n, 2, 20)
    inst = SearchInstance(n, target)
    if kmax is None:
        kmax = optimal_query_count(inst.size)
    target_ray = Ray(_basis_state(inst.size, target))
    rows = []
    following = grover_state(inst, 0)
    for k in range(kmax + 1):
        state, following = following, grover_state(inst, k + 1)
        step = fs_distance(state, following)
        residual = max_quadric_residual(state, inst.size // 2 - 1, 1)
        rows.append(
            (k, success_probability(inst, k), fs_distance(state, target_ray), step, residual)
        )
    _write_csv(
        out,
        "grover-trace",
        {"n": n, "target": target, "kmax": kmax},
        "k queries; success_probability probability; fs_distance_to_target radians; "
        "step_speed radians/query; quadric_residual dimensionless",
        ["k", "success_probability", "fs_distance_to_target", "step_speed", "quadric_residual"],
        rows,
    )


@main.command("entangle-sweep")
@click.option("--n", type=int, required=True, help="Number of qubits (1..24; oracle sweeps <= 8).")
@click.option("--points", type=click.IntRange(min=2), default=100, show_default=True, help="Grid size.")
@click.option(
    "--method",
    type=click.Choice(["exact", "approx", "oracle", "all"]),
    default="exact",
    show_default=True,
)
@click.option("--seed", type=int, default=0, show_default=True, help="Oracle RNG seed.")
@click.option("--out", type=click.Path(dir_okay=False, allow_dash=True), default="-", show_default=True)
@_guarded
def entangle_sweep(n, points, method, seed, out):
    """Sweep entanglement along the search path at uniform path angles."""
    _check_n(n, 1, _MAX_QUBITS)
    if method in ("oracle", "all") and n > 8:
        raise click.UsageError(f"oracle sweeps support n <= 8, got n={n}")
    ts = _angle_grid(n, points)
    config = {"n": n, "points": points, "method": method, "seed": seed}
    if method in ("oracle", "all"):
        config["resolution"] = _ORACLE_RESOLUTION

    # looked up through ``ent`` at call time, so wrappers installed on the module are seen
    routes = {
        "exact": lambda t, u: ent.entanglement_exact(n, u),
        "approx": lambda t, u: ent.entanglement_approx_curve(n, t),
        "oracle": lambda t, u: ent.entanglement_grid_oracle(
            ent.grover_path_ray(n, u), n, resolution=_ORACLE_RESOLUTION, seed=seed
        ),
    }
    if method == "all":
        names = list(routes)
        fields = lambda res: (res.value,)
        columns = ["t", "u"] + [f"E_{name}" for name in names]
        units = "t radians; u dimensionless; " + "; ".join(f"E_{name} radians" for name in names)
    else:
        names = [method]
        fields = lambda res: (res.value, res.r_star, res.chi_star, res.root_count)
        columns = ["t", "u", "E", "r_star", "chi_star", "root_count"]
        units = (
            "t radians; u dimensionless; E radians; r_star dimensionless; "
            "chi_star radians; root_count count"
        )
    rows = []
    for t in ts:
        u = ent.GroverPathPoint.from_angle(n, t).u
        rows.append((t, u, *(v for name in names for v in fields(routes[name](t, u)))))
    _write_csv(out, "entangle-sweep", config, units, columns, rows)


@main.command("measure-compare")
@click.option("--points", type=click.IntRange(min=2), default=401, show_default=True, help="Grid size.")
@click.option("--out", type=click.Path(dir_okay=False, allow_dash=True), default="-", show_default=True)
@_guarded
def measure_compare(points, out):
    """Compare two-qubit entanglement, concurrence, and residual entropy."""
    rows = []
    for t in _angle_grid(2, points):
        point = ent.GroverPathPoint.from_angle(2, t)
        psi = point.ray()
        e_geo = ent.entanglement_exact_2q(point.u).value
        c = ent.concurrence(psi)
        s = ent.partial_entropy(ent.reduced_density_2q(psi))
        rows.append((t, point.u, e_geo, c, s))
    _write_csv(
        out,
        "measure-compare",
        {"points": points},
        "t radians; u dimensionless; E_geometric radians; concurrence dimensionless; "
        "partial_entropy bits",
        ["t", "u", "E_geometric", "concurrence", "partial_entropy"],
        rows,
    )


@main.command("search-time")
@click.option("--qmin", type=float, default=0.01, show_default=True, help="Smallest overlap (> 0).")
@click.option("--qmax", type=float, default=1.0, show_default=True, help="Largest overlap (<= 1).")
@click.option("--points", type=click.IntRange(min=2), default=200, show_default=True, help="Grid size.")
@click.option("--out", type=click.Path(dir_okay=False, allow_dash=True), default="-", show_default=True)
@_guarded
def search_time(qmin, qmax, points, out):
    """Tabulate search time against target overlap, with both asymptotes."""
    if not 0.0 < qmin < qmax <= 1.0:
        raise click.UsageError(
            f"need 0 < qmin < qmax <= 1, got qmin={qmin!r} qmax={qmax!r}"
        )
    rows = []
    for q in np.linspace(qmin, qmax, points):
        m = search_metrics(q)
        rows.append(
            (
                q,
                m.speed,
                m.distance,
                m.queries,
                math.pi / (4.0 * q),
                math.sqrt(2.0 * (1.0 - q)) / math.pi,
            )
        )
    _write_csv(
        out,
        "search-time",
        {"qmin": qmin, "qmax": qmax, "points": points},
        "q dimensionless; V radians/query; s_w radians; T_w queries; "
        "approx_small_q queries; approx_large_q queries",
        ["q", "V", "s_w", "T_w", "approx_small_q", "approx_large_q"],
        rows,
    )


@main.command("separability")
@click.option("--n", type=int, required=True, help="Number of qubits (2..1023).")
@click.option("--points", type=click.IntRange(min=2), default=2000, show_default=True, help="Grid size.")
@click.option("--out", type=click.Path(dir_okay=False, allow_dash=True), default="-", show_default=True)
@_guarded
def separability(n, points, out):
    """Scan the quadric residual of the path state over its mixing angle."""
    _check_n(n, 2, _SEPARABILITY_MAX_QUBITS)
    size = 1 << n
    rows = []
    for phi in _angle_grid(n, points):
        rows.append((phi, grover_separability_residual(size, phi)))
    _write_csv(
        out,
        "separability",
        {"n": n, "points": points},
        "phi radians; residual dimensionless",
        ["phi", "residual"],
        rows,
    )


if __name__ == "__main__":
    main()
