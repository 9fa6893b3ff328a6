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
    _MIN_OVERLAP,
    SearchInstance,
    _basis_state,
    _path_angle,
    grover_state,
    optimal_query_count,
    search_metrics,
    success_probability,
)
from .ray_space import Ray, _unit, fs_distance
from .segre import grover_separability_residual, max_quadric_residual

_ORACLE_MAX_QUBITS = 14
_SEPARABILITY_MAX_QUBITS = 1023  # 2**n - 1 must convert to a float


class NumericalFailure(click.ClickException):
    """A numerical routine failed to converge."""

    exit_code = 3


def _csv_text(command, config, columns, data) -> str:
    """One table as CSV: a (name, unit) pair per column and a sequence per column.

    Integer columns print with %d, float columns with 17 significant digits,
    and a column given as None prints blank.
    """
    data = [None if col is None else np.asarray(col) for col in data]
    ints = [col is not None and col.dtype.kind in "iu" for col in data]
    row = ",".join("" if col is None else "%d" if i else "%.17g" for col, i in zip(data, ints))
    # +0.0 folds -0.0 into 0
    values = [(col if i else col + 0.0).tolist() for col, i in zip(data, ints) if col is not None]
    header = [
        f"# grovergeo {__version__}",
        f"# command: {command}",
        "# config: " + " ".join(f"{k}={v}" for k, v in config.items()),
        "# units: " + "; ".join(f"{name} {unit}" for name, unit in columns),
        ",".join(name for name, _ in columns),
    ]
    return "\n".join([*header, *(row % r for r in zip(*values)), ""])


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


def _command(name):
    """Register a command that returns ``(config, columns, data)`` for ``_csv_text``.

    The command gains the ``--out`` option, and package errors exit 2 (usage)
    or 3 (numerical failure).
    """

    def register(fn):
        @functools.wraps(fn)
        def run(out, **options):
            try:
                table = fn(**options)
            except ConvergenceError as exc:
                raise NumericalFailure(str(exc)) from exc
            except GrovergeoError as exc:
                raise click.UsageError(str(exc)) from exc
            text = _csv_text(name, *table)
            if out == "-":
                click.echo(text, nl=False)
            else:
                with open(out, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)

        command = main.command(name)(run)
        out = click.Path(dir_okay=False, allow_dash=True)
        command.params.append(click.Option(["--out"], type=out, default="-", show_default=True))
        return command

    return register


@_command("grover-trace")
@click.option("--n", type=int, required=True, help="Number of qubits (2..20).")
@click.option("--target", type=int, default=0, show_default=True, help="Marked basis index.")
@click.option("--kmax", type=click.IntRange(min=0), default=None, help="Last query count [default: optimal].")
def grover_trace(n, target, kmax):
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
    columns = [("k", "queries"), ("success_probability", "probability"), ("fs_distance_to_target", "radians"),
               ("step_speed", "radians/query"), ("quadric_residual", "dimensionless")]
    return {"n": n, "target": target, "kmax": kmax}, columns, list(zip(*rows))


@_command("entangle-sweep")
@click.option("--n", type=int, required=True, help=f"Number of qubits (1..{_MAX_QUBITS}; oracle sweeps <= {_ORACLE_MAX_QUBITS}).")
@click.option("--points", type=click.IntRange(min=2), default=100, show_default=True, help="Grid size.")
@click.option(
    "--method",
    type=click.Choice(["exact", "approx", "oracle", "all"]),
    default="exact",
    show_default=True,
)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed of the oracle's ascent starts for non-symmetric states; path states never use it.")
def entangle_sweep(n, points, method, seed):
    """Sweep entanglement along the search path at uniform path angles."""
    _check_n(n, 1, _MAX_QUBITS)
    if method in ("oracle", "all") and n > _ORACLE_MAX_QUBITS:
        raise click.UsageError(f"oracle sweeps support n <= {_ORACLE_MAX_QUBITS}, got n={n}")
    ts = _angle_grid(n, points)
    config = {"n": n, "points": points, "method": method, "seed": seed}
    if method in ("oracle", "all"):
        config["resolution"] = ent._ORACLE_RESOLUTION

    us = [ent.GroverPathPoint.from_angle(n, t).u for t in ts]
    # looked up through ``ent`` at call time, so wrappers installed on the module are seen
    routes = {
        "exact": lambda: [ent.entanglement_exact(n, u) for u in us],
        "approx": lambda: [ent.entanglement_approx_curve(n, t) for t in ts],
        "oracle": lambda: [ent.entanglement_grid_oracle(ent.grover_path_ray(n, u), n, seed=seed) for u in us],
    }
    columns = [("t", "radians"), ("u", "dimensionless")]
    data = [ts, us]
    if method == "all":
        for name in routes:
            columns.append((f"E_{name}", "radians"))
            data.append([res.value for res in routes[name]()])
    else:
        columns += [("E", "radians"), ("r_star", "dimensionless"), ("chi_star", "radians"),
                    ("root_count", "count")]
        results = routes[method]()
        data += [[getattr(res, key) for res in results] for key in ("value", "r_star", "chi_star")]
        # only root finding counts roots
        data.append([res.root_count for res in results] if method == "exact" else None)
    return config, columns, data


@_command("measure-compare")
@click.option("--points", type=click.IntRange(min=2), default=401, show_default=True, help="Grid size.")
def measure_compare(points):
    """Compare two-qubit entanglement, concurrence, and residual entropy."""
    ts = _angle_grid(2, points)
    us = [ent._angle_level(1 << 2, t) for t in ts.tolist()]
    psi = _unit(ent._path_coords(2, us))
    e_geo = [ent.entanglement_exact_2q(u).value for u in us]
    c = ent.concurrence(psi)
    s = ent.partial_entropy(ent.reduced_density_2q(psi))
    columns = [("t", "radians"), ("u", "dimensionless"), ("E_geometric", "radians"),
               ("concurrence", "dimensionless"), ("partial_entropy", "bits")]
    return {"points": points}, columns, [ts, us, e_geo, c, s]


@_command("search-time")
@click.option("--qmin", type=float, default=0.01, show_default=True, help="Smallest overlap (> 0).")
@click.option("--qmax", type=float, default=1.0, show_default=True, help="Largest overlap (<= 1).")
@click.option("--points", type=click.IntRange(min=2), default=200, show_default=True, help="Grid size.")
def search_time(qmin, qmax, points):
    """Tabulate search time against target overlap, with both asymptotes."""
    if not _MIN_OVERLAP <= qmin < qmax <= 1.0:
        raise click.UsageError(
            f"need {_MIN_OVERLAP!r} <= qmin < qmax <= 1, got qmin={qmin!r} qmax={qmax!r}"
        )
    q = np.linspace(qmin, qmax, points)
    m = search_metrics(q)
    columns = [("q", "dimensionless"), ("V", "radians/query"), ("s_w", "radians"), ("T_w", "queries"),
               ("approx_small_q", "queries"), ("approx_large_q", "queries")]
    data = [q, m.speed, m.distance, m.queries, np.pi / (4.0 * q), np.sqrt(2.0 * (1.0 - q)) / np.pi]
    return {"qmin": qmin, "qmax": qmax, "points": points}, columns, data


@_command("separability")
@click.option("--n", type=int, required=True, help="Number of qubits (2..1023).")
@click.option("--points", type=click.IntRange(min=2), default=2000, show_default=True, help="Grid size.")
def separability(n, points):
    """Scan the quadric residual of the path state over its mixing angle."""
    _check_n(n, 2, _SEPARABILITY_MAX_QUBITS)
    phi = _angle_grid(n, points)
    columns = [("phi", "radians"), ("residual", "dimensionless")]
    return {"n": n, "points": points}, columns, [phi, grover_separability_residual(1 << n, phi)]


if __name__ == "__main__":
    main()
