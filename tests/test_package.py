import os
import re
import subprocess
import sys
from pathlib import Path

import grovergeo


def test_star_import_binds_exactly_the_public_names():
    names = grovergeo.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from grovergeo import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(names)


def test_state_vectors_use_the_one_norm():
    # ray_space._norm is the one norm; a BLAS norm breaks the unit-norm check
    # at n >= 17.  Only the ascent's row-wise random starts may keep theirs.
    allowed = "np.linalg.norm(f, axis=1, keepdims=True)"
    found = []
    for path in sorted(Path(grovergeo.__file__).parent.glob("*.py")):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if "np.linalg.norm(" in line and allowed not in line:
                found.append(f"{path.name}:{number}: {line.strip()}")
    assert found == []


def test_no_arccos_of_an_overlap():
    # ray_space.fs_distance and the path routes' class sum take every distance
    # in Kahan's atan2 form; an arccos of an overlap reads 0 below about 3e-8
    found = []
    for path in sorted(Path(grovergeo.__file__).parent.glob("*.py")):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if "acos(" in line or "arccos(" in line:
                found.append(f"{path.name}:{number}: {line.strip()}")
    assert found == []


def test_no_numpy_arctan2():
    # every distance and phase takes math.atan2; np.arctan2 differs from it in
    # the last bit on about 1.6 % of inputs, which would move the golden CSVs
    found = []
    for path in sorted(Path(grovergeo.__file__).parent.glob("*.py")):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if "arctan2(" in line:
                found.append(f"{path.name}:{number}: {line.strip()}")
    assert found == []


def test_one_chart_flip():
    # entanglement._chart is the one place that takes a level, radius or
    # coordinate x past 1 to the homogeneous pair (1, 1/x); every path point
    # and coherent product goes through it
    allowed = "(1.0, 1.0 / x)"
    reciprocal = re.compile(r"\b1(\.0)? / (abs\()?[A-Za-z_]\w*(?![\w.(])")
    found = []
    for path in sorted(Path(grovergeo.__file__).parent.glob("*.py")):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if reciprocal.search(line) and allowed not in line:
                found.append(f"{path.name}:{number}: {line.strip()}")
    assert found == []


def test_no_numpy_polynomial():
    # the exact route brackets each stationary radius between closed-form fold
    # edges and needs no root solver: numpy.polynomial's per-call overhead was
    # most of an exact point's time, and companion-matrix eigenvalues
    # (np.linalg.eigvals; eigvalsh of a Hermitian matrix stays) lost real roots
    reference = re.compile(
        r"\b(?:np|numpy)\s*\.\s*polynomial\b|import\s+polynomial\b|\bpoly(?:roots|companion|mul|val)\b"
        r"|\beigvals\b"
    )
    found = []
    for path in sorted(Path(grovergeo.__file__).parent.glob("*.py")):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if reference.search(line):
                found.append(f"{path.name}:{number}: {line.strip()}")
    assert found == []


def test_exact_sweep_loads_no_numpy_polynomial():
    # a fresh interpreter, so modules other tests imported do not count
    src = str(Path(grovergeo.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from click.testing import CliRunner\n"
        "from grovergeo.cli import main\n"
        "res = CliRunner().invoke(main, 'entangle-sweep --n 7 --points 5 --method exact'.split())\n"
        "assert res.exit_code == 0, res.output\n"
        "print([m for m in sys.modules if m.startswith('numpy.polynomial')])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
