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


def test_one_arccos_of_an_overlap():
    # ray_space.fs_distance resolves every distance between two vectors; an
    # arccos of an overlap reads 0 below about 3e-8.  Only the routes that know
    # nothing but the squared overlap P convert it, in ray_space's one helper.
    allowed = ("ray_space.py", "return 2.0 * math.acos(math.sqrt(p))")
    found = []
    for path in sorted(Path(grovergeo.__file__).parent.glob("*.py")):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if ("acos(" in line or "arccos(" in line) and (path.name, line.strip()) != allowed:
                found.append(f"{path.name}:{number}: {line.strip()}")
    assert found == []
