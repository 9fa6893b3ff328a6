import grovergeo


def test_star_import_binds_exactly_the_public_names():
    names = grovergeo.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from grovergeo import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(names)
