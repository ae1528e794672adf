import soficdim


def test_every_exported_name_exists():
    missing = [name for name in soficdim.__all__ if not hasattr(soficdim, name)]
    assert missing == []
    assert len(set(soficdim.__all__)) == len(soficdim.__all__)


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from soficdim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(soficdim.__all__)
