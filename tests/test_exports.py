"""The package's public names resolve, so an export left behind by a deletion fails here."""

import fipm


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from fipm import *", namespace)  # raises AttributeError on a stale name
    assert set(fipm.__all__) <= namespace.keys()
