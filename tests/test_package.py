"""The package's public names."""

import dfdscan


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from dfdscan import *", namespace)
    missing = [name for name in dfdscan.__all__ if name not in namespace]
    assert missing == []
    assert len(set(dfdscan.__all__)) == len(dfdscan.__all__)
