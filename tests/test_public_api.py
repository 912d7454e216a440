"""Every name that ``flagmaps`` exports resolves.

A stale entry in ``__all__`` would otherwise fail only
``from flagmaps import *``, which no other test runs.
"""

import flagmaps


def test_every_exported_name_resolves():
    assert len(set(flagmaps.__all__)) == len(flagmaps.__all__)
    for name in flagmaps.__all__:
        assert hasattr(flagmaps, name), name
    namespace: dict = {}
    exec("from flagmaps import *", namespace)
    assert set(flagmaps.__all__) <= set(namespace)
