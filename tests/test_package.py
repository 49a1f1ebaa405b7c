"""The public API of the package."""

import stsplit


def test_every_public_name_resolves():
    assert len(set(stsplit.__all__)) == len(stsplit.__all__)
    for name in stsplit.__all__:
        assert hasattr(stsplit, name), name
    namespace = {}
    exec("from stsplit import *", namespace)
    assert set(stsplit.__all__) <= set(namespace)
