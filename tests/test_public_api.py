"""The package's public surface: every exported name exists."""

import trinegamble


def test_every_exported_name_resolves():
    missing = [name for name in trinegamble.__all__ if not hasattr(trinegamble, name)]
    assert missing == []
    assert len(set(trinegamble.__all__)) == len(trinegamble.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from trinegamble import *", namespace)
    assert set(trinegamble.__all__) <= set(namespace)
