"""Package surface: every exported name resolves."""

import invnoise


def test_all_names_resolve():
    missing = [name for name in invnoise.__all__ if not hasattr(invnoise, name)]
    assert missing == []
    assert len(set(invnoise.__all__)) == len(invnoise.__all__)


def test_star_import():
    namespace = {}
    exec("from invnoise import *", namespace)
    assert set(invnoise.__all__) <= set(namespace)
