"""The package's public names: ``__all__`` must list each name once, and
every listed name must resolve, so ``from pathideal import *`` works."""
from collections import Counter

import pathideal


def test_all_names_resolve_once():
    assert [name for name, k in Counter(pathideal.__all__).items() if k > 1] == []
    assert [name for name in pathideal.__all__ if not hasattr(pathideal, name)] == []


def test_star_import():
    namespace = {}
    exec("from pathideal import *", namespace)
    assert set(pathideal.__all__) <= set(namespace)
