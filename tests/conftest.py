import itertools
import sys

import pytest

from multisym import algebra, posets, trees


@pytest.fixture
def refuse_enumeration(monkeypatch):
    """Make every family enumeration fail, so a missing size guard shows as
    an error instead of an attempt to build S_9 or M_10."""
    def fail(*args):
        raise AssertionError("enumerated past the size guard")
    for module, name in ((posets, "enumerate_family"), (trees, "enumerate_family"),
                         (trees, "beta_fibers"), (trees, "_key_fiber"),
                         (posets, "_key_fiber"), (algebra, "_key_fiber"),
                         (posets, "all_bileveled")):
        monkeypatch.setattr(module, name, fail)


@pytest.fixture
def refuse_tables(monkeypatch):
    """Make every key table fail (the tree tables and every walk over the
    permutations), so an enumeration past its size guard shows as an error
    instead of an attempt to build it."""
    def fail(*args):
        raise AssertionError("built a table past the size guard")
    for module, name in ((trees, "_trees"), (trees, "_upsets"), (trees, "_bileveled"),
                         (itertools, "permutations")):
        monkeypatch.setattr(module, name, fail)


@pytest.fixture
def rebind(monkeypatch):
    """``rebind(replacements, caches)`` binds each replacement, given by
    name, in place of that name of ``trees`` in every ``multisym`` module
    that binds it, and empties ``caches`` then and again after the test, so
    that no table built before or under the patch is served."""
    cleared = []

    def patch(replacements, caches=()):
        modules = [m for key, m in sys.modules.items()
                   if key == "multisym" or key.startswith("multisym.")]
        for name, replacement in replacements.items():
            original = getattr(trees, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, replacement)
        for cache in caches:
            cache.cache_clear()
        cleared.extend(caches)

    yield patch
    for cache in cleared:
        cache.cache_clear()
