import pytest

from multisym import posets, trees


@pytest.fixture
def refuse_enumeration(monkeypatch):
    """Make every family enumeration fail, so a missing size guard shows as
    an error instead of an attempt to build S_9 or M_10."""
    def fail(*args):
        raise AssertionError("enumerated past the size guard")
    for module, name in ((posets, "enumerate_family"), (trees, "enumerate_family"),
                         (trees, "beta_fibers"), (posets, "beta_fibers"),
                         (posets, "all_trees"), (posets, "all_bileveled")):
        monkeypatch.setattr(module, name, fail)
