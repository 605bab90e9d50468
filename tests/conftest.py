import pytest
from hypothesis import settings

from kschubert.rootsys import build_root_system

# Tier-1 draws the same examples on every run: each @given test derives its
# examples from the test itself, not from a fresh random seed.  Per-test
# ``max_examples`` settings still apply on top of this profile.
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def a1():
    return build_root_system("A1")


@pytest.fixture(scope="session")
def a2():
    return build_root_system("A2")


@pytest.fixture(scope="session")
def a3():
    return build_root_system("A3")
