"""Shared fixtures.

Structure constants are session scoped so that the chain-complex
matrices memoized on them (``StructureConstants.cache``; the degree-3
differential in particular) are built once and shared between the module
tests and the acceptance suite.
"""
import pytest

# the shared helpers check with assert too; rewrite them as pytest does test
# modules, so that they still check under python -O
pytest.register_assert_rewrite("tests.helpers")

from gradedmat.cohomology import adapted_constants_for
from gradedmat.constants import constants_for


@pytest.fixture(scope="session")
def sc21():
    return constants_for(2, 1)


@pytest.fixture(scope="session")
def sc31():
    return constants_for(3, 1)


@pytest.fixture(scope="session")
def sc20():
    return constants_for(2, 0)


@pytest.fixture(scope="session")
def sc30():
    return constants_for(3, 0)


@pytest.fixture(scope="session")
def sc12():
    return constants_for(1, 2)


@pytest.fixture(scope="session")
def sc12_adapted():
    return adapted_constants_for(1, 2)
