"""Shared fixtures; the 10^4-range exact tables are expensive enough to
build once per session."""

import pytest

from commtuple import PrecisionContext, ntuple_sequence


@pytest.fixture(scope="session")
def ctx50():
    return PrecisionContext(50)


@pytest.fixture(scope="session")
def p_10k():
    # partition numbers p(0..10001); the extra index lets scans cover
    # windows ending at 10^4
    return ntuple_sequence(2, 10001)


@pytest.fixture(scope="session")
def n3_10k():
    return ntuple_sequence(3, 10001)
