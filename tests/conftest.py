"""Shared golden tuples for the test suite."""

import pytest

from ehlcp.rational import identity
from ehlcp.representatives import make_tuple


@pytest.fixture
def worked_triple():
    """The 2x2 triple (I, skew, I): column sufficient-W without column W."""
    return make_tuple([identity(2), [[0, 1], [-1, 0]], identity(2)])


@pytest.fixture
def zero_padded_identity():
    """(I, 0, 0): column W0 holds, column sufficient-W fails."""
    z = [[0, 0], [0, 0]]
    return make_tuple([identity(2), z, z])
