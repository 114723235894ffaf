"""The one owner of memo state in the tests. It imports numpy-free modules
only, so that the numpy-blocked runs load it too."""

import pytest

from blochinv import linalg, states


@pytest.fixture(autouse=True)
def cold_memos():
    """Empty the three memos before every test, so that no test sees an
    entry another test left, in any file order."""
    linalg._eig_body.cache_clear()
    linalg._svd_body.cache_clear()
    states._density_body.cache_clear()
