"""Suite-wide set-up: the heap policy the CLI runs under."""

import pytest

from lethevit.tensor import keep_heap


@pytest.fixture(scope="session", autouse=True)
def _keep_heap():
    """Run every test under the heap policy `lethevit.cli.main` sets, so
    library-level tests see the same allocator behaviour as the CLI."""
    keep_heap()
