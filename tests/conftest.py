"""Suite-wide set-up: the heap policy and BLAS thread count the CLI
runs under."""

import pytest

from lethevit.tensor import keep_heap, pin_blas_threads


@pytest.fixture(scope="session", autouse=True)
def _keep_heap():
    """Run every test under the heap policy and the one BLAS thread that
    `lethevit.cli.main` sets, so library-level tests see the same
    allocator behaviour and bytes as the CLI."""
    keep_heap()
    pin_blas_threads()
