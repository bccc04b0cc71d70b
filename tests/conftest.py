"""Suite-wide set-up: the heap policy and BLAS thread count the CLI
runs under, and checks that no test leaves a child process or a thread
behind."""

import os
import threading

import pytest

from lethevit.tensor import keep_heap, pin_blas_threads


@pytest.fixture(scope="session", autouse=True)
def _keep_heap():
    """Run every test under the heap policy and the one BLAS thread that
    `lethevit.cli.main` sets, so library-level tests see the same
    allocator behaviour and bytes as the CLI."""
    keep_heap()
    pin_blas_threads()


@pytest.fixture(autouse=True)
def _no_child_left():
    """Fail the test after which this process still has a child, running
    or a zombie: every process a test or the code it runs starts must be
    reaped by the time it ends."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left behind (waitpid gave pid {pid}, status {status})")


@pytest.fixture(autouse=True)
def _no_thread_left():
    """Fail the test after which a thread is alive that was not alive
    before it: a leftover thread would switch every later `unlearn` to
    the inline path, and the fork path would go untested unnoticed."""
    before = set(threading.enumerate())
    yield
    left = [thread.name for thread in threading.enumerate() if thread not in before]
    if left:
        pytest.fail(f"threads were left behind: {left}")
