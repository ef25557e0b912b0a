import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test after which this process still has a child, running or
    not yet reaped: every M >= 8 run may fork, and run_many must kill and
    reap each worker on every path."""
    yield
    if not hasattr(os, "WNOHANG"):   # no POSIX children to look for
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:   # no child at all
        return
    pytest.fail(f"child {pid} left unreaped" if pid else "a child still runs")
