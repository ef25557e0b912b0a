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


@pytest.fixture(autouse=True)
def no_fd_left():
    """Fail a test after which this process has open file descriptors other
    than those it had before: run_many must close each pipe end it opens on
    every path, forked or not."""
    if not os.path.isdir("/proc/self/fd"):   # no descriptor table to read
        yield
        return
    before = sorted(map(int, os.listdir("/proc/self/fd")))
    yield
    assert sorted(map(int, os.listdir("/proc/self/fd"))) == before
