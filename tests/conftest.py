import os

import pytest
from hypothesis import settings

# One profile for every property test: derandomized, so each run draws the
# same examples and a check gives one verdict; no deadline, since forked and
# chunked runs vary in time; no example database, so no run depends on
# another's failures.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


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
