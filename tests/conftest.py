import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import _reference as R

# the reference experiments of the acceptance gate, each built once per
# session by its builder in _reference.py (strong_sweep, sweep_2d, ...)
for _build in R.FIXTURES:
    globals()[_build.__name__] = pytest.fixture(scope="session")(_build)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped: a
    raw os.fork too, which multiprocessing.active_children() cannot see."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process: waitpid gave pid {pid} "
                f"(0: still running), status {status}")
