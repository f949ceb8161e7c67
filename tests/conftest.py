import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import _reference as R

# the reference experiments of the acceptance gate, each built once per
# session by its builder in _reference.py (strong_sweep, sweep_2d, ...)
for _build in R.FIXTURES:
    globals()[_build.__name__] = pytest.fixture(scope="session")(_build)
