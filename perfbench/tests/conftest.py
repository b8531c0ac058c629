import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
CHECKOUT = BENCH.parent
for path in (BENCH, CHECKOUT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture
def env(tmp_path):
    from workloads import Env

    return Env(CHECKOUT / "src", tmp_path)
