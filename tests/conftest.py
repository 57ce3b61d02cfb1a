import threading
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def no_thread_left_alive():
    """Fail a test that leaves a thread it started still running."""
    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate() if thread not in before]
    if left:
        pytest.fail(f"threads left alive: {left}")


@pytest.fixture(scope="session")
def bands_dir() -> Path:
    return REPO_ROOT / "data" / "bands"


@pytest.fixture(scope="session")
def dy162_path(bands_dir) -> Path:
    return bands_dir / "dy162.band"
