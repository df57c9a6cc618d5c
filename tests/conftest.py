"""Guards that every test in the suite runs under."""
import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a thread alive that was not alive before it."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before and t.is_alive()]
    if leaked:
        pytest.fail(f"threads still alive after the test: {leaked}")
