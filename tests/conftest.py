"""Suite-wide guard: no test may leave a thread running behind it."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_threads():
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    assert not leaked, "test left threads alive: %s" % ", ".join(leaked)
