import os
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process behind")


@pytest.fixture(autouse=True)
def no_temporary_file_left(request):
    """Fail a test that leaves a ``.*.tmp`` file (``jsonl.atomic_open``'s or
    an encoder's temporary name) anywhere under its ``tmp_path``."""
    uses = "tmp_path" in request.fixturenames
    tmp_path = request.getfixturevalue("tmp_path") if uses else None
    yield
    left = sorted(map(str, tmp_path.rglob(".*.tmp"))) if uses else []
    if left:
        pytest.fail(f"the test left temporary files behind: {left}")


@pytest.fixture(autouse=True)
def no_thread_left():
    """Fail a test after which a thread other than the main one is alive."""
    yield
    others = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    if others:
        pytest.fail(f"the test left threads alive: {others}")
