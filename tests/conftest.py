import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test after which a multiprocessing child (an infer worker,
    say) is still alive, and kill the child so later tests start clean."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.kill()
        proc.join()
    assert not left, f"processes left running: {left}"
