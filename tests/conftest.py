import gc

import pytest


@pytest.fixture(autouse=True)
def _unfreeze_after_each_test():
    """Give the collector back what an in-process cli.main call froze.

    The first main call in a process freezes the heap, so without this every
    object alive at that call, cyclic garbage included, would stay until the
    suite ends.
    """
    yield
    gc.unfreeze()
