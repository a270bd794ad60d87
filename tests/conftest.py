import gc

import pytest


@pytest.fixture(autouse=True)
def _unfreeze_after_each_test():
    """Give the collector back what an in-process cli.main call froze.

    main freezes the heap as its first step, so without this every object a
    test left behind, cyclic garbage included, would stay until the suite ends.
    """
    yield
    gc.unfreeze()
