import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """traced_peak(fn): the peak memory, in bytes above the start, that one call fn() holds."""

    def measure(fn):
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()

    return measure
