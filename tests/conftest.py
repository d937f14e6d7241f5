import tracemalloc

import pytest
from hypothesis import Phase, settings

# a failing property reports the first example it finds: shrinking one that hits a
# numpy overflow can take minutes, and each test's own @settings inherits this profile
settings.register_profile("no-shrink", phases=[p for p in Phase if p not in (Phase.shrink, Phase.explain)])
settings.load_profile("no-shrink")


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
