"""Peak traced heap of one call, shared by the memory-bound tests."""

import tracemalloc


def traced_peak(call):
    """Run ``call()`` under tracemalloc; return its result and the peak bytes
    that Python and numpy held allocated while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
