"""Pausing the interpreter's automatic cyclic GC around allocation bursts.

Parsing JSON and building a solver's polygons allocate many container
objects that all stay alive, and neither makes reference cycles that only
the cyclic GC could free. With automatic GC on, every few hundred of those
allocations trigger a collection that scans the young objects and finds
nothing; each generation-2 collection rescans the whole heap.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager


@contextmanager
def gc_paused():
    """Run the block with automatic GC off. On exit, normal or by an
    exception, GC is re-enabled only if it was enabled on entry. Caveat: the
    GC switch is interpreter-wide, so a gc.disable() made by another thread
    while the block runs is undone when it re-enables GC."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
