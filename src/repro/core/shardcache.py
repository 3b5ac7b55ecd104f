"""A name-only alias of :class:`~repro.core.cache.ByteCache`.

Nothing in the package instantiates it; the benchmark harness's tracer
still names this class among its timed targets.
"""

from __future__ import annotations

from .cache import ByteCache


# Kept for perfbench/tracer.py; delete in the benchmark PR that drops it.
class ShardedByteCache(ByteCache):
    """Alias of :class:`ByteCache` with no behaviour of its own."""
