"""Host-side memoisation for workload synthesis and trace parsing.

Workload generation is deterministic (seeded RNG, pure inputs), so a
(parameters -> events) cache only saves host time — simulated results
cannot change; the base access-trace memo in
:mod:`repro.workloads.functions` routes through here too.  Caches are
bounded LRU so sweep runners revisiting a few configurations hit while
long parameter scans cannot grow without limit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

T = TypeVar("T")

#: Entries kept per cache (a sweep rarely touches more configurations).
MAX_ENTRIES = 64


def memoized(cache: "OrderedDict[Hashable, T]", key: Hashable,
             build: Callable[[], T]) -> T:
    """``build()`` once per ``key``; LRU-bounded.

    Callers must treat the returned value as immutable (or copy before
    mutating) — it is shared with future calls.
    """
    hit = cache.get(key)
    if hit is None:
        hit = build()
        cache[key] = hit
        if len(cache) > MAX_ENTRIES:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return hit
