"""Host-side optimization flags.

Every flag here changes *host* behaviour only — wall-clock time and
allocations — never simulated results.  The seeded fault counts and
virtual-clock timings of an experiment must be bit-identical with the
flags on or off; ``tests/integration/test_golden_determinism.py`` checks
runs with the flags off against the frozen digests of
``tests/integration/test_golden_digests.py``.

Only switches with a real trade-off stay switchable; a host-side
optimisation whose results the frozen digests pin needs no flag.

Flags:

* ``cow_attach`` — template attach / CRIU restore share page-state
  arrays copy-on-write (:mod:`repro.mem.cow`) instead of deep-copying
  them per attach.  The copying path is the baseline the perf harness
  measures attach cost against.
* ``parallel_sim`` — eligible cluster runs shard per node group across
  worker processes, each advancing its own ``Simulator`` inside
  conservative lookahead windows (:mod:`repro.sim.parallel`,
  :mod:`repro.serverless.parallel`).  Ineligible configurations
  (dynamic dispatch state, armed control plane, injected faults) fall
  back to the serial reference path, so results are bit-identical by
  construction either way.

``FLAGS`` is the machine-readable registry: tooling enumerates it
instead of hard-coding names.  ``repro.analysis`` rule SIM005 reads it
to verify every flag's fast/slow path pair is exercised by at least one
test, and the context managers below toggle exactly this set.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import ContextManager, Iterator, Tuple

#: Every optimization flag, in declaration order.  Each name is a module
#: attribute holding a bool; add new flags here and nowhere else.
FLAGS: Tuple[str, ...] = ("cow_attach", "parallel_sim")

cow_attach: bool = True
parallel_sim: bool = True


@contextmanager
def disabled(*names: str) -> Iterator[None]:
    """Turn off just the named flags (the rest keep their values)."""
    for name in names:
        if name not in FLAGS:
            raise ValueError(f"unknown optflag {name!r}; known: {FLAGS}")
    saved = {name: globals()[name] for name in FLAGS}
    for name in names:
        globals()[name] = False
    try:
        yield
    finally:
        globals().update(saved)


def optimizations_disabled() -> ContextManager[None]:
    """Run a block on the copying / serial baseline paths."""
    return disabled(*FLAGS)
