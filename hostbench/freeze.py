"""Rewrite ``digests.json``: the default seed's digest for every pass index.

The benchmark fails any pass of the default seed whose simulated outputs
digest differently, so rerun this only when a change is meant to alter
simulated results (the determinism contract says none should).

    python3 hostbench/freeze.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from hostbench import run as bench  # noqa: E402


def main() -> int:
    table = {}
    for workload in bench.WORKLOADS:
        digests = []
        with bench.PassProcess(workload, bench.DEFAULT_SEED) as proc:
            for index in range(bench.MAX_PASSES):
                record = proc.run(index)
                problem = bench.check_pass(record, frozen=None)
                if problem:
                    print(f"{workload} pass {index}: {problem}",
                          file=sys.stderr)
                    return 1
                digests.append(record["digest"])
        table[workload] = digests
        print(workload, table[workload], flush=True)
    for workload, shards in bench.SCENARIO_SHARDS.items():
        sharded = bench.run_pass(workload, bench.DEFAULT_SEED, 0,
                                 jobs=shards)
        if sharded.get("digest") != table[workload][0]:
            print(f"{workload} on {shards} PDES workers does not reproduce "
                  f"its serial digest", file=sys.stderr)
            return 1
    path = bench.HERE / "digests.json"
    path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
