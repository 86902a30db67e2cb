"""Host-side benchmark of the TrEnv simulator: one workload, one run.

    python3 hostbench/run.py --workload w2_trenv --seed 1 --seconds 36 --trace 0

With ``--trace 0`` it starts ``SETUPS`` pass processes one after another;
each sets up once and forks one child per timed pass (``passrun.py``),
until ``--seconds`` of wall time are spent.  It reports the medians over
the passes of ``inv_per_ref_s`` (throughput per reference second, see
``hostspeed.py``), ``setup_s`` and ``peak_rss_mb``.  With
``--trace 1`` it runs one schedule five ways (off, obs metrics, obs spans,
the benchmark's layer spans, off again; plus, for a workload with PDES
shards, a traced and an off run sharded) and reports the per-layer
metrics.  Every pass's
simulated outputs are digested; for the default seed the digest must equal
the frozen one in ``digests.json``.  The last line of standard output is
the JSON result; the line before it records the host and every pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from hostbench import hostspeed  # noqa: E402

WORKLOADS = ("w2_trenv", "rack_micro", "surge_control")
#: PDES workers of the sharded passes in a workload's traced run.
SCENARIO_SHARDS = {"rack_micro": 2}
DEFAULT_SEED = 1
#: Pass processes of a timed run, each with its own set-up; each runs at
#: least one pass.
SETUPS = 3
#: ``digests.json`` freezes this many passes of the default seed.
MAX_PASSES = 24
#: A pass process that takes longer than this to warm up or to answer
#: with a pass is killed, so that a run ends well within three minutes.
PASS_TIMEOUT_S = 45.0

E2E_UNITS = {"inv_per_ref_s": "1/ref_s", "setup_s": "s",
             "peak_rss_mb": "MiB"}
#: Per-layer metrics made here from several passes, not from one pass's
#: spans (those come from ``layers.layer_metrics``).
DERIVED_LAYER_METRICS = ("parallel.windows", "parallel.efficiency",
                         "obs.metrics_cost_ratio", "obs.spans_cost_ratio",
                         "bench.trace_overhead_ratio")


class PassProcess:
    """A warmed-up ``passrun.py`` process; ``run(index)`` runs one pass.

    Use it as a context manager: leaving it ends the process.  The
    process leads a process group of its own, so that a process that does
    not end by itself is killed together with its forked passes.
    """

    def __init__(self, workload: str, seed: int, mode: str = "off",
                 jobs: int = 0) -> None:
        cmd = [sys.executable, str(HERE / "passrun.py"), "--workload",
               workload, "--seed", str(seed), "--mode", mode]
        if jobs:
            cmd += ["--jobs", str(jobs)]
        self.mode = mode
        self.t_spawn = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)
        self.error = self._line().get("error")

    def __enter__(self) -> "PassProcess":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._kill()
        self.proc.stdout.close()

    def _kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()

    def _line(self) -> dict:
        """The process's next JSON line, or an error."""
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    PASS_TIMEOUT_S)
        if not ready:
            self._kill()
            return {"error": f"no answer within {PASS_TIMEOUT_S}s"}
        line = self.proc.stdout.readline()
        if not line:
            return {"error": f"pass process exited {self.proc.wait()}"}
        try:
            return json.loads(line)
        except json.JSONDecodeError:
            return {"error": f"unreadable line {line[:200]!r}"}

    def run(self, index: int) -> dict:
        """Pass ``index``'s record, with ``setup_s`` filled in."""
        record = {"error": self.error} if self.error else self._ask(index)
        if "error" not in record:
            record["setup_s"] = (record["t_ready"] - self.t_spawn
                                 + record["pass_setup_s"])
        else:
            self.error = record["error"]
        record["mode"] = self.mode
        return record

    def _ask(self, index: int) -> dict:
        try:
            self.proc.stdin.write(f"{index}\n")
            self.proc.stdin.flush()
        except OSError as err:
            return {"error": f"pass process gone: {err}"}
        return self._line()


def run_pass(workload: str, seed: int, index: int, mode: str = "off",
             jobs: int = 0) -> dict:
    """One pass in a process of its own; its record."""
    with PassProcess(workload, seed, mode, jobs) as proc:
        return proc.run(index)


def check_pass(record: dict, frozen: Optional[str],
               reference: Optional[str] = None) -> Optional[str]:
    """Why the pass is wrong, or None when its outputs check out."""
    if "error" in record:
        return record["error"]
    if record["resolved"] != record["arrivals"]:
        return (f"resolved {record['resolved']} of "
                f"{record['arrivals']} arrivals")
    if record["trace_keys_seen"] and not record["trace_keys_disjoint"]:
        return "timed pass was served traces memoised by the warm-up"
    if not record["trace_keys_seen"] and record["jobs"] == 1:
        return "no make_trace call was observed"
    if frozen is not None and record["digest"] != frozen:
        return f"digest {record['digest']} != frozen {frozen}"
    if reference is not None and record["digest"] != reference:
        return f"digest {record['digest']} != this run's {reference}"
    return None


def frozen_digests(workload: str, seed: int) -> List[Optional[str]]:
    """Frozen digests per pass index (None where none is frozen)."""
    if seed != DEFAULT_SEED:
        return [None] * MAX_PASSES
    table = json.loads((HERE / "digests.json").read_text())
    frozen = table[workload]
    return [frozen[i] if i < len(frozen) else None for i in range(MAX_PASSES)]


def timed_run(workload: str, seed: int, seconds: float):
    """Passes in ``SETUPS`` processes, each given an equal share of
    ``seconds``; the median of each metric over the passes."""
    frozen = frozen_digests(workload, seed)
    records: List[dict] = []
    start, index = time.monotonic(), 0
    for setup in range(SETUPS):
        end = start + seconds * (setup + 1) / SETUPS
        # Leave every later pass process room for one pass.
        last = MAX_PASSES - (SETUPS - 1 - setup)
        with PassProcess(workload, seed) as proc:
            durations: List[float] = []
            while index < last:
                t0 = time.monotonic()
                if durations and t0 + statistics.mean(durations) > end:
                    break
                record = proc.run(index)
                records.append(record)
                durations.append(time.monotonic() - t0)
                index += 1
                if proc.error:
                    break
    values = {name: [] for name in E2E_UNITS}
    for record in records:
        record["problem"] = check_pass(record,
                                       frozen[record.get("index", 0)])
        if record["problem"] is None:
            record["inv_per_s"] = record["resolved"] / record["wall_s"]
            values["inv_per_ref_s"].append(hostspeed.per_ref_second(
                record["inv_per_s"], statistics.mean(record["slice_s"])))
            values["setup_s"].append(record["setup_s"])
            values["peak_rss_mb"].append(max(record["rss_self_mb"],
                                             record["rss_children_mb"]))
    metrics = {name: {"value": statistics.median(vals),
                      "unit": E2E_UNITS[name]}
               for name, vals in values.items() if vals}
    return records, metrics


def traced_run(workload: str, seed: int):
    """One schedule run five ways, plus twice sharded where the workload
    has PDES shards; the per-layer metrics of the workload."""
    frozen = frozen_digests(workload, seed)[0]
    plan = ["off", "metrics", "spans", "traced", "off"]
    records = [run_pass(workload, seed, 0, mode) for mode in plan]
    shards = SCENARIO_SHARDS.get(workload, 0)
    if shards:
        records += [run_pass(workload, seed, 0, mode, jobs=shards)
                    for mode in ("traced", "off")]
    expected = records[0].get("digest")
    for record in records:
        record["problem"] = check_pass(record, frozen, expected)
    if any(r["problem"] for r in records):
        return records, {}
    off = statistics.mean(r["wall_s"] for r in records[:5]
                          if r["mode"] == "off")
    walls = {r["mode"]: r["wall_s"] for r in records[1:4]}
    traced = records[3]
    layers = dict(traced["layers"])
    layers["parallel.plan_s"] = 0.0
    layers["parallel.windows"] = 0
    layers["parallel.efficiency"] = 0.0
    if shards:
        sharded_traced, sharded_off = records[5:7]
        layers["parallel.plan_s"] = sharded_traced["layers"][
            "parallel.plan_s"]
        layers["parallel.windows"] = sharded_traced["windows"]
        layers["parallel.efficiency"] = off / (shards
                                               * sharded_off["wall_s"])
    layers["obs.metrics_cost_ratio"] = walls["metrics"] / off
    layers["obs.spans_cost_ratio"] = walls["spans"] / off
    layers["bench.trace_overhead_ratio"] = walls["traced"] / off
    units = layer_units()
    return records, {name: {"value": value, "unit": units[name]}
                     for name, value in sorted(layers.items())}


def layer_units() -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def host_facts() -> dict:
    import numpy

    sys.path.insert(0, str(SRC))
    from repro import optflags

    return {
        "host_cpus": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "source_digest": source_digest(),
        "optflags": {name: bool(getattr(optflags, name))
                     for name in optflags.FLAGS},
    }


def git_commit() -> str:
    """HEAD's commit id read from ``.git`` itself; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """blake2b over the program's sources: identifies the code measured."""
    h = hashlib.blake2b(digest_size=12)
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-side benchmark of the TrEnv simulator.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        records, metrics = traced_run(args.workload, args.seed)
    else:
        records, metrics = timed_run(args.workload, args.seed, args.seconds)
    failed = sum(1 for r in records if r["problem"])
    for record in records:
        record.pop("spans", None)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "host": host_facts(),
                      "passes": records}))
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
