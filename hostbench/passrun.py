"""Benchmark passes of one workload, forked from one warmed-up process.

Set-up runs once: imports and a warm-up pass on another seed.  Then each
pass runs in a child forked from the warmed-up process: it generates its
schedule, builds and registers, and runs the timed pass once.  Every pass
thus starts from the same warm state; none inherits another pass's
memoised traces or its peak resident set, and none pays the imports again.

    printf '0\n1\n' | python3 hostbench/passrun.py --workload rack_micro \
        --seed 1 --mode off

Once warmed up, the process prints ``{"ready": ...}``; then it runs one
pass for each pass index it reads from standard input, one per line, and
prints the pass's record as one JSON line.  It ends at the end of its
input.  Modes: ``off`` (the timed pass, no observation), ``traced``
(the benchmark's layer spans on), ``metrics``/``spans`` (the program's own
observability at that level).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

MODES = ("off", "traced", "metrics", "spans")


def watch_trace_keys(sink: set):
    """Record the (seed, path) of every trace RNG ``make_trace`` draws from.

    The trace caches are keyed on exactly this prefix, so a pass whose
    prefixes are disjoint from the warm-up's cannot be served a warm-up
    entry.  Returns the function that removes the hook.
    """
    from repro.workloads.functions import FunctionProfile

    original = FunctionProfile.__dict__["make_trace"]

    def make_trace(self, rng, *args, **kwargs):
        sink.add((rng.seed, rng.path))
        return original(self, rng, *args, **kwargs)

    FunctionProfile.make_trace = make_trace
    return lambda: setattr(FunctionProfile, "make_trace", original)


def hook_shard_workers(recorder, out_dir: Path, tag: str):
    """Have each PDES worker save its own span summary before returning.

    Workers are forked with the wrappers already installed; their spans
    stay in the worker unless written out.  Returns the undo function.
    """
    from repro.serverless import parallel

    original = parallel._shard_worker

    def shard_worker(*args):
        recorder.reset()
        outcome = original(*args)
        path = out_dir / f"{tag}-shard{outcome.shard}"
        recorder.dump(path.with_suffix(".spans"))
        path.with_suffix(".json").write_text(json.dumps(recorder.summary()))
        return outcome

    # Pool pickles the worker function by reference, under this name.
    shard_worker.__module__ = original.__module__
    shard_worker.__qualname__ = original.__qualname__
    parallel._shard_worker = shard_worker
    return lambda: setattr(parallel, "_shard_worker", original)


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Prepared:
    """The warmed-up process: what every forked pass starts from."""

    def __init__(self, args) -> None:
        from repro import optflags
        from repro.obs import hooks as obs_hooks

        self.flags = {name: bool(getattr(optflags, name))
                      for name in optflags.FLAGS}
        if not all(self.flags.values()):
            raise SystemExit(f"refusing to run with non-default optflags: "
                             f"{self.flags}")
        if obs_hooks.active is not None:
            raise SystemExit("refusing to run with an observer installed")

        from hostbench import layers, scenarios

        self.args = args
        self.scenario = scenarios.SCENARIOS[args.workload]
        self.jobs = args.jobs
        # A traced pass overwrites the last one's dumps of its sharding.
        self.tag = (args.workload if self.jobs == 1
                    else f"{args.workload}-jobs{self.jobs}")
        self.recorder = None
        if args.mode == "traced":
            self.recorder = layers.SpanRecorder()
            layers.Instrumentation(self.recorder).install()
        # Warm-up: imports, first-call costs and lazy set-up, on another
        # seed so that the timed passes still generate their own traces.
        self.warm_keys: set = set()
        unwatch = watch_trace_keys(self.warm_keys)
        warm_seed = scenarios.WARMUP_SEED
        warm = self.scenario.inputs(warm_seed,
                                    scenarios.WARMUP_SCALE * args.scale)
        self.scenario.run(self.scenario.build(warm_seed, warm), warm, "off",
                          self.jobs)
        unwatch()
        gc.collect()
        self.t_ready = time.monotonic()


def timed_pass(prep: Prepared, index: int) -> dict:
    """One pass; runs in a forked child of the warmed-up process."""
    from hostbench import hostspeed, layers, scenarios

    t_fork = time.monotonic()
    args, scenario, jobs, recorder = (prep.args, prep.scenario, prep.jobs,
                                      prep.recorder)
    seed = scenarios.pass_seed(args.seed, index)
    if not scenarios.disjoint_trace_seeds(scenario,
                                          (seed, scenarios.WARMUP_SEED)):
        raise RuntimeError(f"warm-up seed {scenarios.WARMUP_SEED} shares "
                           f"trace RNGs with pass seed {seed}")
    if recorder is not None:
        if jobs > 1:
            hook_shard_workers(recorder, args.out_dir, prep.tag)
        recorder.reset()
        schedule = recorder.open(recorder.intern("workloads.schedule"))
    workload = scenario.inputs(seed, args.scale)
    if recorder is not None:
        recorder.close(schedule)
    built = scenario.build(seed, workload)
    setup_spans = recorder.summary() if recorder is not None else {}
    if recorder is not None:
        recorder.reset()
    gc.collect()
    timed_keys: set = set()
    unwatch = watch_trace_keys(timed_keys)
    t_pass = time.monotonic()
    with hostspeed.Sampler() as sampler:
        t0 = time.perf_counter()
        raw = scenario.run(built, workload, args.mode if args.mode in
                           ("metrics", "spans") else "off", jobs)
        t1 = time.perf_counter()
    wall = t1 - t0 - sampler.in_pass_s()
    unwatch()

    outcome = scenario.reduce(raw, workload)
    record = {
        "workload": args.workload, "seed": args.seed, "index": index,
        "pass_seed": seed, "mode": args.mode, "jobs": jobs,
        "digest": outcome.digest, "arrivals": outcome.arrivals,
        "resolved": outcome.resolved, "windows": outcome.windows,
        # Host time of the program alone: the slices are taken out.
        "wall_s": wall, "slice_s": sampler.slices, "t_ready": prep.t_ready,
        "pass_setup_s": t_pass - t_fork,
        "rss_self_mb": rss_mb(resource.RUSAGE_SELF),
        "rss_children_mb": rss_mb(resource.RUSAGE_CHILDREN),
        # PDES workers draw traces in their own processes, unseen here.
        "trace_keys_seen": bool(timed_keys),
        "trace_keys_disjoint": not timed_keys & prep.warm_keys,
        "optflags": prep.flags,
    }
    if recorder is not None:
        recorder.dump(args.out_dir / f"{prep.tag}.spans")
        summary = recorder.summary()
        shard_files = sorted(args.out_dir.glob(f"{prep.tag}-shard*.json"))
        parts = [summary] + [json.loads(p.read_text()) for p in shard_files]
        for path in shard_files:
            path.unlink()
        summary = layers.merge_summaries(parts)
        record["spans"] = summary
        record["layers"] = layers.layer_metrics(summary, outcome.arrivals,
                                                setup_spans)
        record["shard_summaries"] = len(shard_files)
    return record


def forked(prep: Prepared, index: int) -> dict:
    """Run ``timed_pass`` in a child process; its record, or an error."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        try:
            text = json.dumps(timed_pass(prep, index))
        except BaseException:  # noqa: BLE001 - reported as the pass's error
            text = json.dumps({"error": traceback.format_exc()})
        with os.fdopen(write_end, "w") as out:
            out.write(text)
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return {"error": f"pass process exited {code} without a record"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, default="off")
    parser.add_argument("--jobs", type=int, default=1,
                        help="PDES workers of a rack workload")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="share of the full schedule (tests use less)")
    parser.add_argument("--out-dir", type=Path,
                        default=ROOT / ".hostbench_out")
    args = parser.parse_args(argv)
    args.out_dir.mkdir(exist_ok=True)
    try:
        prep = Prepared(args)
    except Exception:  # noqa: BLE001 - reported to the parent, which fails the run
        print(json.dumps({"error": traceback.format_exc()}), flush=True)
        return 1
    print(json.dumps({"ready": prep.t_ready}), flush=True)
    for line in sys.stdin:
        print(json.dumps(forked(prep, int(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
