"""Tests of the benchmark itself: names, digest checks, exact counts.

    PYTHONPATH=src python3 -m pytest -q hostbench
"""

from __future__ import annotations

import dataclasses
import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hostbench import hostspeed, layers, passrun, run, scenarios  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
#: A seed no frozen digest or tuning run used.
HELD_OUT_SEED = 4242
SMALL = 0.02


def small_run(name: str, seed: int = HELD_OUT_SEED, jobs: int = 0):
    scenario = scenarios.SCENARIOS[name]
    workload = scenario.inputs(seed, SMALL)
    raw = scenario.run(scenario.build(seed, workload), workload, "off",
                       jobs or 1)
    return scenario, workload, raw


def as_record(outcome: scenarios.Outcome) -> dict:
    return {"digest": outcome.digest, "arrivals": outcome.arrivals,
            "resolved": outcome.resolved, "jobs": 1,
            "trace_keys_seen": True, "trace_keys_disjoint": True}


def test_metric_and_workload_names_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))


def test_reported_metrics_are_the_declared_ones():
    produced = (set(layers.layer_metrics({}, 1, {}))
                | set(run.DERIVED_LAYER_METRICS))
    assert produced == {m["name"] for m in SPEC["per_layer"]}
    assert set(run.E2E_UNITS) == {m["name"] for m in SPEC["end_to_end"]}
    assert (set(run.WORKLOADS) == set(scenarios.SCENARIOS)
            == {w["name"] for w in SPEC["workloads"]})


def test_sampler_times_slices_outside_the_pass_and_in_it():
    with hostspeed.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 6 * hostspeed.INTERVAL_S:
            pass
    assert len(sampler.slices) >= 5
    assert sampler.in_pass_s() == sum(sampler.slices) - (
        sampler.slices[0] + sampler.slices[-1])
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert hostspeed.per_ref_second(2.0, 0.004) == pytest.approx(
        2.0 * 0.004 * hostspeed.SLICES_PER_REF_S)


def _bump_last_result(raw):
    last = raw.recorder.results[-1]
    raw.recorder.results[-1] = dataclasses.replace(last, e2e=last.e2e * 2)
    return raw


def _bump_stat(raw):
    raw.platform_stats["warm_hits"] += 1
    return raw


def _bump_dispatch(raw):
    raw.result.dispatch_counts["node0"] += 1
    return raw


def _drop_fault(raw):
    result, faults = raw
    return result, faults[:-1]


def _bump_completions(raw):
    raw[0].control["completions"] += 1
    return raw


@pytest.mark.parametrize("name, perturb", [
    ("w2_trenv", _bump_last_result),
    ("w2_trenv", _bump_stat),
    ("rack_micro", _bump_dispatch),
    ("surge_control", _drop_fault),
    ("surge_control", _bump_completions),
])
def test_digest_check_fails_when_one_output_is_perturbed(name, perturb):
    scenario, workload, raw = small_run(name)
    good = scenario.reduce(raw, workload)
    assert run.check_pass(as_record(good), frozen=good.digest) is None
    bad = scenario.reduce(perturb(raw), workload)
    assert bad.digest != good.digest
    assert "frozen" in run.check_pass(as_record(bad), frozen=good.digest)


def test_sharded_rack_reproduces_the_serial_digest():
    outcomes = {}
    for jobs in (1, run.SCENARIO_SHARDS["rack_micro"]):
        scenario, workload, raw = small_run("rack_micro", jobs=jobs)
        outcomes[jobs] = scenario.reduce(raw, workload)
    serial, sharded = outcomes.values()
    assert serial.digest == sharded.digest
    assert serial.windows == 0
    assert sharded.windows > 0


def test_pass_seeds_never_share_trace_rngs_with_the_warmup():
    for scenario in scenarios.SCENARIOS.values():
        for seed in range(64):
            seeds = tuple(scenarios.pass_seed(seed, i)
                          for i in range(run.MAX_PASSES))
            assert scenarios.disjoint_trace_seeds(
                scenario, seeds + (scenarios.WARMUP_SEED,))


def test_trace_key_watch_catches_a_warmup_on_the_pass_seed():
    scenario = scenarios.SCENARIOS["w2_trenv"]

    def keys(seed):
        sink: set = set()
        undo = passrun.watch_trace_keys(sink)
        try:
            small_run("w2_trenv", seed)
        finally:
            undo()
        return sink

    timed = keys(HELD_OUT_SEED)
    assert timed
    assert timed & keys(HELD_OUT_SEED)
    assert not timed & keys(scenarios.WARMUP_SEED)
    record = {"digest": "", "arrivals": 1, "resolved": 1, "jobs": 1,
              "trace_keys_seen": True, "trace_keys_disjoint": False}
    assert "warm-up" in run.check_pass(record, frozen=None)
    assert scenario.trace_seeds(HELD_OUT_SEED) == {HELD_OUT_SEED}


def small_passes(name: str, out_dir: Path, indices=(0,), *extra: str
                 ) -> list:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "hostbench" / "passrun.py"),
         "--workload", name, "--seed", str(HELD_OUT_SEED),
         "--scale", str(SMALL), "--out-dir", str(out_dir), *extra],
        input="".join(f"{i}\n" for i in indices),
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    ready, *records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert "ready" in ready, ready
    assert all("error" not in record for record in records), records
    return records


def traced_pass(name: str, out_dir: Path, *extra: str) -> dict:
    return small_passes(name, out_dir, (0,), "--mode", "traced", *extra)[-1]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_forked_passes_match_passes_run_alone(name, tmp_path):
    together = small_passes(name, tmp_path, (0, 1, 2))
    alone = small_passes(name, tmp_path, (2,))
    assert [r["index"] for r in together] == [0, 1, 2]
    assert together[2]["digest"] == alone[0]["digest"]
    assert len({r["digest"] for r in together}) == 3
    assert len({r["t_ready"] for r in together}) == 1
    assert all(run.check_pass(r, frozen=None) is None for r in together)


COUNT_METRICS = [m["name"] for m in SPEC["per_layer"]
                 if m["unit"] == "count" and m["name"] != "parallel.windows"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_layer_counts_repeat_exactly_across_traced_runs(name, tmp_path):
    first, second = (traced_pass(name, tmp_path) for _ in range(2))
    # Fresh processes on a held-out seed: the digest repeats too.
    assert first["digest"] == second["digest"]
    assert first["windows"] == second["windows"]
    assert ({n: row["calls"] for n, row in first["spans"].items()}
            == {n: row["calls"] for n, row in second["spans"].items()})
    assert ({n: first["layers"][n] for n in COUNT_METRICS}
            == {n: second["layers"][n] for n in COUNT_METRICS})
    assert first["layers"]["sim.wakeups_per_inv"] > 0


def test_sharded_traced_pass_merges_every_worker(tmp_path):
    shards = run.SCENARIO_SHARDS["rack_micro"]
    serial = traced_pass("rack_micro", tmp_path)
    sharded = traced_pass("rack_micro", tmp_path, "--jobs", str(shards))
    assert sharded["shard_summaries"] == shards
    assert sharded["digest"] == serial["digest"]
    assert sharded["windows"] > 0
