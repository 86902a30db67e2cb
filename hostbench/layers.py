"""Host-time spans around the public entry points of each simulator layer.

The benchmark's own code wraps each entry point (a method or module
function of the program) and records one span per call: name, start, end
and the span that was open when it started.  Generator-valued entry points
are timed per resume, because the engine drives sub-generators itself: a
span covers exactly the host time the generator body ran, never the time it
sat suspended.  Spans stay in memory until :meth:`SpanRecorder.summary`
folds them at the end of the pass.

A layer's self time is its spans' time minus the time covered by their
wrapped child spans, so the layers partition the host time of the outermost
spans without double counting.  Call counts are exact and repeat bit for
bit across runs of the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import json
import types
from array import array
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

#: (module, class or None for a module function, attribute, span name).
#: Several entry points may feed one span name.
SPANNED: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.sim.engine", "Simulator", "run", "sim.run"),
    ("repro.workloads.functions", "FunctionProfile", "make_trace",
     "workloads.make_trace"),
    ("repro.workloads.functions", "FunctionProfile", "base_trace",
     "workloads.base_trace"),
    ("repro.serverless.base", "ServerlessPlatform", "invoke",
     "serverless.invoke"),
    ("repro.serverless.base", "ServerlessPlatform", "execute",
     "serverless.execute"),
    ("repro.serverless.base", "ServerlessPlatform", "register_function",
     "serverless.register"),
    ("repro.serverless.metrics", "LatencyRecorder", "record",
     "serverless.record"),
    ("repro.serverless.cluster", "RoundRobin", "pick", "serverless.dispatch"),
    ("repro.serverless.cluster", "LeastLoaded", "pick", "serverless.dispatch"),
    ("repro.serverless.cluster", "WarmAffinity", "pick",
     "serverless.dispatch"),
    ("repro.serverless.parallel", "ScriptedPolicy", "pick",
     "serverless.dispatch"),
    ("repro.core.repurpose", "Repurposer", "repurpose", "core.repurpose"),
    ("repro.core.repurpose", "Repurposer", "cleanse", "core.cleanse"),
    ("repro.core.mm_template", "MMTemplateRegistry", "mmt_attach",
     "core.mmt_attach"),
    # Bound by name in the platform module, so wrapped where it is called.
    ("repro.core.platform", None, "build_template_for_function",
     "core.template_build"),
    ("repro.criu.restore", "CRIUEngine", "restore_full", "criu.restore_full"),
    ("repro.criu.restore", "CRIUEngine", "restore_process_state",
     "criu.restore_state"),
    ("repro.container.runtime", "ContainerRuntime", "create_sandbox_cold",
     "container.sandbox_create"),
    ("repro.container.runtime", "ContainerRuntime", "destroy_sandbox",
     "container.sandbox_destroy"),
    ("repro.mem.address_space", "AddressSpace", "access", "mem.access"),
    ("repro.mem.address_space", "VMA", "clone_metadata", "mem.clone"),
    ("repro.mem.pools", "DedupStore", "store_image", "mem.store_image"),
    ("repro.control.admission", "AdmissionController", "request",
     "control.admission"),
    ("repro.control.admission", "AdmissionController", "release",
     "control.admission"),
    ("repro.control.admission", "AdmissionController", "cancel",
     "control.admission"),
    *(("repro.control.plane", "ControlPlane", method, "control.plane")
      for method in ("filter_candidates", "claim_attempt", "observe_attempt",
                     "settle_attempt", "observe_result", "record_abort",
                     "invocation_deadline", "attempt_deadline")),
    ("repro.serverless.parallel", None, "plan_shards", "parallel.plan"),
)

#: Entry points that are only counted (no span): engine wake-ups/spawns.
COUNTED: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.engine", "Delay", "__init__", "sim.delay"),
    ("repro.sim.engine", "Event", "trigger", "sim.trigger"),
    ("repro.sim.engine", "Simulator", "spawn", "sim.spawn"),
    ("repro.sim.engine", "Simulator", "spawn_at", "sim.spawn"),
    ("repro.sim.engine", "Simulator", "spawn_at_many", "sim.spawn"),
)


class SpanRecorder:
    """In-memory span store: parallel arrays, one entry per span."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.calls: Dict[str, int] = {}
        self._stack: List[int] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.setdefault(name, 0)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def reset(self) -> None:
        """Forget every span and count (the stack must be empty)."""
        if self._stack:
            raise RuntimeError("reset with open spans")
        for arr in (self.name_id, self.start, self.end, self.parent):
            del arr[:]
        for name in self.calls:
            self.calls[name] = 0

    def dump(self, path) -> None:
        """Write every span: a JSON header line, then the four arrays."""
        with open(path, "wb") as out:
            header = {"names": self.names, "spans": len(self.start),
                      "arrays": ["name_id:H", "start:d", "end:d",
                                 "parent:i"]}
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.start, self.end, self.parent):
                arr.tofile(out)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, spans, total and self host seconds."""
        total = [0.0] * len(self.names)
        child = [0.0] * len(self.start)
        start, end, parent, name_id = (self.start, self.end, self.parent,
                                       self.name_id)
        for i in range(len(start) - 1, -1, -1):
            dur = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child[p] += dur
            total[name_id[i]] += dur
        own = [0.0] * len(self.names)
        spans = [0] * len(self.names)
        for i in range(len(start)):
            nid = name_id[i]
            own[nid] += (end[i] - start[i]) - child[i]
            spans[nid] += 1
        out = {name: {"calls": calls, "spans": 0, "total_s": 0.0,
                      "self_s": 0.0}
               for name, calls in self.calls.items()}
        for nid, name in enumerate(self.names):
            out[name].update(spans=spans[nid], total_s=total[nid],
                             self_s=own[nid])
        return out


class TimedGenerator:
    """Generator proxy: every resume of the wrapped generator is a span."""

    __slots__ = ("_recorder", "_nid", "_gen")

    def __init__(self, recorder: SpanRecorder, nid: int, gen) -> None:
        self._recorder = recorder
        self._nid = nid
        self._gen = gen

    def send(self, value):
        idx = self._recorder.open(self._nid)
        try:
            return self._gen.send(value)
        finally:
            self._recorder.close(idx)

    def throw(self, *exc):
        idx = self._recorder.open(self._nid)
        try:
            return self._gen.throw(*exc)
        finally:
            self._recorder.close(idx)

    def close(self) -> None:
        self._gen.close()

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)


class Instrumentation:
    """Installs the wrappers; :meth:`uninstall` puts the originals back."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[Any, str, Any]] = []

    def install(self) -> "Instrumentation":
        for module, owner, attr, name in SPANNED:
            self._patch(module, owner, attr, self._spanned(name))
        for module, owner, attr, name in COUNTED:
            self._patch(module, owner, attr, self._counted(name, attr))
        return self

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def _patch(self, module: str, owner: Optional[str], attr: str,
               make) -> None:
        target: Any = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
            original = target.__dict__[attr]
        else:
            original = getattr(target, attr)
        self._undo.append((target, attr, original))
        setattr(target, attr, functools.wraps(original)(make(original)))

    def _spanned(self, name: str):
        recorder = self.recorder
        nid = recorder.intern(name)
        calls = recorder.calls

        def make(original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                idx = recorder.open(nid)
                try:
                    out = original(*args, **kwargs)
                finally:
                    recorder.close(idx)
                if type(out) is types.GeneratorType:
                    return TimedGenerator(recorder, nid, out)
                return out
            return wrapper
        return make

    def _counted(self, name: str, attr: str):
        calls = self.recorder.calls
        calls.setdefault(name, 0)

        def make(original):
            if attr == "spawn_at_many":
                def wrapper(*args, **kwargs):
                    out = original(*args, **kwargs)
                    calls[name] += len(out)
                    return out
            else:
                def wrapper(*args, **kwargs):
                    calls[name] += 1
                    return original(*args, **kwargs)
            return wrapper
        return make


def layer_metrics(summary: Dict[str, Dict[str, float]], arrivals: int,
                  setup: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``summary`` folds the timed pass's spans, ``setup`` those of the
    set-up that preceded it (schedule generation and registration).
    Per-invocation figures divide by the pass's arrivals; per-call
    figures by the entry point's calls (0 when never called).
    """
    def get(table, name, key):
        return table.get(name, {}).get(key, 0)

    def per_inv(value: float) -> float:
        return value / arrivals

    def per_call(seconds: float, calls: float) -> float:
        return seconds * 1e6 / calls if calls else 0.0

    both = {name: {key: get(summary, name, key) + get(setup, name, key)
                   for key in ("calls", "self_s")}
            for name in set(summary) | set(setup)}
    restores = get(summary, "criu.restore_state", "calls")
    restore_s = (get(summary, "criu.restore_state", "self_s")
                 + get(summary, "criu.restore_full", "self_s"))
    sandbox_calls = (get(summary, "container.sandbox_create", "calls")
                     + get(summary, "container.sandbox_destroy", "calls"))
    sandbox_s = (get(summary, "container.sandbox_create", "self_s")
                 + get(summary, "container.sandbox_destroy", "self_s"))
    trace_s = (get(summary, "workloads.make_trace", "self_s")
               + get(summary, "workloads.base_trace", "self_s"))
    return {
        "sim.self_us_per_inv": per_inv(get(summary, "sim.run", "self_s")
                                       * 1e6),
        "sim.wakeups_per_inv": per_inv(get(summary, "sim.delay", "calls")
                                       + get(summary, "sim.trigger",
                                             "calls")),
        "sim.spawns_per_inv": per_inv(get(summary, "sim.spawn", "calls")),
        "workloads.schedule_s": get(setup, "workloads.schedule", "self_s"),
        "workloads.trace_us_per_inv": per_inv(trace_s * 1e6),
        "workloads.trace_calls_per_inv": per_inv(
            get(summary, "workloads.make_trace", "calls")),
        "serverless.invoke_self_us_per_inv": per_inv(
            get(summary, "serverless.invoke", "self_s") * 1e6),
        "serverless.execute_self_us_per_inv": per_inv(
            get(summary, "serverless.execute", "self_s") * 1e6),
        "serverless.dispatch_us_per_inv": per_inv(
            get(summary, "serverless.dispatch", "self_s") * 1e6),
        "serverless.record_us_per_inv": per_inv(
            get(summary, "serverless.record", "self_s") * 1e6),
        "serverless.register_s": get(both, "serverless.register", "self_s"),
        "serverless.registrations": get(both, "serverless.register",
                                        "calls"),
        "core.repurpose_us_per_call": per_call(
            get(summary, "core.repurpose", "self_s"),
            get(summary, "core.repurpose", "calls")),
        "core.repurposes_per_inv": per_inv(get(summary, "core.repurpose",
                                               "calls")),
        "core.cleanse_us_per_call": per_call(
            get(summary, "core.cleanse", "self_s"),
            get(summary, "core.cleanse", "calls")),
        "core.mmt_attach_us_per_call": per_call(
            get(summary, "core.mmt_attach", "self_s"),
            get(summary, "core.mmt_attach", "calls")),
        "core.attaches_per_inv": per_inv(get(summary, "core.mmt_attach",
                                             "calls")),
        "core.template_build_s": get(both, "core.template_build", "self_s"),
        "criu.restore_us_per_call": per_call(restore_s, restores),
        "criu.restores_per_inv": per_inv(restores),
        "container.sandbox_us_per_call": per_call(sandbox_s, sandbox_calls),
        "container.sandbox_ops_per_inv": per_inv(sandbox_calls),
        "mem.access_us_per_inv": per_inv(get(summary, "mem.access", "self_s")
                                         * 1e6),
        "mem.access_calls_per_inv": per_inv(get(summary, "mem.access",
                                                "calls")),
        "mem.clone_us_per_call": per_call(get(summary, "mem.clone", "self_s"),
                                          get(summary, "mem.clone", "calls")),
        "mem.clones_per_inv": per_inv(get(summary, "mem.clone", "calls")),
        "mem.store_image_s": get(both, "mem.store_image", "self_s"),
        "control.admission_us_per_arrival": per_inv(
            get(summary, "control.admission", "self_s") * 1e6),
        "control.plane_us_per_arrival": per_inv(
            get(summary, "control.plane", "self_s") * 1e6),
        "parallel.plan_s": get(summary, "parallel.plan", "self_s"),
    }


def merge_summaries(parts: List[Dict[str, Dict[str, float]]]
                    ) -> Dict[str, Dict[str, float]]:
    """Sum span summaries of several processes (PDES workers)."""
    out: Dict[str, Dict[str, float]] = {}
    for part in parts:
        for name, row in part.items():
            mine = out.setdefault(name, {key: 0 for key in row})
            for key, value in row.items():
                mine[key] += value
    return out
