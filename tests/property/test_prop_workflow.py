"""Property tests: workflow DAG construction and execution invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.llm import LLMTrace, ReplayLLMServer
from repro.agents.spec import AGENTS, AgentSpec
from repro.agents.workflow_graph import GraphExecutor, WorkflowGraph
from repro.mem.layout import MB
from repro.sim.cpu import FairShareCPU
from repro.sim.engine import Simulator

spec_strategy = st.sampled_from(AGENTS)


def synthetic_spec(e2e, cpu, calls, workflow):
    return AgentSpec(
        name=f"syn-{workflow}-{calls}", framework="LangChain",
        description="synthetic", e2e_target=e2e,
        mem_bytes=64 * MB, cpu_time=cpu,
        input_tokens=1000 * calls, output_tokens=40 * calls,
        n_llm_calls=calls, workflow=workflow)


synthetic = st.builds(
    synthetic_spec,
    e2e=st.floats(10.0, 100.0),
    cpu=st.floats(0.1, 4.0),
    calls=st.integers(1, 12),
    workflow=st.sampled_from(["static", "mapreduce", "react"]),
)


@settings(max_examples=40, deadline=None)
@given(synthetic)
def test_every_node_executes_once(spec):
    graph = WorkflowGraph.from_spec(spec)
    sim = Simulator()
    executor = GraphExecutor(sim, FairShareCPU(sim, 16), ReplayLLMServer())

    def driver():
        yield from executor.run(graph)

    sim.run_process(driver())
    assert sorted(executor.executed) == sorted(graph.nodes)


@settings(max_examples=40, deadline=None)
@given(synthetic)
def test_topological_order_respected(spec):
    graph = WorkflowGraph.from_spec(spec)
    sim = Simulator()
    executor = GraphExecutor(sim, FairShareCPU(sim, 16), ReplayLLMServer())

    def driver():
        yield from executor.run(graph)

    sim.run_process(driver())
    position = {nid: i for i, nid in enumerate(executor.executed)}
    for node in graph.nodes.values():
        for child in node.children:
            assert position[node.node_id] < position[child]


@settings(max_examples=40, deadline=None)
@given(synthetic)
def test_elapsed_bounded_by_critical_path_and_serial_sum(spec):
    graph = WorkflowGraph.from_spec(spec)
    trace = LLMTrace.from_spec(spec)
    sim = Simulator()
    executor = GraphExecutor(sim, FairShareCPU(sim, 64), ReplayLLMServer())

    def driver():
        elapsed = yield from executor.run(graph)
        return elapsed

    elapsed = sim.run_process(driver())
    lower = trace.critical_path_latency(spec.workflow)
    upper = trace.total_latency + spec.own_cpu + 1e-6
    assert lower - 1e-6 <= elapsed <= upper


@settings(max_examples=40, deadline=None)
@given(synthetic)
def test_trace_totals_always_match(spec):
    trace = LLMTrace.from_spec(spec)
    assert trace.total_input_tokens == spec.input_tokens
    assert trace.total_output_tokens == spec.output_tokens
    assert trace.critical_path_latency(spec.workflow) == pytest.approx(
        spec.llm_wait, rel=1e-6)
    assert all(c.latency >= 0 for c in trace.calls)


@settings(max_examples=20, deadline=None)
@given(spec_strategy)
def test_real_agents_graphs_valid(spec):
    graph = WorkflowGraph.from_spec(spec)
    trace = LLMTrace.from_spec(spec)
    graph.validate(trace)   # must not raise
    assert graph.root in graph.nodes
