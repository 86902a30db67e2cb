#!/usr/bin/env python3
"""Agent platform scenario: cost analysis + E2B vs TrEnv-S.

1. Prints the §2.3 cost analysis (how serverless infrastructure compares
   with LLM API spend per agent).
2. Runs the Blackjack agent on E2B and TrEnv to compare startup latency.
3. Runs a pack of browser-using blog-summary agents under CPU
   overcommitment with and without browser sharing.

Run:  python examples/agent_platform.py
"""

from repro.agents.cost import cost_table
from repro.agents.platform import E2BPlatform, TrEnvVMPlatform
from repro.agents.spec import agent_by_name
from repro.node import Node


def startup_comparison():
    print("Blackjack startup latency:")
    for label, cls, kwargs in (("E2B", E2BPlatform, {}),
                               ("TrEnv", TrEnvVMPlatform, {})):
        node = Node(cores=8, seed=11)
        platform = cls(node, **kwargs)
        spec = agent_by_name("blackjack")

        def driver():
            r = yield from platform.run_agent(spec)
            return r

        r = node.sim.run_process(driver())
        print(f"  {label:6} startup {r.startup * 1e3:7.1f} ms, "
              f"e2e {r.e2e:5.2f} s (recorded run: {spec.e2e_target} s)")


def browser_sharing_comparison(instances=20, cores=2):
    print(f"\n{instances} blog-summary agents on {cores} cores "
          f"({instances // cores}x overcommit):")
    for sharing in (False, True):
        node = Node(cores=cores, seed=11)
        platform = TrEnvVMPlatform(node, browser_sharing=sharing,
                                   prewarmed_jailers=instances)
        spec = agent_by_name("blog-summary")
        done = []

        def one():
            r = yield from platform.run_agent(spec)
            done.append(r.startup + r.e2e)

        for _ in range(instances):
            node.sim.spawn(one())
        node.sim.run()
        label = "TrEnv-S (shared browser)" if sharing else "TrEnv (dedicated)"
        print(f"  {label:26} worst e2e {max(done):7.1f} s, "
              f"mean {sum(done) / len(done):7.1f} s, "
              f"peak mem {node.memory.peak_mb:7.0f} MB")


def main():
    print("Cost per run (Figure 3), C_serverless / C_LLM:")
    for agent, row in cost_table().items():
        print(f"  {agent:15} llm ${row['llm_usd'] * 1e3:7.3f}m  "
              f"serverless ${row['serverless_usd'] * 1e3:7.3f}m  "
              f"ratio {row['relative']:.0%}")
    print()
    startup_comparison()
    browser_sharing_comparison()


if __name__ == "__main__":
    main()
