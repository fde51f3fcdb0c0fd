#!/usr/bin/env python3
"""PLB vs RSS under a heavy hitter (the Fig. 8 story).

Three data cores at 10% background load; one flow ramps to 130% of a
single core's capacity.  RSS pins the flow to one core, which melts;
PLB sprays it across all three and nothing drops.

Run:  python examples/plb_vs_rss.py
"""

from repro.packet.flows import flow_for_tenant
from repro.scenarios import PodSpec, ScenarioSpec, build
from repro.sim import MS
from repro.workloads import CbrSource, FlowPopulation, uniform_population

PER_CORE_PPS = 100_000
CORES = 3


def run_mode(mode, hitter_fraction):
    duration = 200 * MS
    handle = build(ScenarioSpec(
        name="plb-vs-rss",
        pods=(PodSpec(data_cores=CORES, mode=mode, per_core_pps=PER_CORE_PPS),),
        duration_ns=duration,
        seed=5,
    ))
    background = uniform_population(500, tenants=50)
    CbrSource(
        handle.sim, handle.rngs.stream("bg"), handle.pod.ingress, background,
        rate_pps=int(0.1 * PER_CORE_PPS * CORES),
    )
    hitter = FlowPopulation([flow_for_tenant(999, 0)], vnis=[999])
    CbrSource(
        handle.sim, handle.rngs.stream("hh"), handle.pod.ingress, hitter,
        rate_pps=int(hitter_fraction * PER_CORE_PPS),
    )
    handle.run()
    utils = handle.pod.core_utilizations(duration)
    offered = int(0.1 * PER_CORE_PPS * CORES) + int(hitter_fraction * PER_CORE_PPS)
    delivered = handle.pod.transmitted() / (duration / 1e9)
    loss = max(0.0, 1 - delivered / offered)
    return utils, loss


def main():
    print(f"{CORES} cores, 10% background, heavy hitter at 130% of one core\n")
    for mode in ("rss", "plb"):
        utils, loss = run_mode(mode, hitter_fraction=1.3)
        print(f"{mode.upper():>4}  loss={loss:.1%}")
        for i, u in enumerate(utils):
            print(f"      core{i} |{'#' * int(u * 40):<40}| {u:.0%}")
        print()
    print("RSS: the hitter lands on one core -> overload and loss.")
    print("PLB: the same flow is sprayed packet-by-packet -> even load, no loss,")
    print("     and the reorder engine still delivers it in order.")


if __name__ == "__main__":
    main()
