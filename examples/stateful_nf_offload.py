#!/usr/bin/env python3
"""Stateful NFs under PLB, and the FPGA session-offload fix (§7).

Shows the paper's stateful-NF findings: a write-light NF scales linearly
with cores, a write-heavy NF (per-packet counters) collapses under
cache-coherence traffic -- and the roadmap fix, offloading sessions to
the FPGA, restores scaling while keeping PLB's heavy-hitter tolerance.

Run:  python examples/stateful_nf_offload.py
"""

from repro.core.offload import FpgaSessionOffload, offload_throughput_mpps
from repro.cpu.stateful import write_heavy_nf, write_light_nf
from repro.scenarios import PodSpec, ScenarioSpec, build
from repro.sim import MS, Simulator
from repro.workloads import CbrSource, uniform_population


def scaling_table():
    light = write_light_nf()
    heavy = write_heavy_nf()
    print(f"{'cores':>6} {'write-light':>12} {'write-heavy':>12} "
          f"{'heavy+lockfree':>15} {'heavy+offload':>14}   (Mpps)")
    for cores in (1, 2, 4, 8, 16, 32, 44):
        print(
            f"{cores:>6}"
            f" {light.throughput_mpps(cores, 'plb'):>12.2f}"
            f" {heavy.throughput_mpps(cores, 'plb'):>12.2f}"
            f" {heavy.throughput_mpps(cores, 'plb', locked=False):>15.2f}"
            f" {offload_throughput_mpps(heavy, cores, 0.99):>14.2f}"
        )


def simulated_offload():
    print("\nsimulated fast path (4 cores, 200 flows, 80% load):")
    for offloaded in (False, True):
        sim = Simulator()
        offload = FpgaSessionOffload(sim, capacity=4096) if offloaded else None
        handle = build(
            ScenarioSpec(
                name="offload-demo",
                pods=(PodSpec(data_cores=4, per_core_pps=100_000),),
                duration_ns=200 * MS,
                seed=3,
            ),
            sim=sim,
            pod_extras={"pod": {"session_offload": offload}},
        )
        population = uniform_population(200, tenants=20)
        CbrSource(
            sim, handle.rngs.stream("traffic"), handle.pod.ingress,
            population, rate_pps=320_000,
        )
        handle.run()
        cpu = sum(core.stats.processed for core in handle.pod.cores)
        fast = handle.pod.counters.get("offload_fast_path")
        label = "with offload" if offloaded else "no offload  "
        print(f"  {label}: {handle.pod.transmitted()} delivered, "
              f"{cpu} via CPU, {fast} via FPGA fast path")


def main():
    print("Write-heavy stateful NFs anti-scale under PLB (coherence traffic);")
    print("removing locks barely helps; FPGA session offload recovers it.\n")
    scaling_table()
    simulated_offload()


if __name__ == "__main__":
    main()
