"""Fig. 16 (cross vs intra NUMA) and Fig. 17 (automatic NUMA balancing).

Fig. 16: placing a pod's cores and memory on different NUMA nodes costs
14% throughput for the lookup-heavy VPC-VPC service and 3% for pure
compute.

Fig. 17: with kernel ``numa_balancing`` enabled, a pinned pod at 90% load
shows periodic latency bursts (page-unmap stalls); disabling it flattens
the maximum latency.
"""

from repro.cpu.numa import NumaBalancer, NumaTopology
from repro.experiments.common import ExperimentResult
from repro.scenarios import PodSpec, ScenarioSpec, build
from repro.sim.units import MS, US
from repro.workloads.generators import CbrSource, uniform_population

CORES = 4


def run_fig16(per_core_pps=100_000, duration_ns=200 * MS):
    """Throughput with intra- vs cross-NUMA placement, saturated pod."""
    rows = []
    for placement, memory_node in (("intra", None), ("cross", 1)):
        handle = build(ScenarioSpec(
            name="fig16",
            pods=(
                PodSpec(
                    data_cores=CORES,
                    per_core_pps=per_core_pps,
                    numa_node=0,
                    memory_node=memory_node,
                ),
            ),
            duration_ns=duration_ns,
            seed=71,
        ))
        population = uniform_population(500, tenants=50)
        CbrSource(
            handle.sim,
            handle.rngs.stream("traffic"),
            handle.pod.ingress,
            population,
            rate_pps=int(per_core_pps * CORES * 1.3),  # saturation
        )
        handle.run()
        rows.append(
            {
                "placement": placement,
                "throughput_kpps": round(
                    handle.pod.transmitted() * 1e6 / duration_ns, 1
                ),
            }
        )
    base = rows[0]["throughput_kpps"]
    for row in rows:
        row["relative"] = round(row["throughput_kpps"] / base, 3)
    topology = NumaTopology()
    return ExperimentResult(
        "Fig. 16: cross vs intra NUMA placement",
        rows,
        meta={
            "paper_service_penalty_pct": 14,
            "paper_compute_penalty_pct": 3,
            "model_compute_factor": topology.CROSS_NUMA_COMPUTE_PENALTY,
        },
    )


def run_fig17(per_core_pps=100_000, load=0.9, duration_ns=400 * MS):
    """Max latency / jitter at 90% load with numa_balancing on vs off."""
    rows = []
    for balancing in (True, False):
        handle = build(ScenarioSpec(
            name="fig17",
            pods=(
                PodSpec(data_cores=CORES, per_core_pps=per_core_pps, numa_node=0),
            ),
            duration_ns=duration_ns,
            seed=73,
        ))
        balancer = NumaBalancer(
            handle.sim,
            handle.pod.cores,
            enabled=balancing,
            scan_period_ns=50 * MS,
            stall_ns=300 * US,
            rng=handle.rngs.stream("balancer"),
        )
        population = uniform_population(500, tenants=50)
        CbrSource(
            handle.sim,
            handle.rngs.stream("traffic"),
            handle.pod.ingress,
            population,
            rate_pps=int(load * per_core_pps * CORES),
        )
        handle.run()
        histogram = handle.pod.latency_histogram
        rows.append(
            {
                "numa_balancing": "on" if balancing else "off",
                "p50_us": round(histogram.percentile(0.5) / US, 1),
                "p99_us": round(histogram.percentile(0.99) / US, 1),
                "max_us": round((histogram.max_ns or 0) / US, 1),
                "balancer_scans": balancer.scans,
            }
        )
    return ExperimentResult(
        "Fig. 17: impact of automatic NUMA balancing at 90% load",
        rows,
        meta={"paper": "balancing on -> latency bursts; off -> flat"},
    )
