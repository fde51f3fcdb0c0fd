"""Fig. 9: P99 latency vs gateway load, PLB vs RSS.

The paper replays "real cloud network's microburst traffic" while sweeping
average gateway load from ~50% to ~95%: below 75% the two modes tie (the
gateway is unburdened); above it, RSS's P99 takes off because each
microburst concentrates on whichever core its flow hashes to, while PLB
spreads the burst across all cores.

The scaled workload: steady background across many flows plus short
single-flow bursts (each at ~25% of one core's capacity, so the victim
RSS core only saturates once its background share passes ~75% -- placing
the crossover where the paper places it).
"""

from repro.experiments.common import ExperimentResult
from repro.packet.flows import flow_for_tenant
from repro.scenarios import PodSpec, ScenarioSpec, build
from repro.sim.units import MS, US
from repro.workloads.generators import CbrSource, FlowPopulation, uniform_population

CORES = 4


def run(
    loads=(0.5, 0.65, 0.75, 0.85, 0.95),
    per_core_pps=100_000,
    duration_ns=400 * MS,
    burst_core_fraction=0.25,
    burst_duration_ns=5 * MS,
    burst_gap_ns=20 * MS,
):
    rows = []
    for mode in ("rss", "plb"):
        for load in loads:
            rows.append(
                _run_point(
                    mode,
                    load,
                    per_core_pps,
                    duration_ns,
                    burst_core_fraction,
                    burst_duration_ns,
                    burst_gap_ns,
                )
            )
    return ExperimentResult(
        "Fig. 9: P99 latency vs load (RSS vs PLB)",
        rows,
        meta={"cores": CORES, "paper": "PLB wins beyond ~75% load"},
    )


def _run_point(
    mode,
    load,
    per_core_pps,
    duration_ns,
    burst_core_fraction,
    burst_duration_ns,
    burst_gap_ns,
):
    handle = build(ScenarioSpec(
        name="fig9",
        pods=(PodSpec(data_cores=CORES, mode=mode, per_core_pps=per_core_pps),),
        duration_ns=duration_ns,
        seed=23,
    ))
    burst_rate = int(burst_core_fraction * per_core_pps)
    # Average burst contribution counts toward the load target.
    duty_cycle = burst_duration_ns / (burst_duration_ns + burst_gap_ns)
    burst_average = burst_rate * duty_cycle
    background_rate = max(0, int(load * per_core_pps * CORES - burst_average))
    background = uniform_population(400, tenants=40)
    CbrSource(
        handle.sim,
        handle.rngs.stream("background"),
        handle.pod.ingress,
        background,
        rate_pps=background_rate,
    )
    _schedule_bursts(
        handle, burst_rate, burst_duration_ns, burst_gap_ns, duration_ns
    )
    handle.run()
    histogram = handle.pod.latency_histogram
    return {
        "mode": mode,
        "load_pct": int(load * 100),
        "p50_us": round(histogram.percentile(0.50) / US, 1),
        "p99_us": round(histogram.percentile(0.99) / US, 1),
        "max_us": round((histogram.max_ns or 0) / US, 1),
        "packets": histogram.count,
    }


def _schedule_bursts(handle, burst_rate, burst_duration_ns, burst_gap_ns, horizon_ns):
    """Repeated single-flow microbursts on rotating flows."""
    burst_index = 0
    start = burst_gap_ns
    while start < horizon_ns:
        flow = flow_for_tenant(7000 + burst_index, burst_index)
        population = FlowPopulation([flow], vnis=[7000 + burst_index])
        source = CbrSource(
            handle.sim,
            handle.rngs.stream(f"burst{burst_index}"),
            handle.pod.ingress,
            population,
            rate_pps=0,
        )
        handle.sim.schedule_at(start, source.set_rate, burst_rate)
        handle.sim.schedule_at(start + burst_duration_ns, source.set_rate, 0)
        start += burst_duration_ns + burst_gap_ns
        burst_index += 1
