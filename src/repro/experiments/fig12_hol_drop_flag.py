"""Fig. 12: HOL optimization with the active drop flag.

When the CPU drops a packet on purpose (ACL / rate-limit rules) under
PLB, the reorder FIFO is left waiting for a PSN that will never return:
head-of-line blocking until the 100 us timeout.  The active drop flag
notifies the NIC so the slot is released immediately.  The paper reports
the flag removes dozens to hundreds of HOL occurrences per second.

Replay: a pod at moderate load with a small ACL-drop probability, with
the flag on and off; HOL events = reorder timeout releases.
"""

from repro.experiments.common import ExperimentResult
from repro.scenarios import PodSpec, ScenarioSpec, build
from repro.sim.units import MS, SECOND, US
from repro.workloads.generators import CbrSource, uniform_population

CORES = 4


def run(
    per_core_pps=100_000,
    load=0.5,
    acl_drop_probability=0.002,
    duration_ns=500 * MS,
):
    rows = []
    for flag in (False, True):
        rows.append(
            _run_mode(flag, per_core_pps, load, acl_drop_probability, duration_ns)
        )
    return ExperimentResult(
        "Fig. 12: HOL events/s with and without the active drop flag",
        rows,
        meta={"paper": "flag reduces HOL by dozens-hundreds of events/s"},
    )


def _run_mode(drop_flag, per_core_pps, load, acl_drop_probability, duration_ns):
    handle = build(ScenarioSpec(
        name="fig12",
        pods=(
            PodSpec(
                data_cores=CORES,
                per_core_pps=per_core_pps,
                drop_flag_enabled=drop_flag,
                acl_drop_probability=acl_drop_probability,
            ),
        ),
        duration_ns=duration_ns,
        seed=53,
    ))
    population = uniform_population(400, tenants=40)
    CbrSource(
        handle.sim,
        handle.rngs.stream("traffic"),
        handle.pod.ingress,
        population,
        rate_pps=int(load * per_core_pps * CORES),
    )
    handle.run()
    stats = handle.pod.reorder_stats
    seconds = duration_ns / SECOND
    # Extra latency the timeout-blocked packets would have added: every
    # HOL event stalls its queue head for up to the full timeout.
    return {
        "drop_flag": "on" if drop_flag else "off",
        "hol_events_per_s": round(stats.hol_events / seconds, 1),
        "timeout_releases": stats.timeout_releases,
        "drop_flag_releases": stats.drop_flag_releases,
        "acl_drops": handle.pod.counters.get("cpu_acl_drops"),
        "p99_us": round(handle.pod.latency_histogram.percentile(0.99) / US, 1),
    }
