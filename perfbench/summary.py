"""Turn per-run results into the benchmark's metrics and failure tally.

A *set* is every run one invocation makes of one workload, all with the
same seed: untraced runs, and in trace mode traced runs as well.  Within
a set the simulation is deterministic, so the serialized report, every
exact counter, every ``model`` value and (across traced runs) every
per-layer call count must repeat exactly; a run that differs from the
first one counts as failed, like a run that raises or fails the gate.
"""

import statistics

from layers import LAYERS, SETUP_LAYERS

#: ``(name, unit, better)`` of the metrics a user of the simulator sees.
END_TO_END = (
    ("wall_pps", "pkt/s", "higher"),
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("events_per_pkt", "events/pkt", "lower"),
    ("pass_ratio", "ratio", "higher"),
)

#: ``(name, unit, better)`` of the metrics of single layers (traced runs).
PER_LAYER = tuple(
    entry
    for layer in LAYERS
    for entry in (
        (f"{layer}.self_s", "s", "lower"),
        (f"{layer}.share", "ratio", "lower"),
        (f"{layer}.calls", "count", "lower"),
    )
) + tuple(
    (f"setup.{layer}.self_s", "s", "lower") for layer in SETUP_LAYERS
) + (
    ("sim.pushes_per_pkt", "events/pkt", "lower"),
    ("sim.cancelled_ratio", "ratio", "lower"),
    ("sim.peak_pending", "events", "lower"),
    ("core.nic.drop_ratio", "ratio", "lower"),
    ("core.plb.reorder.best_effort_ratio", "ratio", "lower"),
    ("core.plb.reorder.hol_per_kpkt", "events/kpkt", "lower"),
    ("cpu.busy_ratio", "ratio", "lower"),
    ("core.ratelimit.drop_ratio", "ratio", "lower"),
    ("topology.dpu_share", "ratio", "higher"),
    ("topology.pinned_flows", "flows", "lower"),
    ("telemetry.windows", "count", "higher"),
    ("scenarios.report_bytes", "B", "lower"),
    ("controlplane.checkpoints", "count", "higher"),
    ("controlplane.snapshot_bytes", "B", "lower"),
    ("controlplane.blackout_us", "us", "lower"),
    ("model.delivered", "pkt", "higher"),
    ("model.loss_ratio", "ratio", "lower"),
    ("model.p99_us", "us", "lower"),
    ("trace_overhead", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _exact(result):
    """What must repeat exactly across runs of one set."""
    return (
        result["digest"],
        result["model"],
        [run["counts"] for run in result["runs"]],
    )


def _calls(result):
    return {
        layer: entry["calls"]
        for layer, entry in result["profile"]["layers"].items()
    }


def tally(results, shards):
    """``(attempted, failed, notes)`` over every run of one set.

    ``shards`` is how many simulation runs one workload run makes; a
    workload run that raised, or differs from the set's first good run,
    fails all of them.
    """
    attempted = failed = 0
    notes = []
    reference = next((result for result in results if "error" not in result), None)
    traced_reference = next(
        (result for result in results if "profile" in result), None
    )
    for index, result in enumerate(results):
        attempted += shards
        if "error" in result:
            failed += shards
            notes.append(f"run {index}: {result['error']}")
            continue
        if _exact(result) != _exact(reference):
            failed += shards
            notes.append(f"run {index}: report or exact counters differ from run 0")
            continue
        if "profile" in result and _calls(result) != _calls(traced_reference):
            failed += shards
            notes.append(f"run {index}: per-layer call counts differ")
            continue
        for shard, run in enumerate(result["runs"]):
            if run["failures"]:
                failed += 1
                notes.extend(
                    f"run {index} shard {shard}: {failure}"
                    for failure in run["failures"]
                )
    return attempted, failed, notes


def totals(result):
    """Exact counts summed over the simulation runs of one workload run."""
    summed = {}
    for run in result["runs"]:
        for key, value in run["counts"].items():
            summed[key] = summed.get(key, 0) + value
    return summed


def end_to_end(good, attempted, failed):
    """The end-to-end metrics from the good untraced runs of a set."""
    counts = totals(good[0])
    return {
        "wall_pps": statistics.median(
            totals(result)["offered"] / result["run_s"] for result in good
        ),
        "wall_s": statistics.median(result["wall_s"] for result in good),
        "setup_s": statistics.median(result["setup_s"] for result in good),
        "peak_rss_mb": statistics.median(result["rss_mb"] for result in good),
        "events_per_pkt": _ratio(counts["events"], counts["offered"]),
        "pass_ratio": 1.0 - _ratio(failed, attempted),
    }


def per_layer(untraced, good):
    """The per-layer metrics from the good traced runs of a set."""
    first = good[0]
    counts = totals(first)
    offered = counts["offered"]
    metrics = {}
    for layer in LAYERS:
        self_times = [r["profile"]["layers"][layer]["self_s"] for r in good]
        shares = [
            _ratio(
                r["profile"]["layers"][layer]["self_s"],
                sum(entry["self_s"] for entry in r["profile"]["layers"].values()),
            )
            for r in good
        ]
        metrics[f"{layer}.self_s"] = statistics.median(self_times)
        metrics[f"{layer}.share"] = statistics.median(shares)
        metrics[f"{layer}.calls"] = first["profile"]["layers"][layer]["calls"]
    for layer in SETUP_LAYERS:
        metrics[f"setup.{layer}.self_s"] = statistics.median(
            r["profile"]["setup"][layer] for r in good
        )
    pushes = first["profile"]["pushes"]
    delivered = first["model"]["delivered"]
    metrics.update({
        "sim.pushes_per_pkt": _ratio(pushes, offered),
        "sim.cancelled_ratio": _ratio(
            pushes - counts["events"] - counts["pending"], pushes
        ),
        "sim.peak_pending": max(run["peak_pending"] for run in first["runs"]),
        "core.nic.drop_ratio": _ratio(counts["nic_drops"], counts["rx"]),
        "core.plb.reorder.best_effort_ratio": _ratio(
            counts["best_effort"], counts["in_order"] + counts["best_effort"]
        ),
        "core.plb.reorder.hol_per_kpkt": _ratio(
            1000 * counts["hol_events"], offered
        ),
        "cpu.busy_ratio": _ratio(counts["busy_ns"], counts["core_ns"]),
        "core.ratelimit.drop_ratio": _ratio(counts["limiter_drops"], counts["rx"]),
        "topology.dpu_share": _ratio(counts["dpu_packets"], offered),
        "topology.pinned_flows": counts["pinned_flows"],
        "telemetry.windows": counts["windows"],
        "scenarios.report_bytes": first["report_bytes"],
        "controlplane.checkpoints": counts["checkpoints"],
        "controlplane.snapshot_bytes": counts["snapshot_bytes"],
        "controlplane.blackout_us": counts["blackout_ns"] / 1000,
        "model.delivered": delivered,
        "model.loss_ratio": 1.0 - _ratio(delivered, offered),
        "model.p99_us": first["model"]["p99_us"],
        "trace_overhead": _ratio(
            statistics.median(r["wall_s"] for r in good),
            statistics.median(r["wall_s"] for r in untraced),
        ),
    })
    return metrics


def with_units(values):
    return {
        name: {"value": value, "unit": UNITS[name]}
        for name, value in values.items()
    }
