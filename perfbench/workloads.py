"""The benchmark's workloads and the code that runs one of them once.

A workload turns a seed into either one :class:`ScenarioSpec` or a named
fleet sweep.  :func:`execute` runs it through the public API only
(``build``, ``RunHandle.run``/``report``, ``run_sweep(workers=1)``,
``sweep_to_json``), times set-up and simulation separately, applies the
per-run correctness gate and returns one plain-data result.

Sweeps build and run their shards inside ``run_sweep``; the timing
reaches them through :meth:`RunLog.hooks`, which wraps the engine's
``build`` and ``RunHandle.run`` for the duration of one sweep and
restores both afterwards.
"""

import contextlib
import gc
import hashlib
import json
import statistics
import time

from repro.controlplane.scenarios import rolling_upgrade_spec
from repro.core.nic import NicPipeline
from repro.fleet import engine
from repro.fleet.sweeps import build_sweep
from repro.metrics.histogram import LatencyHistogram
from repro.scenarios import MigrationSpec, RunHandle, build, scenario_spec
from repro.sim.units import MS
from repro.telemetry import validate_series

#: The unwrapped method, so the sweep hook cannot call itself.
_RUN = RunHandle.run

#: Simulated time between two ``sim.pending`` samples in a traced run.
PENDING_SAMPLE_NS = 100_000


class Workload:
    """One named benchmark input: a spec factory or a named sweep.

    ``spec(seed)`` builds the single-run spec; ``sweep`` names a
    :mod:`repro.fleet.sweeps` entry instead.  ``setup_builds`` is how
    often a single-run spec is built per run: the median of those builds
    is the run's set-up time, and only the last handle is simulated.
    """

    def __init__(self, name, why, spec=None, sweep=None, setup_builds=1):
        self.name = name
        self.why = why
        self.spec = spec
        self.sweep = sweep
        self.setup_builds = setup_builds

    def shard_count(self, seed):
        return len(build_sweep(self.sweep, seed=seed)) if self.sweep else 1


def plb_steady_spec(seed):
    return scenario_spec("steady-state-plb").with_overrides(seed=seed)


def burst_telemetry_spec(seed):
    return scenario_spec("microburst-reorder").with_overrides(
        seed=seed, overrides={"timeseries_every_ns": 1 * MS}
    )


def az_migrate_spec(seed):
    """``az-steady`` at 4 servers and 100k tenants, migrating srv0's pod."""
    base = scenario_spec("az-steady", servers=4, tenants=100_000)
    timings = rolling_upgrade_spec().migration
    migration = MigrationSpec(
        pod="srv0-pod",
        server="srv0",
        start_ns=base.duration_ns // 3,
        target_numa_node=1,
        poll_ns=timings.poll_ns,
        freeze_ns=timings.freeze_ns,
        per_kib_ns=timings.per_kib_ns,
        restore_ns=timings.restore_ns,
        route_update_ns=timings.route_update_ns,
        flush_rate_pps=200_000,
    )
    return base.with_overrides(
        seed=seed, overrides={"migration": migration.to_dict()}
    )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "plb-steady",
            "bare per-packet PLB path; no-change control for limiter, "
            "topology, telemetry and control plane",
            spec=plb_steady_spec, setup_builds=21,
        ),
        Workload(
            "burst-telemetry",
            "microbursts overflow RX rings and stress HOL recovery, with "
            "the 1 ms telemetry probe armed",
            spec=burst_telemetry_spec, setup_builds=21,
        ),
        Workload(
            "az-migrate",
            "4-server ECMP AZ with DPU fast path and a live migration "
            "under load",
            spec=az_migrate_spec, setup_builds=3,
        ),
        Workload(
            "tenant-sweep",
            "1k..1M tenant sweep: set-up, memory, limiter drops, "
            "checkpoints and the fleet merge",
            sweep="tenant-scaling",
        ),
    )
}


class Tracer:
    """Harness-side profiling: one cProfile for set-up, one for the rest.

    ``phase(name)`` makes one profile (or none) the active one and
    restores the previous choice on exit, so set-up nested inside a
    sweep is charged to the set-up profile.  Untraced, every phase is a
    no-op.
    """

    def __init__(self, enabled):
        if enabled:
            import cProfile

            self.profiles = {"setup": cProfile.Profile(), "run": cProfile.Profile()}
        else:
            self.profiles = None
        self._current = None

    @property
    def enabled(self):
        return self.profiles is not None

    def _switch(self, name):
        if self.profiles is not None and name != self._current:
            if self._current is not None:
                self.profiles[self._current].disable()
            if name is not None:
                self.profiles[name].enable()
        self._current = name

    @contextlib.contextmanager
    def phase(self, name):
        previous = self._current
        self._switch(name)
        try:
            yield
        finally:
            self._switch(previous)


class RunLog:
    """Host timings and post-run observations for every simulation run."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.setup_times = []
        self.run_s = 0.0
        self.runs = []

    def build(self, spec):
        with self.tracer.phase("setup"):
            start = time.perf_counter()
            handle = build(spec)
            elapsed = time.perf_counter() - start
        self.setup_times.append(elapsed)
        return handle

    def run(self, handle, duration_ns=None):
        span = handle.spec.duration_ns if duration_ns is None else duration_ns
        with self.tracer.phase("run"):
            start = time.perf_counter()
            if self.tracer.enabled:
                peak = _run_sampled(handle, span)
            else:
                _RUN(handle, span)
                peak = None
            elapsed = time.perf_counter() - start
        self.run_s += elapsed
        with self.tracer.phase(None):
            self.runs.append(observe(handle, peak))
        return handle

    @contextlib.contextmanager
    def hooks(self):
        """Route the sweep engine's build and every ``run`` through this log."""
        saved_build = engine.build
        engine.build = self.build
        RunHandle.run = lambda handle, duration_ns=None: self.run(
            handle, duration_ns
        )
        try:
            yield
        finally:
            engine.build = saved_build
            RunHandle.run = _RUN


def _run_sampled(handle, span):
    """``handle.run(span)`` in fixed sim-time steps, sampling the event queue.

    ``run_until`` resumes exactly where it stopped, so the steps replay
    the same events in the same order as one call (the report digest
    check compares this run with the untraced one).
    """
    peak = handle.sim.pending
    done = 0
    while done < span:
        step = min(PENDING_SAMPLE_NS, span - done)
        _RUN(handle, step)
        done += step
        peak = max(peak, handle.sim.pending)
    return peak


def observe(handle, peak_pending):
    """What only the live handle knows, read after its run has finished."""
    pods = {}
    busy_ns = 0
    core_ns = 0
    for name, pod in handle.pods.items():
        pods[name] = pod.in_flight()
        busy_ns += sum(core.stats.busy_ns for core in pod.cores)
        core_ns += len(pod.cores) * handle.sim.now
    checkpointer = handle.checkpointer
    snapshot_bytes = 0
    if checkpointer is not None and checkpointer.latest is not None:
        snapshot_bytes = len(json.dumps(checkpointer.latest))
    return {
        "offered": sum(source.emitted for source in handle.sources),
        "events": handle.sim.events_processed,
        "pending": handle.sim.pending,
        "peak_pending": peak_pending,
        "in_flight": pods,
        "busy_ns": busy_ns,
        "core_ns": core_ns,
        "checkpoints": 0 if checkpointer is None else checkpointer.captured,
        "checkpoint_bytes": snapshot_bytes,
    }


def _pod_drops(counters):
    """Packets a pod settled without transmitting them."""
    settled = sum(counters.get(name, 0) for name in NicPipeline.TERMINAL_COUNTERS)
    return settled - counters.get("tx_packets", 0)


def check_run(report, live):
    """The per-run correctness gate: a list of failures, empty if it passes."""
    failures = []
    received = 0
    for name, pod in report["pods"].items():
        counters = pod["counters"]
        rx = counters.get("rx_packets", 0)
        settled = sum(counters.get(key, 0) for key in NicPipeline.TERMINAL_COUNTERS)
        in_flight = live["in_flight"][name]
        if in_flight < 0 or rx != settled + in_flight:
            failures.append(
                f"pod {name}: rx_packets {rx} != settled {settled} "
                f"+ in flight {in_flight}"
            )
        received += rx + counters.get("pod_crashed_drops", 0)
    fast = report["tiers"]["dpu"]["packets"] if "tiers" in report else 0
    if live["offered"] != received + fast:
        failures.append(
            f"offered {live['offered']} != received {received} + dpu {fast}"
        )
    if "uplink" in report:
        forwarded = report["uplink"]["counters"].get("forwarded", 0)
        dispatched = sum(
            server["dispatch"].get("dispatched", 0)
            for server in report["servers"].values()
        )
        if forwarded != fast + dispatched:
            failures.append(
                f"uplink forwarded {forwarded} != dpu {fast} "
                f"+ dispatched {dispatched}"
            )
    migration = report.get("migration")
    if migration is not None:
        lost = _pod_drops(report["pods"][migration["pod"]]["counters"])
        if migration["state"] != "complete" or lost:
            failures.append(
                f"migration of {migration['pod']} ended {migration['state']!r} "
                f"with {lost} packets lost"
            )
    if "timeseries" in report:
        try:
            validate_series(report["timeseries"])
        except ValueError as error:
            failures.append(f"timeseries: {error}")
    return failures


def run_counters(report, live):
    """Exact per-run counts the per-layer metrics are made of."""
    counts = {
        "offered": live["offered"],
        "events": live["events"],
        "pending": live["pending"],
        "busy_ns": live["busy_ns"],
        "core_ns": live["core_ns"],
        "checkpoints": live["checkpoints"],
        "snapshot_bytes": live["checkpoint_bytes"],
        "rx": 0, "tx": 0, "nic_drops": 0, "limiter_drops": 0,
        "in_order": 0, "best_effort": 0, "hol_events": 0,
        "dpu_packets": 0, "pinned_flows": 0, "windows": 0, "blackout_ns": 0,
    }
    for pod in report["pods"].values():
        counters = pod["counters"]
        limited = counters.get("rate_limited_drops", 0)
        counts["rx"] += counters.get("rx_packets", 0)
        counts["tx"] += pod["transmitted"]
        counts["limiter_drops"] += limited
        counts["nic_drops"] += _pod_drops(counters) - limited
        reorder = pod.get("reorder")
        if reorder is not None:
            counts["in_order"] += reorder["in_order"]
            counts["best_effort"] += reorder["best_effort"]
            counts["hol_events"] += reorder["hol_events"]
    if "tiers" in report and "dpu" in report["tiers"]:
        counts["dpu_packets"] = report["tiers"]["dpu"]["packets"]
    if "uplink" in report:
        counts["pinned_flows"] = report["uplink"]["pinned_flows"]
    if "timeseries" in report:
        counts["windows"] = len(report["timeseries"]["windows"])
    migration = report.get("migration")
    if migration is not None:
        counts["snapshot_bytes"] += migration["snapshot_bytes"]
        counts["blackout_ns"] = migration["blackout_ns"] or 0
    return counts


def model_values(reports, seed):
    """Simulated outcomes that no host-side change may move."""
    histogram = LatencyHistogram(seed=seed)
    delivered = 0
    for report in reports:
        for pod in report["pods"].values():
            delivered += pod["transmitted"]
            histogram.merge(LatencyHistogram.from_dict(pod["latency"]))
        if "tiers" in report and "dpu" in report["tiers"]:
            delivered += report["tiers"]["dpu"]["packets"]
    return {
        "delivered": delivered,
        "p99_us": histogram.percentile(0.99) / 1000 if histogram.count else 0.0,
    }


def execute(workload, seed, tracer):
    """Run ``workload`` once; return timings, gate verdicts and counters."""
    log = RunLog(tracer)
    if workload.sweep:
        shards = build_sweep(workload.sweep, seed=seed)
        gc.collect()
        with log.hooks():
            start = time.perf_counter()
            with tracer.phase("run"):
                sweep = engine.run_sweep(workload.sweep, shards, workers=1, seed=seed)
                text = engine.sweep_to_json(sweep)
            wall_s = time.perf_counter() - start
        reports = [result["report"] for result in sweep.shard_results]
        setup_s = sum(log.setup_times)
    else:
        spec = workload.spec(seed)
        # Traced runs build once: the set-up profile covers one build.
        if not tracer.enabled:
            for _ in range(workload.setup_builds - 1):
                log.build(spec)
                # Free each discarded deployment before the next build, so
                # peak RSS reflects one deployment.
                gc.collect()
        start = time.perf_counter()
        handle = log.build(spec)
        log.run(handle)
        with tracer.phase("run"):
            report = handle.report()
            text = json.dumps(report, indent=2) + "\n"
        wall_s = time.perf_counter() - start
        reports = [report]
        setup_s = statistics.median(log.setup_times)
    if len(log.runs) != len(reports):
        raise RuntimeError(
            f"{len(reports)} reports but {len(log.runs)} observed runs"
        )
    runs = [
        {
            "failures": check_run(report, live),
            "counts": run_counters(report, live),
            "peak_pending": live["peak_pending"],
        }
        for report, live in zip(reports, log.runs)
    ]
    return {
        "workload": workload.name,
        "seed": seed,
        "setup_s": setup_s,
        "run_s": log.run_s,
        "wall_s": wall_s,
        "report_bytes": len(text),
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "runs": runs,
        "model": model_values(reports, seed),
    }
