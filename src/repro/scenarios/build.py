"""Build a :class:`ScenarioSpec` into a running deployment.

``build(spec)`` is the one construction path behind every entry point:
it creates the simulator, the rng registry, an
:class:`~repro.core.gateway.AlbatrossServer`, one pod per
:class:`~repro.scenarios.spec.PodSpec` and (optionally) the declared
workload, and returns a :class:`RunHandle` the caller drives.

The handle's :meth:`RunHandle.report` emits the **run report**: a plain,
deterministic, JSON-safe dict -- the unit the fleet engine merges across
shards, so its key order and value types must stay stable.
"""

from repro.core.gateway import AlbatrossServer, PodConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


def scaled_service(name="scaled", per_core_pps=100_000, lookups=4):
    """A synthetic service whose saturated per-core rate is ``per_core_pps``.

    Uses the analytic 35% hit-rate lookup cost to solve for base_ns, so the
    paper-level per-core ratios carry over exactly at laptop packet rates.
    """
    from repro.cpu.service import GatewayService, LookupSpec, MemoryTimings

    timings = MemoryTimings()
    lookup_ns = timings.expected_lookup_ns(0.35)
    total_ns = 1e9 / per_core_pps
    base_ns = max(1, int(total_ns - lookups * lookup_ns))
    specs = [LookupSpec(f"table{i}", 1_000_000, 256) for i in range(lookups)]
    return GatewayService(name, base_ns, specs)


def _pod_config(pod_spec, extras=None):
    """Translate a :class:`PodSpec` into a :class:`PodConfig`."""
    extras = dict(extras or {})
    custom_service = None
    if pod_spec.per_core_pps is not None:
        custom_service = scaled_service(
            per_core_pps=pod_spec.per_core_pps, lookups=pod_spec.lookups
        )
    return PodConfig(
        name=pod_spec.name,
        data_cores=pod_spec.data_cores,
        ctrl_cores=pod_spec.ctrl_cores,
        service=pod_spec.service,
        mode=pod_spec.mode,
        reorder_queues=pod_spec.reorder_queues,
        rx_capacity=pod_spec.rx_capacity,
        drop_flag_enabled=pod_spec.drop_flag_enabled,
        acl_drop_probability=pod_spec.acl_drop_probability,
        silent_drop_probability=pod_spec.silent_drop_probability,
        numa_node=pod_spec.numa_node,
        memory_node=pod_spec.memory_node,
        custom_service=custom_service,
        **extras,
    )


def _build_pod(pod_spec, server, rngs, pod_extras):
    """Add one pod to ``server``, wiring the limiter extra when declared."""
    extras = dict(pod_extras.get(pod_spec.name, {}))
    if pod_spec.limiter_stage1_pps is not None and "rate_limiter" not in extras:
        from repro.core.ratelimit import TwoStageRateLimiter

        extras["rate_limiter"] = TwoStageRateLimiter(
            rngs.stream(f"limiter.{pod_spec.name}"),
            stage1_rate_pps=pod_spec.limiter_stage1_pps,
            stage2_rate_pps=(
                pod_spec.limiter_stage2_pps
                if pod_spec.limiter_stage2_pps is not None
                else pod_spec.limiter_stage1_pps // 4 or 1
            ),
        )
    return server.add_pod(_pod_config(pod_spec, extras))


class ServerRuntime:
    """One live AZ member: its deployment, pods and offload tier."""

    __slots__ = ("name", "server", "pods", "dispatch", "dpu", "promoter")

    def __init__(self, name, server, pods, dispatch, dpu=None, promoter=None):
        self.name = name
        self.server = server        # the AlbatrossServer
        self.pods = pods            # {name: GwPodRuntime}, spec order
        self.dispatch = dispatch    # FlowPodDispatch
        self.dpu = dpu              # DpuPreClassifier or None
        self.promoter = promoter    # HotFlowPromoter or None


class TopologyRuntime:
    """The live AZ: the ECMP uplink plus every :class:`ServerRuntime`."""

    __slots__ = ("uplink", "servers")

    def __init__(self, uplink, servers):
        self.uplink = uplink
        self.servers = servers      # {name: ServerRuntime}, spec order


def _build_population(workload):
    from repro.workloads.generators import uniform_population, zipf_population

    if workload.population == "zipf":
        return zipf_population(
            workload.flows,
            exponent=workload.zipf_exponent,
            tenants=workload.tenants,
        )
    return uniform_population(workload.flows, tenants=workload.tenants)


class RunHandle:
    """A built scenario: simulator, server, pods and attached sources.

    Scenario functions are free to add machinery (fault injectors,
    sources, bespoke sinks) that drives the handle before calling
    :meth:`run`.  Live pod components arrive only through ``build``'s
    ``pod_extras``; observers attach through the pods' taps
    (:meth:`~repro.core.gateway.GwPodRuntime.add_tap`).
    """

    def __init__(self, spec, sim, rngs, server, pods, sources, migration=None):
        self.spec = spec
        self.sim = sim
        self.rngs = rngs
        self.server = server
        self.pods = pods            # {name: GwPodRuntime}, spec order
        self.sources = list(sources)
        # The MigrationController when spec.migration is set; it swaps
        # the migrated pod's entry in self.pods in place on restore.
        self.migration = migration
        # The SimCheckpointer when spec.checkpoint_every_ns is set
        # (attached by build() after sources exist).
        self.checkpointer = None
        # The TimeSeriesRecorder when spec.timeseries_every_ns is set.
        self.telemetry = None
        # The TopologyRuntime when spec.servers is set.
        self.topology = None

    @property
    def pod(self):
        """The first (often only) pod."""
        return next(iter(self.pods.values()))

    def capacity_pps(self, pod_name=None):
        """Nominal packet capacity of one pod (see ``WorkloadSpec.load``)."""
        all_pods = self.spec.all_pods
        spec = all_pods[0] if pod_name is None else next(
            pod for pod in all_pods if pod.name == pod_name
        )
        if spec.per_core_pps is not None:
            return spec.per_core_pps * spec.data_cores
        pod = self.pods[spec.name]
        return pod.expected_capacity_mpps() * 1e6

    def run(self, duration_ns=None):
        """Advance the clock by ``duration_ns`` (default: the spec's)."""
        span = self.spec.duration_ns if duration_ns is None else duration_ns
        self.sim.run_until(self.sim.now + span)
        return self

    def restore_checkpoint(self, snapshot):
        """Adopt a ``SimCheckpoint`` on a freshly built handle.

        After this the handle behaves as if it had simulated up to the
        snapshot's instant: ``run(spec.duration_ns - sim.now)`` finishes
        the shard and :meth:`report` is byte-identical to a from-zero
        run (the checkpoint invariant test drives this at random
        simtimes).

        Restore order: clock, rng streams (in place -- components keep
        their bindings), pod state, then every pending event re-created
        in ``(time, seq)`` order so same-timestamp ties replay exactly.
        Only valid on a handle that has not run yet.
        """
        from repro.controlplane.snapshot import CHECKPOINT_SCHEMA_VERSION

        if self.checkpointer is None:
            raise ValueError(
                f"scenario {self.spec.name!r} has no checkpoint cadence "
                "(set spec.checkpoint_every_ns)"
            )
        version = snapshot.get("schema_version")
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise ValueError(
                f"checkpoint schema {version!r} is not "
                f"{CHECKPOINT_SCHEMA_VERSION}"
            )
        self.sim.restore_clock(snapshot["sim"])
        self.rngs.restore(snapshot["rngs"])
        for name, pod in self.pods.items():
            pod.restore_state(snapshot["pods"][name])
        rearms = list(self.checkpointer.restore(snapshot))
        if self.telemetry is not None:
            telemetry_snapshot = snapshot.get("telemetry")
            if telemetry_snapshot is None:
                raise ValueError(
                    f"scenario {self.spec.name!r} has windowed telemetry "
                    "armed but the checkpoint carries no telemetry section"
                )
            rearms.extend(self.telemetry.restore(telemetry_snapshot))
        for source, source_snapshot in zip(self.sources, snapshot["sources"]):
            rearms.extend(source.restore(source_snapshot))
        rearms.sort(key=lambda entry: (entry[0], entry[1]))
        for _time, _seq, rearm in rearms:
            rearm()
        return self

    def report(self):
        """The deterministic per-run report (the fleet's merge unit)."""
        pods = {}
        for name, pod in self.pods.items():
            entry = {
                "transmitted": pod.transmitted(),
                "counters": dict(sorted(pod.counters.snapshot().items())),
                "outcomes": dict(sorted(pod.outcomes.items())),
                "latency": pod.latency_histogram.to_dict(),
            }
            if pod.config.mode == "plb":
                stats = pod.reorder_stats
                entry["reorder"] = {
                    "in_order": stats.in_order,
                    "best_effort": stats.best_effort,
                    "hol_events": stats.hol_events,
                }
            pods[name] = entry
        report = {
            "scenario": self.spec.name,
            "seed": self.spec.seed,
            "duration_ns": self.spec.duration_ns,
            "sim_ns": self.sim.now,
            "events": self.sim.events_processed,
            "pods": pods,
        }
        # Only when armed: reports of telemetry-less scenarios must stay
        # byte-identical to pre-telemetry output.
        if self.telemetry is not None:
            report["timeseries"] = self.telemetry.series()
        if self.migration is not None:
            report["migration"] = self.migration.plan.to_dict()
        # Topology sections likewise appear only on topology runs.
        if self.topology is not None:
            report["uplink"] = self._uplink_section()
            report["servers"] = self._servers_section()
            report["tiers"] = self._tiers_section()
        return report

    def _uplink_section(self):
        uplink = self.topology.uplink
        return {
            "members": [name for name, _sink in uplink.members],
            "pinned_flows": uplink.pinned_flows,
            "counters": dict(sorted(uplink.counters.snapshot().items())),
        }

    def _servers_section(self):
        servers = {}
        for name, runtime in self.topology.servers.items():
            entry = {
                "pods": list(runtime.pods),
                "dispatch": dict(
                    sorted(runtime.dispatch.counters.snapshot().items())
                ),
            }
            if runtime.dpu is not None:
                entry["dpu"] = {
                    "occupancy": runtime.dpu.occupancy,
                    "counters": dict(
                        sorted(runtime.dpu.counters.snapshot().items())
                    ),
                }
            servers[name] = entry
        return servers

    def _tiers_section(self):
        """AZ-wide per-tier rollup: the DPU tier vs the host pipeline."""
        host_packets = sum(pod.transmitted() for pod in self.pods.values())
        tiers = {"host": {"packets": host_packets}}
        runtimes = [
            runtime for runtime in self.topology.servers.values()
            if runtime.dpu is not None
        ]
        if runtimes:
            from repro.metrics.histogram import LatencyHistogram

            fast = LatencyHistogram(seed=self.spec.seed)
            counters = {}
            occupancy = 0
            for runtime in runtimes:
                fast.merge(runtime.dpu.latency_histogram)
                occupancy += runtime.dpu.occupancy
                for key, value in runtime.dpu.counters.snapshot().items():
                    counters[key] = counters.get(key, 0) + value
            tiers["dpu"] = {
                "packets": counters.get("fast_forwards", 0),
                "occupancy": occupancy,
                "counters": dict(sorted(counters.items())),
                "latency": fast.to_dict(),
            }
        return tiers


def build(spec, sim=None, rngs=None, pod_extras=None):
    """Construct the deployment a :class:`ScenarioSpec` describes.

    Parameters:
        spec: the scenario.
        sim / rngs: pass to embed the scenario in an existing simulation
            (defaults: fresh ``Simulator`` and ``RngRegistry(spec.seed)``).
        pod_extras: ``{pod_name: {kwarg: value}}`` of :class:`PodConfig`
            kwargs that plain-data specs cannot carry (``rate_limiter``,
            ``jitter``, ``session_offload``, ``meta_placement``,
            ``reorder_depth``) -- the one construction-time path for
            live objects; pass ``sim``/``rngs`` to build them on the
            deployment's clock and streams.  Handles built with extras
            run fine but their specs no longer describe the full
            deployment -- keep extras out of sweep-bound scenarios.
    """
    sim = sim if sim is not None else Simulator()
    rngs = rngs if rngs is not None else RngRegistry(seed=spec.seed)
    pod_extras = pod_extras or {}

    if spec.servers:
        topology, migration, pods = _build_topology(spec, sim, rngs, pod_extras)
        # handle.server stays the first member's deployment so
        # single-server tooling (capacity probes, fault routers) keeps
        # a meaningful default target.
        server = next(iter(topology.servers.values())).server
    else:
        topology = None
        server = AlbatrossServer(sim, rngs)
        pods = {}
        for pod_spec in spec.pods:
            pods[pod_spec.name] = _build_pod(pod_spec, server, rngs, pod_extras)
        migration = None
        if spec.migration is not None:
            from repro.controlplane.migration import MigrationController

            migration = MigrationController(sim, server, spec.migration, pods)

    sources = []
    if spec.workload is not None:
        if not spec.all_pods:
            raise ValueError(f"scenario {spec.name!r} has a workload but no pods")
        sink = topology.uplink.forward if topology is not None else None
        sources.append(_attach_workload(spec, sim, rngs, pods, migration, sink))

    handle = RunHandle(spec, sim, rngs, server, pods, sources, migration=migration)
    handle.topology = topology
    if spec.timeseries_every_ns is not None:
        from repro.telemetry import TimeSeriesRecorder

        handle.telemetry = TimeSeriesRecorder(
            sim, pods, spec.timeseries_every_ns, seed=spec.seed
        )
    if spec.checkpoint_every_ns is not None:
        from repro.controlplane.snapshot import SimCheckpointer

        handle.checkpointer = SimCheckpointer(
            sim, rngs, pods, sources, spec.checkpoint_every_ns,
            recorder=handle.telemetry,
        )
    return handle


def _build_topology(spec, sim, rngs, pod_extras):
    """Construct the AZ: per-server deployments, tiers and the uplink."""
    from repro.scenarios.spec import EcmpSpec
    from repro.topology import (
        DpuPreClassifier,
        EcmpUplink,
        FlowPodDispatch,
        HotFlowPromoter,
    )

    ecmp = spec.ecmp if spec.ecmp is not None else EcmpSpec()
    pods = {}
    deployments = {}            # server name -> (AlbatrossServer, {pod runtimes})
    for server_spec in spec.servers:
        az_server = AlbatrossServer(sim, rngs)
        server_pods = {}
        for pod_spec in server_spec.pods:
            runtime = _build_pod(pod_spec, az_server, rngs, pod_extras)
            pods[pod_spec.name] = runtime
            server_pods[pod_spec.name] = runtime
        deployments[server_spec.name] = (az_server, server_pods)

    migration = None
    if spec.migration is not None:
        from repro.controlplane.migration import MigrationController

        home = next(
            server.name for server in spec.servers
            if any(pod.name == spec.migration.pod for pod in server.pods)
        )
        migration = MigrationController(
            sim, deployments[home][0], spec.migration, pods
        )

    members = []
    servers = {}
    for server_spec in spec.servers:
        az_server, server_pods = deployments[server_spec.name]
        sinks = []
        for pod_spec in server_spec.pods:
            # The migrating pod's traffic goes through the controller's
            # route() indirection: buffered during the blackout, and
            # re-resolved after the pods-dict entry swap on restore.
            if migration is not None and migration.pod_name == pod_spec.name:
                sinks.append((pod_spec.name, migration.route))
            else:
                sinks.append((pod_spec.name, server_pods[pod_spec.name].ingress))
        dispatch = FlowPodDispatch(
            server_spec.name, sinks, hash_seed=ecmp.pod_hash_seed
        )
        dpu = promoter = None
        entry = dispatch.forward
        if spec.dpu_tier is not None:
            tier = spec.dpu_tier
            dpu = DpuPreClassifier(
                sim, dispatch.forward,
                table_capacity=tier.table_capacity,
                fast_latency_ns=tier.fast_latency_ns,
                seed=spec.seed,
            )
            promoter = HotFlowPromoter(
                sim, dpu,
                threshold_pps=tier.threshold_pps,
                epoch_ns=tier.epoch_ns,
                demote_after_epochs=tier.demote_after_epochs,
                sketch_capacity=tier.sketch_capacity,
            )
            dpu.promoter = promoter
            entry = dpu.ingress
        servers[server_spec.name] = ServerRuntime(
            server_spec.name, az_server, server_pods, dispatch, dpu, promoter
        )
        members.append((server_spec.name, entry))

    uplink = EcmpUplink(
        members, hash_seed=ecmp.hash_seed, pin_flows=ecmp.pin_flows
    )
    return TopologyRuntime(uplink, servers), migration, pods


def _attach_workload(spec, sim, rngs, pods, migration=None, sink=None):
    from repro.workloads.generators import CbrSource
    from repro.workloads.microburst import MicroburstSource

    workload = spec.workload
    target_spec = spec.all_pods[0]
    if sink is None:
        target = pods[target_spec.name]
        # Traffic aimed at a migrating pod goes through the controller's
        # route() indirection: buffered during the blackout, never dropped.
        if migration is not None and migration.pod_name == target_spec.name:
            sink = migration.route
        else:
            sink = target.ingress
    population = _build_population(workload)
    if workload.rate_pps is not None:
        rate = workload.rate_pps
    elif spec.servers:
        # Topology runs spread load over the whole AZ: the offered rate
        # is a fraction of the summed per-pod capacity.
        capacity = 0
        for pod_spec in spec.all_pods:
            if pod_spec.per_core_pps is not None:
                capacity += pod_spec.per_core_pps * pod_spec.data_cores
            else:
                capacity += pods[pod_spec.name].expected_capacity_mpps() * 1e6
        rate = int(capacity * workload.load)
    else:
        if target_spec.per_core_pps is not None:
            capacity = target_spec.per_core_pps * target_spec.data_cores
        else:
            capacity = pods[target_spec.name].expected_capacity_mpps() * 1e6
        rate = int(capacity * workload.load)
    stream = rngs.stream(workload.stream)
    if workload.kind == "microburst":
        burst_kwargs = {"burst_factor": workload.burst_factor}
        if workload.burst_duration_ns is not None:
            burst_kwargs["burst_duration_ns"] = workload.burst_duration_ns
        if workload.burst_period_ns is not None:
            burst_kwargs["burst_period_ns"] = workload.burst_period_ns
        return MicroburstSource(
            sim, stream, sink, population, rate,
            size=workload.size, **burst_kwargs,
        )
    return CbrSource(
        sim, stream, sink, population, rate, size=workload.size
    )
