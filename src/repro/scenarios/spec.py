"""Declarative scenario specifications.

A :class:`ScenarioSpec` is the single way to say "this deployment, this
workload, this long, this seed" -- every entry point (``simulate``,
``bench``, ``faults``, ``sweep``) builds its servers from one, so a
scenario defined once is runnable from every command and shardable
across a worker fleet.

Specs are **plain data**: every field is a scalar, so a spec round-trips
losslessly through :meth:`ScenarioSpec.to_dict` /
:meth:`ScenarioSpec.from_dict` (the wire format the fleet engine ships
to worker processes, and the schema ``python -m repro sweep`` embeds in
its report).  Anything that is not plain data -- a live
``TwoStageRateLimiter``, a jitter model, a session-offload table --
enters through :func:`repro.scenarios.build`'s ``pod_extras``, the one
construction-time path for live objects (such handles are runnable but
not serializable).
"""


def _require(condition, message):
    if not condition:
        raise ValueError(message)


#: Declarative feature-compatibility table.  Each entry is
#: ``(feature_a, feature_b, why)``; a spec that activates both sides of
#: any row is rejected with one uniform message.  Features are named by
#: the spec field that arms them (``_feature_active`` knows how to test
#: each), so adding a new mutually-exclusive pair is one line here
#: instead of another hand-rolled ``_require`` in ``__init__``.
INCOMPATIBLE_FEATURES = (
    (
        "migration", "checkpoint_every_ns",
        "a mid-migration deployment is not quiescent-restorable",
    ),
    (
        "servers", "checkpoint_every_ns",
        "the uplink switch and DPU tier are not snapshot-aware yet",
    ),
)


def _feature_active(spec, feature):
    """Is the named spec feature armed on ``spec``?"""
    value = getattr(spec, feature)
    return bool(value) if isinstance(value, tuple) else value is not None


def _check_feature_compatibility(spec):
    for left, right, why in INCOMPATIBLE_FEATURES:
        if _feature_active(spec, left) and _feature_active(spec, right):
            raise ValueError(f"{left} cannot be combined with {right}: {why}")


class WorkloadSpec:
    """One packet source aimed at a pod's ingress.

    ``rate_pps`` and ``load`` are mutually exclusive: ``load`` is a
    fraction of the target pod's nominal capacity, resolved at build
    time (so the same workload spec scales with the pod it drives).
    """

    KINDS = ("cbr", "microburst")

    __slots__ = (
        "kind", "flows", "tenants", "rate_pps", "load", "size", "stream",
        "population", "zipf_exponent", "burst_factor", "burst_duration_ns",
        "burst_period_ns",
    )

    def __init__(
        self,
        kind="cbr",
        flows=1000,
        tenants=50,
        rate_pps=None,
        load=None,
        size=256,
        stream="traffic",
        population="uniform",
        zipf_exponent=1.05,
        burst_factor=6.0,
        burst_duration_ns=None,
        burst_period_ns=None,
    ):
        _require(kind in self.KINDS, f"unknown workload kind {kind!r}")
        _require(population in ("uniform", "zipf"),
                 f"unknown population {population!r}")
        _require((rate_pps is None) != (load is None),
                 "exactly one of rate_pps/load must be set")
        self.kind = kind
        self.flows = flows
        self.tenants = tenants
        self.rate_pps = rate_pps
        self.load = load
        self.size = size
        self.stream = stream
        self.population = population
        self.zipf_exponent = zipf_exponent
        self.burst_factor = burst_factor
        self.burst_duration_ns = burst_duration_ns
        self.burst_period_ns = burst_period_ns

    def to_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


class PodSpec:
    """One GW pod, described with scalars only.

    ``per_core_pps`` selects a synthetic service calibrated to that
    per-core rate (see :func:`repro.scenarios.scaled_service`); when ``None``
    the named paper ``service`` is used instead.

    ``limiter_stage1_pps``/``limiter_stage2_pps`` declare the two-stage
    tenant rate limiter by its per-entry rates; the live
    ``TwoStageRateLimiter`` (with its seeded sampler stream) is
    constructed at build time, so limiter-bearing scenarios stay plain
    data and shard cleanly.
    """

    __slots__ = (
        "name", "data_cores", "ctrl_cores", "mode", "service",
        "per_core_pps", "lookups", "reorder_queues", "rx_capacity",
        "drop_flag_enabled", "acl_drop_probability",
        "silent_drop_probability", "numa_node", "memory_node",
        "limiter_stage1_pps", "limiter_stage2_pps",
    )

    def __init__(
        self,
        name="pod",
        data_cores=4,
        ctrl_cores=2,
        mode="plb",
        service="VPC-Internet",
        per_core_pps=None,
        lookups=4,
        reorder_queues=None,
        rx_capacity=1024,
        drop_flag_enabled=True,
        acl_drop_probability=0.0,
        silent_drop_probability=0.0,
        numa_node=None,
        memory_node=None,
        limiter_stage1_pps=None,
        limiter_stage2_pps=None,
    ):
        _require(data_cores >= 1, "a pod needs at least one data core")
        self.name = name
        self.data_cores = data_cores
        self.ctrl_cores = ctrl_cores
        self.mode = mode
        self.service = service
        self.per_core_pps = per_core_pps
        self.lookups = lookups
        self.reorder_queues = reorder_queues
        self.rx_capacity = rx_capacity
        self.drop_flag_enabled = drop_flag_enabled
        self.acl_drop_probability = acl_drop_probability
        self.silent_drop_probability = silent_drop_probability
        self.numa_node = numa_node
        self.memory_node = memory_node
        self.limiter_stage1_pps = limiter_stage1_pps
        self.limiter_stage2_pps = limiter_stage2_pps

    def to_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


class MigrationSpec:
    """A planned live migration of one pod, described with scalars only.

    The live :class:`~repro.controlplane.migration.MigrationController`
    is constructed at build time (the same discipline as the limiter
    fields on :class:`PodSpec`), so migration-bearing scenarios remain
    plain data and shard cleanly across the fleet.

    Parameters:
        pod: name of the pod to migrate (must exist in the spec).
        server: for topology specs, the name of the server hosting the
            pod.  Optional (the pod name alone is unambiguous -- pod
            names are unique across the AZ), but when set it must match
            the server that actually hosts the pod, so an operator
            playbook that names both cannot silently act on a stale
            placement.  Must be ``None`` on single-server specs.
        start_ns: sim time at which the controller begins the drain.
        target_numa_node / target_memory_node: placement for the restored
            pod; ``None`` lets the server pick (first node with room --
            typically the original placement, i.e. an in-place restart).
        poll_ns: drain-poll interval (how often quiescence is checked).
        freeze_ns: fixed checkpoint cost once the pod is quiescent.
        per_kib_ns: additional freeze cost per KiB of serialized
            snapshot (models state-transfer bandwidth).
        restore_ns: cost of rebuilding the pod from the snapshot.
        route_update_ns: route-propagation delay before traffic is
            released to the restored pod.
        flush_rate_pps: pace at which buffered packets are released to
            the restored pod (the upstream buffer drains at line rate,
            not in one burst).  ``None`` releases the whole buffer in a
            single event -- fine for idle pods, but a large burst can
            exceed the reorder timeout window and leave as best-effort.
            Set it at or below the pod's capacity to keep the
            zero-reordering guarantee under load.
    """

    __slots__ = (
        "pod", "start_ns", "target_numa_node", "target_memory_node",
        "poll_ns", "freeze_ns", "per_kib_ns", "restore_ns",
        "route_update_ns", "flush_rate_pps", "server",
    )

    def __init__(
        self,
        pod,
        start_ns,
        target_numa_node=None,
        target_memory_node=None,
        poll_ns=50_000,
        freeze_ns=0,
        per_kib_ns=0,
        restore_ns=0,
        route_update_ns=0,
        flush_rate_pps=None,
        server=None,
    ):
        _require(bool(pod), "a migration needs a pod name")
        _require(start_ns >= 0, "migration start_ns must be >= 0")
        _require(poll_ns > 0, "migration poll_ns must be > 0")
        _require(
            flush_rate_pps is None or flush_rate_pps > 0,
            "migration flush_rate_pps must be > 0 when set",
        )
        self.pod = pod
        self.start_ns = start_ns
        self.target_numa_node = target_numa_node
        self.target_memory_node = target_memory_node
        self.poll_ns = poll_ns
        self.freeze_ns = freeze_ns
        self.per_kib_ns = per_kib_ns
        self.restore_ns = restore_ns
        self.route_update_ns = route_update_ns
        self.flush_rate_pps = flush_rate_pps
        self.server = server

    def to_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


class ServerSpec:
    """One gateway server of an AZ topology, described with scalars only.

    Groups the :class:`PodSpec` deployments the server hosts; NUMA
    placement stays a per-pod concern (``PodSpec.numa_node`` /
    ``memory_node``), exactly as on single-server specs.  Pod names must
    be unique across the whole AZ -- the uplink addresses pods by name.
    """

    __slots__ = ("name", "pods")

    def __init__(self, name, pods=()):
        _require(bool(name), "a server needs a name")
        pods = tuple(pods)
        _require(bool(pods), f"server {name!r} needs at least one pod")
        seen = set()
        for pod in pods:
            _require(pod.name not in seen, f"duplicate pod name {pod.name!r}")
            seen.add(pod.name)
        self.name = name
        self.pods = pods

    def to_dict(self):
        return {"name": self.name, "pods": [pod.to_dict() for pod in self.pods]}

    @classmethod
    def from_dict(cls, data):
        return cls(
            name=data["name"],
            pods=tuple(PodSpec.from_dict(pod) for pod in data["pods"]),
        )


class EcmpSpec:
    """The AZ uplink switch's ECMP behaviour, described with scalars only.

    Parameters:
        hash_seed: seed for the uplink's 5-tuple CRC hash (the same
            seeded-hash family :mod:`repro.packet.hashing` gives the
            limiter and the PLB order-queue selector, so uplink spraying
            is uncorrelated with both).
        pod_hash_seed: seed for the second-level per-server pod pick on
            servers hosting more than one pod.
        pin_flows: when True (default) the uplink pins each flow to the
            server its first packet hashed to, so a flow's server never
            changes for its lifetime -- the cross-server session-affinity
            invariant that makes per-flow ordering across the AZ trivial.
    """

    __slots__ = ("hash_seed", "pod_hash_seed", "pin_flows")

    def __init__(self, hash_seed=101, pod_hash_seed=211, pin_flows=True):
        self.hash_seed = hash_seed
        self.pod_hash_seed = pod_hash_seed
        self.pin_flows = pin_flows

    def to_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


class DpuTierSpec:
    """The cheap per-server "DPU" pre-classifier tier, scalars only.

    Hot tenants are promoted into the DPU's fast table by the hitter
    machinery (:class:`~repro.core.hitters.SpaceSavingSketch` ranked per
    epoch); promoted traffic is forwarded at ``fast_latency_ns`` without
    ever touching the server's NIC/FPGA+CPU pipeline, and tenants quiet
    for ``demote_after_epochs`` epochs fall back to the slow path.

    Parameters:
        table_capacity: fast-table entries per server DPU.
        threshold_pps: observed per-tenant rate above which a tenant is
            promoted.
        epoch_ns: detection epoch; the sketch resets every epoch.
        demote_after_epochs: quiet epochs before a promoted tenant is
            demoted.
        fast_latency_ns: fixed DPU forwarding latency for fast-path hits.
        sketch_capacity: tracked tenants in the space-saving sketch.
    """

    __slots__ = (
        "table_capacity", "threshold_pps", "epoch_ns",
        "demote_after_epochs", "fast_latency_ns", "sketch_capacity",
    )

    def __init__(
        self,
        table_capacity=256,
        threshold_pps=5_000,
        epoch_ns=10_000_000,
        demote_after_epochs=2,
        fast_latency_ns=2_000,
        sketch_capacity=1024,
    ):
        _require(table_capacity > 0, "dpu table_capacity must be > 0")
        _require(threshold_pps > 0, "dpu threshold_pps must be > 0")
        _require(epoch_ns > 0, "dpu epoch_ns must be > 0")
        _require(demote_after_epochs > 0, "dpu demote_after_epochs must be > 0")
        _require(fast_latency_ns >= 0, "dpu fast_latency_ns must be >= 0")
        _require(sketch_capacity > 0, "dpu sketch_capacity must be > 0")
        self.table_capacity = table_capacity
        self.threshold_pps = threshold_pps
        self.epoch_ns = epoch_ns
        self.demote_after_epochs = demote_after_epochs
        self.fast_latency_ns = fast_latency_ns
        self.sketch_capacity = sketch_capacity

    def to_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


class ScenarioSpec:
    """A named, seeded, fully-declarative simulation run.

    Parameters:
        name: scenario identity (report key, rng namespace for extras).
        pods: tuple of :class:`PodSpec` (may be empty for control-plane
            scenarios that build no gateway server).
        workload: optional :class:`WorkloadSpec` aimed at the first pod;
            scenarios with bespoke traffic leave it ``None`` and attach
            sources through the built handle.
        duration_ns: how long :meth:`RunHandle.run` advances the clock.
        seed: the experiment seed every rng stream derives from.
        migration: optional :class:`MigrationSpec`; build time attaches a
            :class:`~repro.controlplane.migration.MigrationController`
            that executes it as clock-driven events.
        checkpoint_every_ns: optional periodic ``SimCheckpoint`` cadence;
            build time attaches a :class:`~repro.controlplane.snapshot.
            SimCheckpointer` that freezes the whole deployment every
            that many sim-ns (at quiescent instants), giving long shards
            a restart point.  Mutually exclusive with ``migration`` --
            a mid-migration deployment is not quiescent-restorable.
        timeseries_every_ns: optional windowed-telemetry cadence; build
            time attaches a :class:`~repro.telemetry.TimeSeriesRecorder`
            that samples every pod at that window and the run report
            grows a ``"timeseries"`` section.
        servers: tuple of :class:`ServerSpec` -- an AZ of gateway
            servers behind an ECMP uplink.  Mutually exclusive with
            flat ``pods`` (a spec is either single-server, with pods at
            the top level, or a topology).
        ecmp: optional :class:`EcmpSpec` tuning the uplink switch;
            ``None`` with ``servers`` set means defaults.
        dpu_tier: optional :class:`DpuTierSpec` arming the per-server
            DPU pre-classifier in front of each NIC/FPGA+CPU pipeline.

    Feature pairs that cannot be combined live in the declarative
    :data:`INCOMPATIBLE_FEATURES` table, not in ad-hoc guards here.
    """

    def __init__(self, name, pods=(), workload=None, duration_ns=0, seed=42,
                 migration=None, checkpoint_every_ns=None,
                 timeseries_every_ns=None, servers=(), ecmp=None,
                 dpu_tier=None):
        _require(bool(name), "a scenario needs a name")
        pods = tuple(pods)
        servers = tuple(servers)
        _require(
            not (pods and servers),
            "a scenario declares flat pods or a server topology, not both",
        )
        _require(
            servers or (ecmp is None and dpu_tier is None),
            "ecmp/dpu_tier require a server topology (set servers)",
        )
        seen_servers = set()
        for server in servers:
            _require(
                server.name not in seen_servers,
                f"duplicate server name {server.name!r}",
            )
            seen_servers.add(server.name)
        pod_homes = {}
        seen = set()
        for server_name, pod in (
            [(None, pod) for pod in pods]
            + [(server.name, pod) for server in servers for pod in server.pods]
        ):
            _require(pod.name not in seen, f"duplicate pod name {pod.name!r}")
            seen.add(pod.name)
            pod_homes[pod.name] = server_name
        if migration is not None:
            _require(
                migration.pod in seen,
                f"migration targets unknown pod {migration.pod!r}",
            )
            if migration.server is not None:
                _require(
                    bool(servers),
                    f"migration names server {migration.server!r} but the "
                    f"spec has no topology",
                )
                home = pod_homes[migration.pod]
                _require(
                    migration.server == home,
                    f"migration targets pod {migration.pod!r} on server "
                    f"{migration.server!r}, but it lives on {home!r}",
                )
        if checkpoint_every_ns is not None:
            _require(
                checkpoint_every_ns > 0,
                "checkpoint_every_ns must be > 0 when set",
            )
        if timeseries_every_ns is not None:
            _require(
                timeseries_every_ns > 0,
                "timeseries_every_ns must be > 0 when set",
            )
        self.name = name
        self.pods = pods
        self.workload = workload
        self.duration_ns = duration_ns
        self.seed = seed
        self.migration = migration
        self.checkpoint_every_ns = checkpoint_every_ns
        self.timeseries_every_ns = timeseries_every_ns
        self.servers = servers
        self.ecmp = ecmp
        self.dpu_tier = dpu_tier
        _check_feature_compatibility(self)

    @property
    def all_pods(self):
        """Every :class:`PodSpec`, across flat pods and all servers."""
        if self.servers:
            return tuple(
                pod for server in self.servers for pod in server.pods
            )
        return self.pods

    def to_dict(self):
        data = {
            "name": self.name,
            "pods": [pod.to_dict() for pod in self.pods],
            "workload": None if self.workload is None else self.workload.to_dict(),
            "duration_ns": self.duration_ns,
            "seed": self.seed,
            "migration": (
                None if self.migration is None else self.migration.to_dict()
            ),
            "checkpoint_every_ns": self.checkpoint_every_ns,
            "timeseries_every_ns": self.timeseries_every_ns,
        }
        # Topology keys appear only on topology specs: single-server
        # wire dicts (and their spec fingerprints, which key the durable
        # run store's resume cache) stay byte-for-byte what they were
        # before the topology fields existed.
        if self.servers:
            data["servers"] = [server.to_dict() for server in self.servers]
            data["ecmp"] = None if self.ecmp is None else self.ecmp.to_dict()
            data["dpu_tier"] = (
                None if self.dpu_tier is None else self.dpu_tier.to_dict()
            )
        return data

    @classmethod
    def from_dict(cls, data):
        return cls(
            name=data["name"],
            pods=tuple(PodSpec.from_dict(pod) for pod in data["pods"]),
            workload=(
                None if data.get("workload") is None
                else WorkloadSpec.from_dict(data["workload"])
            ),
            duration_ns=data["duration_ns"],
            seed=data["seed"],
            migration=(
                None if data.get("migration") is None
                else MigrationSpec.from_dict(data["migration"])
            ),
            # .get: specs serialized before these fields existed load fine.
            checkpoint_every_ns=data.get("checkpoint_every_ns"),
            timeseries_every_ns=data.get("timeseries_every_ns"),
            servers=tuple(
                ServerSpec.from_dict(server)
                for server in data.get("servers") or ()
            ),
            ecmp=(
                None if data.get("ecmp") is None
                else EcmpSpec.from_dict(data["ecmp"])
            ),
            dpu_tier=(
                None if data.get("dpu_tier") is None
                else DpuTierSpec.from_dict(data["dpu_tier"])
            ),
        )

    def with_overrides(self, seed=None, duration_ns=None, overrides=None):
        """A copy with ``seed``/``duration_ns`` and dotted field overrides.

        ``overrides`` maps dotted paths into the serialized form to new
        values, e.g. ``{"workload.tenants": 100_000}`` or
        ``{"pods.0.data_cores": 8}``.
        """
        data = self.to_dict()
        if seed is not None:
            data["seed"] = seed
        if duration_ns is not None:
            data["duration_ns"] = duration_ns
        for path, value in (overrides or {}).items():
            apply_override(data, path, value)
        return ScenarioSpec.from_dict(data)

    def __repr__(self):
        return (
            f"<ScenarioSpec {self.name!r}: {len(self.pods)} pod(s), "
            f"{self.duration_ns} ns, seed {self.seed}>"
        )


def _override_step(node, part, path):
    """Resolve one path component, or raise the uniform KeyError."""
    missing = KeyError(f"override path {path!r} does not exist in the spec")
    if isinstance(node, list):
        try:
            index = int(part)
        except ValueError:
            raise missing from None
        if not -len(node) <= index < len(node):
            raise missing
        return node, index
    if not isinstance(node, dict) or part not in node:
        raise missing
    return node, part


def apply_override(data, path, value):
    """Set ``path`` (dotted, list indices allowed) in a spec dict.

    Every malformed path -- a missing dict key, a non-integer or
    out-of-range list index, or a path that descends through a scalar --
    raises the same ``KeyError`` naming the full path.
    """
    parts = path.split(".")
    node = data
    for part in parts[:-1]:
        node, key = _override_step(node, part, path)
        node = node[key]
    node, key = _override_step(node, parts[-1], path)
    node[key] = value
