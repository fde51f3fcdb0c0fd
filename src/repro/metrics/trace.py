"""Per-packet timeline tracing.

Operations tooling: attach a :class:`PacketTracer` to a pod and every
traced packet records its stage timestamps (ingress, CPU start/finish,
wire) through the pod's observer taps.  Used by the latency-breakdown
tests and handy when debugging HOL incidents -- the same telemetry the
paper's team leaned on when chasing the millisecond code branches.
"""

from functools import partial


class PacketTrace:
    """One packet's recorded (stage, timestamp) pairs in order."""

    __slots__ = ("uid", "events")

    def __init__(self, uid):
        self.uid = uid
        self.events = []

    def mark(self, stage, timestamp_ns):
        self.events.append((stage, timestamp_ns))

    def stage_time(self, stage):
        """First timestamp recorded for ``stage``, or None."""
        for name, timestamp in self.events:
            if name == stage:
                return timestamp
        return None

    def span_ns(self, first_stage, second_stage):
        """Time between two stages, or None if either is missing."""
        start = self.stage_time(first_stage)
        end = self.stage_time(second_stage)
        if start is None or end is None:
            return None
        return end - start

    @property
    def stages(self):
        return [name for name, _ in self.events]

    def __repr__(self):
        return f"<PacketTrace uid={self.uid} {self.stages}>"


class PacketTracer:
    """Records packet timelines through a GW pod's observer taps.

    Parameters:
        pod: a :class:`~repro.core.gateway.GwPodRuntime`.
        sample_every: trace every Nth ingress packet (1 = all).
        max_traces: stop collecting after this many packets.
    """

    def __init__(self, pod, sample_every=1, max_traces=10_000):
        self.pod = pod
        self.sample_every = sample_every
        self.max_traces = max_traces
        self.traces = {}
        self._seen = 0
        self._taps = [("ingress", self._on_ingress)] + [
            (stage, partial(self._mark, stage))
            for stage in ("cpu_start", "cpu_done", "egress")
        ]
        for stage, tap in self._taps:
            pod.add_tap(stage, tap)

    def uninstall(self):
        """Detach from the pod, leaving collected traces intact.

        Idempotent.  A migration hands the taps to the rebuilt pod by
        sharing its tap lists, so this detaches from that pod too.
        """
        for stage, tap in self._taps:
            self.pod.remove_tap(stage, tap)
        self._taps = ()

    def _on_ingress(self, packet):
        self._seen += 1
        # (seen - 1) % N: the first packet of every stride is traced, so
        # a run shorter than N packets still collects traces.
        if (
            len(self.traces) < self.max_traces
            and (self._seen - 1) % self.sample_every == 0
        ):
            trace = PacketTrace(packet.uid)
            trace.mark("ingress", self.pod.sim.now)
            self.traces[packet.uid] = trace

    def _mark(self, stage, packet, outcome=None):
        trace = self.traces.get(packet.uid)
        if trace is not None:
            trace.mark(stage, self.pod.sim.now)

    # -- analysis -----------------------------------------------------------

    def completed_traces(self):
        """Traces that reached the wire."""
        return [
            trace for trace in self.traces.values() if trace.stage_time("egress")
        ]

    def mean_span_ns(self, first_stage, second_stage):
        spans = [
            trace.span_ns(first_stage, second_stage)
            for trace in self.completed_traces()
        ]
        spans = [span for span in spans if span is not None]
        return sum(spans) / len(spans) if spans else None

    def breakdown(self):
        """Mean ns per pipeline segment across completed traces."""
        return {
            "nic_rx_and_queue": self.mean_span_ns("ingress", "cpu_start"),
            "cpu_service": self.mean_span_ns("cpu_start", "cpu_done"),
            "nic_tx_and_reorder": self.mean_span_ns("cpu_done", "egress"),
            "total": self.mean_span_ns("ingress", "egress"),
        }
