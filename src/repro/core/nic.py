"""The assembled FPGA NIC pipeline for one GW pod (Fig. 1, Fig. 3).

Ingress: ``pkt_dir`` classification -> overload rate limiting -> PLB spray
(or RSS pinning) -> DMA to the pod's RX data queues.

Egress: CPU completion -> DMA back -> legal check -> reorder check ->
deparser -> wire.  Explicit CPU drops take the active-drop-flag shortcut
so reorder resources are released immediately.

Per-module latencies come from Tab. 4 via
:class:`~repro.core.resources.NicLatencyModel`.
"""

from repro.analysis.sanitizer import get_sanitizer
from repro.core.meta import MetaPlacement, placement_throughput_factor
from repro.core.offload import FAST_PATH_LATENCY_NS
from repro.core.pktdir import DeliveryPath, PktDir
from repro.core.plb.dispatch import PlbDispatcher
from repro.core.plb.reorder import ReorderEngine, ReorderQueueConfig, TxOutcome
from repro.core.priority import PriorityQueueManager
from repro.core.resources import NicLatencyModel
from repro.core.rss import RssDispatcher
from repro.cpu.core import Verdict
from repro.metrics.counters import CounterSet


class NicPipelineConfig:
    """Configuration for one pod's slice of the NIC pipeline."""

    def __init__(
        self,
        mode="plb",
        reorder=None,
        rate_limiter=None,
        drop_flag_enabled=True,
        header_only=False,
        meta_placement=MetaPlacement.TAIL,
        latency_model=None,
        session_offload=None,
        pcie_link=None,
    ):
        if mode not in ("plb", "rss"):
            raise ValueError(f"mode must be 'plb' or 'rss': {mode!r}")
        self.mode = mode
        self.reorder = reorder if reorder is not None else ReorderQueueConfig()
        self.rate_limiter = rate_limiter
        self.drop_flag_enabled = drop_flag_enabled
        self.header_only = header_only
        self.meta_placement = meta_placement
        self.latency_model = (
            latency_model if latency_model is not None else NicLatencyModel()
        )
        # Optional FpgaSessionOffload (§7 roadmap): established sessions
        # are forwarded entirely on the FPGA fast path.
        self.session_offload = session_offload
        # Optional PcieLinkModel: accounts FPGA<->CPU bytes, honouring
        # header-payload-split mode (appendix A).
        self.pcie_link = pcie_link


class NicPipeline:
    """One GW pod's NIC data path.

    Parameters:
        sim: the simulator.
        cores: the pod's data cores (``CpuCore``), RX-queue order.
        config: a :class:`NicPipelineConfig`.
        egress_fn: called as ``egress_fn(packet, outcome)`` when a packet
            hits the wire (outcome is a
            :class:`~repro.core.plb.reorder.TxOutcome` or ``"rss"``).
        protocol_fn: handler for protocol packets delivered via the
            priority path (defaults to a no-op).

    The pod's cores must have been constructed with this pipeline's
    :meth:`on_cpu_completion` as their completion callback (the
    :mod:`~repro.core.gateway` runtime wires this up).
    """

    def __init__(self, sim, cores, config, egress_fn, protocol_fn=None):
        self.sim = sim
        self.cores = list(cores)
        self.config = config
        self.egress_fn = egress_fn
        self.counters = CounterSet()
        self.pkt_dir = PktDir(
            DeliveryPath.PLB if config.mode == "plb" else DeliveryPath.RSS
        )
        self.latency = config.latency_model
        self.reorder = ReorderEngine(sim, config.reorder, self._on_reorder_transmit)
        self.plb = PlbDispatcher(self.cores, self.reorder, lambda: sim.now)
        self.rss = RssDispatcher(self.cores)
        self.rate_limiter = config.rate_limiter
        self.session_offload = config.session_offload
        self.pcie_link = config.pcie_link
        self.priority = PriorityQueueManager(
            sim, protocol_fn if protocol_fn is not None else lambda packet: None
        )
        # Meta placement only affects CPU-side throughput; model it as a
        # service-time inflation factor applied by the gateway runtime.
        self.cpu_throughput_factor = placement_throughput_factor(config.meta_placement)
        self._fpga_stalled = False
        self._heartbeat = 0
        # Sanitizer ledger: every packet entering ingress() must settle at
        # most once (transmitted, dropped, or handed to the priority path).
        self._sanitizer = get_sanitizer()
        # Deliberately not snapshot data: carrying the ledger would make
        # snapshot bytes depend on whether the sanitizer is installed
        # (see the note in restore()); a fresh pipeline's ledger starts
        # balanced and conserves over post-restore traffic on its own.
        self._san_injected = 0  # lint: disable=SNAP001(sanitizer ledger is instrumentation; snapshot bytes must not depend on sanitizer presence)
        self._san_settled = 0  # lint: disable=SNAP001(sanitizer ledger is instrumentation; snapshot bytes must not depend on sanitizer presence)
        self._rx_latency_ns = self.latency.rx_ns()
        self._tx_dma_ns = self.latency.module_ns("dma", "tx")
        self._tx_post_reorder_ns = self.latency.module_ns(
            "plb", "tx"
        ) + self.latency.module_ns("basic_pipeline", "tx")
        # Hot-path bindings: these objects never change over the pipeline's
        # lifetime.
        self._schedule = sim.schedule
        self._incr = self.counters.incr
        self._classify = self.pkt_dir.classify
        self._plb_dispatch = self.plb.dispatch
        self._rss_dispatch = self.rss.dispatch

    # ------------------------------------------------------------------
    # Sanitizer ledger
    # ------------------------------------------------------------------

    def _san_settle(self, packet, stage):
        """One packet reached a terminal stage; the ledger must balance."""
        self._san_settled += 1
        self._sanitizer.ensure(
            self._san_settled <= self._san_injected, "packet-conservation",
            f"settled {self._san_settled} packets but only "
            f"{self._san_injected} entered ingress (stage {stage!r})",
            uid=packet.uid, stage=stage,
        )

    def sanitizer_in_flight(self):
        """Packets injected but not yet settled (>= 0 while conserving)."""
        return self._san_injected - self._san_settled

    #: Counters that settle a packet's fate.  Every packet counted by
    #: ``rx_packets`` ends up in exactly one of these, so
    #: ``rx_packets - sum(terminal)`` is the number still in flight.
    #: Deliberately absent: ``dispatched`` and ``offload_fast_path`` (the
    #: packet is still moving; it settles at ``tx_packets``),
    #: ``reorder_drop_flag`` (already settled at ``cpu_acl_drops``; the
    #: flag release only reclaims reorder resources) and
    #: ``pod_crashed_drops`` (counted *instead of* ``rx_packets``, not
    #: after it).
    TERMINAL_COUNTERS = (
        "tx_packets",
        "fpga_stall_drops",
        "rx_priority",
        "rate_limited_drops",
        "reorder_fifo_drops",
        "rx_queue_drops",
        "cpu_silent_drops",
        "cpu_acl_drops",
        "reorder_payload_gone",
    )

    def in_flight(self):
        """Data-plane packets inside the pipeline right now.

        Unlike :meth:`sanitizer_in_flight` this works without the
        sanitizer installed: it is pure counter arithmetic, usable by the
        control plane to decide when a draining pod has gone quiet.
        """
        counters = self.counters
        settled = sum(counters.get(name) for name in self.TERMINAL_COUNTERS)
        return counters.get("rx_packets") - settled

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------

    def ingress(self, packet):
        """A packet arrives from the wire at the current sim time."""
        sanitizer = self._sanitizer
        incr = self._incr
        packet.arrival_ns = self.sim._now
        incr("rx_packets")
        if sanitizer is not None:
            self._san_injected += 1
        if self._fpga_stalled:
            # A stalled pipeline makes no forward progress; the wire keeps
            # delivering and the packets are simply lost.
            packet.drop_reason = "fpga_stall"
            incr("fpga_stall_drops")
            if sanitizer is not None:
                self._san_settle(packet, "fpga_stall_drop")
            return
        path, header_only = self._classify(packet)

        if path is DeliveryPath.PRIORITY:
            # Priority path skips the rate limiter and PLB entirely.
            self._schedule(self._rx_latency_ns, self.priority.enqueue, packet)
            incr("rx_priority")
            if sanitizer is not None:
                self._san_settle(packet, "priority_handoff")
            return

        if self.rate_limiter is not None:
            decision = self.rate_limiter.admit(packet.vni, self.sim._now)
            if not decision.allowed:
                packet.drop_reason = f"rate_limit_{decision.value}"
                incr("rate_limited_drops")
                if sanitizer is not None:
                    self._san_settle(packet, "rate_limited_drop")
                return

        if self.session_offload is not None and self.session_offload.lookup(
            packet.flow
        ):
            # FPGA fast path: established session, CPU never sees it.
            incr("offload_fast_path")
            self._schedule(
                FAST_PATH_LATENCY_NS, self._transmit, packet, "fpga_fast_path"
            )
            return

        if path is DeliveryPath.PLB:
            core = self._plb_dispatch(
                packet, header_only=header_only or self.config.header_only
            )
            if core is None:
                incr("reorder_fifo_drops")
                if sanitizer is not None:
                    self._san_settle(packet, "ingress_drop")
                return
        else:
            core = self._rss_dispatch(packet)
        incr("dispatched")
        self._schedule(self._rx_latency_ns, self._deliver_to_core, packet, core)

    def _deliver_to_core(self, packet, core):
        if self.pcie_link is not None:
            # RX crossing of the FPGA->CPU DMA.
            self.pcie_link.record(packet.size, split=packet.header_only)
        if not core.enqueue(packet):
            # Silent driver loss: the NIC is never told.  For PLB packets
            # this leaves a hole in the reorder FIFO -> HOL until timeout.
            packet.drop_reason = "rx_queue_overflow"
            self._incr("rx_queue_drops")
            if self._sanitizer is not None:
                self._san_settle(packet, "rx_queue_overflow")

    # ------------------------------------------------------------------
    # Egress
    # ------------------------------------------------------------------

    def on_cpu_completion(self, packet, verdict, core):
        """Wired as every data core's completion callback."""
        if verdict is not Verdict.FORWARD:
            if verdict is Verdict.DROP_SILENT:
                self._incr("cpu_silent_drops")
                if self._sanitizer is not None:
                    self._san_settle(packet, "cpu_silent_drop")
                return
            self._incr("cpu_acl_drops")
            if self._sanitizer is not None:
                # Terminal here: the later drop-flag release only reclaims
                # reorder resources, it must not settle the packet again.
                self._san_settle(packet, "cpu_acl_drop")
            if packet.meta is not None and self.config.drop_flag_enabled:
                # Active drop flag: notify the NIC so reorder resources are
                # released without waiting for the 100 us timeout.
                self._schedule(self._tx_dma_ns, self.reorder.notify_drop, packet)
            # Without the flag (or under RSS) the drop is invisible to the
            # NIC -- PLB pays for it with head-of-line blocking.
            return
        if self.session_offload is not None:
            # Slow path forwarded a packet: maybe install the session.
            self.session_offload.note_cpu_packet(packet.flow)
        if self.pcie_link is not None:
            # TX crossing of the CPU->FPGA DMA.
            self.pcie_link.record(packet.size, split=packet.header_only)
        if packet.meta is not None:
            self._schedule(self._tx_dma_ns, self.reorder.writeback, packet)
        else:
            # RSS path: no reordering, straight to the deparser.
            self._schedule(
                self._tx_dma_ns + self._tx_post_reorder_ns, self._transmit, packet, "rss"
            )

    def _on_reorder_transmit(self, packet, outcome):
        if outcome is TxOutcome.RELEASED_DROP_FLAG or outcome is TxOutcome.DROPPED_PAYLOAD_GONE:
            self._incr(f"reorder_{outcome.value}")
            if (
                self._sanitizer is not None
                and outcome is TxOutcome.DROPPED_PAYLOAD_GONE
            ):
                # Drop-flag releases settled at the CPU ACL drop; a
                # payload-gone drop is this packet's first terminal stage.
                self._san_settle(packet, "payload_gone_drop")
            return
        self._schedule(self._tx_post_reorder_ns, self._transmit, packet, outcome)

    def _transmit(self, packet, outcome):
        if self._sanitizer is not None:
            self._sanitizer.ensure(
                packet.departure_ns is None, "packet-conservation",
                f"packet transmitted twice (first at t={packet.departure_ns})",
                uid=packet.uid, outcome=str(outcome),
            )
            self._sanitizer.ensure(
                packet.drop_reason is None, "packet-conservation",
                f"dropped packet leaked to the wire "
                f"(drop_reason={packet.drop_reason!r})",
                uid=packet.uid, outcome=str(outcome),
            )
            self._san_settle(packet, "tx")
        packet.departure_ns = self.sim._now
        self._incr("tx_packets")
        self.egress_fn(packet, outcome)

    # ------------------------------------------------------------------
    # Checkpoint / restore (live migration, repro.controlplane)
    # ------------------------------------------------------------------

    def checkpoint(self):
        """Plain-data snapshot of the pipeline's frozen state.

        Preconditions: the pod must be quiescent -- the reorder engine
        refuses to checkpoint non-drained queues, and the control plane
        is responsible for having emptied the core RX rings first.
        """
        return {
            "mode": self.config.mode,
            "counters": self.counters.checkpoint(),
            "reorder": self.reorder.checkpoint(),
            "dispatch": self.plb.checkpoint(),
            "rss": self.rss.checkpoint(),
            "limiter": (
                None if self.rate_limiter is None else self.rate_limiter.checkpoint()
            ),
            "offload": (
                None
                if self.session_offload is None
                else self.session_offload.checkpoint()
            ),
            "pkt_dir": self.pkt_dir.checkpoint(),
            "priority": self.priority.checkpoint(),
            "fpga_stalled": self._fpga_stalled,
            "heartbeat": self._heartbeat,
        }

    def restore(self, snapshot):
        """Reinstate a :meth:`checkpoint` into this (freshly built) pipeline."""
        if snapshot["mode"] != self.config.mode:
            self.config.mode = snapshot["mode"]
            self.pkt_dir.set_default_data_path(
                DeliveryPath.PLB if snapshot["mode"] == "plb" else DeliveryPath.RSS
            )
        self.counters.restore(snapshot["counters"])
        self.reorder.restore(snapshot["reorder"])
        self.plb.restore(snapshot["dispatch"])
        self.rss.restore(snapshot["rss"])
        if self.rate_limiter is not None and snapshot["limiter"] is not None:
            self.rate_limiter.restore(snapshot["limiter"])
        if self.session_offload is not None and snapshot["offload"] is not None:
            self.session_offload.restore(snapshot["offload"])
        self.pkt_dir.restore(snapshot["pkt_dir"])
        self.priority.restore(snapshot["priority"])
        self._fpga_stalled = snapshot["fpga_stalled"]
        self._heartbeat = snapshot["heartbeat"]
        # The sanitizer's conservation ledger is deliberately NOT part of
        # the snapshot: it is instrumentation, and carrying it would make
        # snapshot bytes (and thus freeze cost) depend on whether the
        # sanitizer is installed.  The fresh pipeline's ledger restarts
        # at zero and balances over post-restore traffic on its own.

    # ------------------------------------------------------------------
    # Control operations
    # ------------------------------------------------------------------

    def fallback_to_rss(self):
        """§4.1 remediation 5: dynamically switch the pod from PLB to RSS."""
        self.config.mode = "rss"
        self.pkt_dir.set_default_data_path(DeliveryPath.RSS)
        self.counters.incr("plb_fallbacks")

    def restore_plb(self):
        self.config.mode = "plb"
        self.pkt_dir.set_default_data_path(DeliveryPath.PLB)

    # ------------------------------------------------------------------
    # FPGA fault hooks
    # ------------------------------------------------------------------

    @property
    def fpga_stalled(self):
        return self._fpga_stalled

    def set_fpga_stalled(self, stalled=True):
        """Fault injection: freeze (or unfreeze) the FPGA pipeline."""
        self._fpga_stalled = bool(stalled)

    def heartbeat(self):
        """Liveness beacon polled by the FPGA watchdog.

        A healthy pipeline advances the counter on every poll; a stalled
        one returns the same value, which is how the watchdog detects it.
        """
        if not self._fpga_stalled:
            self._heartbeat += 1
        return self._heartbeat

    def recover_fpga(self):
        """Watchdog remediation: unstall and reset the pipeline.

        The reset drops all in-flight reorder state (§4.1: the watchdog
        reset is a full pipeline reload); in-flight packets surface later
        as stale-epoch writebacks and leave best-effort.  Returns the
        number of in-flight packets whose reorder state was dropped.
        """
        self._fpga_stalled = False
        dropped = self.reorder.reset()
        self.counters.incr("fpga_resets")
        self.counters.incr("fpga_reset_inflight_drops", dropped)
        return dropped
