"""Tests for the packet tracer and incast workload."""

import json

import pytest

from repro.core.gateway import AlbatrossServer, PodConfig
from repro.metrics.trace import PacketTracer
from repro.sim import MS, RngRegistry, Simulator, US
from repro.workloads.generators import CbrSource, uniform_population
from repro.workloads.incast import IncastEvent, periodic_incast


def make_pod(data_cores=2, mode="plb"):
    sim = Simulator()
    rngs = RngRegistry(seed=37)
    server = AlbatrossServer(sim, rngs)
    pod = server.add_pod(PodConfig(name="gw", data_cores=data_cores, mode=mode))
    return sim, rngs, pod


class TestPacketTracer:
    def test_stages_recorded_in_order(self):
        sim, rngs, pod = make_pod()
        tracer = PacketTracer(pod)
        population = uniform_population(10)
        CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=50_000)
        sim.run_until(5 * MS)
        completed = tracer.completed_traces()
        assert len(completed) > 100
        for trace in completed[:20]:
            assert trace.stages == ["ingress", "cpu_start", "cpu_done", "egress"]
            times = [timestamp for _, timestamp in trace.events]
            assert times == sorted(times)

    def test_breakdown_matches_latency_model(self):
        sim, rngs, pod = make_pod()
        tracer = PacketTracer(pod)
        population = uniform_population(10)
        CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=50_000)
        sim.run_until(10 * MS)
        breakdown = tracer.breakdown()
        # Unloaded: RX segment == NIC RX latency (3.90 us), TX segment ==
        # DMA TX + PLB TX + deparser (4.17 us).
        assert breakdown["nic_rx_and_queue"] == pytest.approx(3.90 * US, abs=100)
        assert breakdown["nic_tx_and_reorder"] == pytest.approx(4.17 * US, abs=100)
        assert breakdown["cpu_service"] == pytest.approx(
            pod.chain.expected_service_ns(), rel=0.05
        )
        assert breakdown["total"] == pytest.approx(
            pod.latency_histogram.mean_ns, rel=0.02
        )

    def test_sampling(self):
        sim, rngs, pod = make_pod()
        tracer = PacketTracer(pod, sample_every=10)
        population = uniform_population(10)
        CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=50_000)
        sim.run_until(5 * MS)
        assert len(tracer.traces) == pytest.approx(
            pod.counters.get("rx_packets") / 10, abs=2
        )

    def test_sampling_traces_first_packet_of_each_stride(self):
        # Regression: `seen % N == 0` skipped the first N-1 packets, so a
        # short run with a sparse sampler traced nothing.  The first
        # packet of every stride must be traced.
        sim, rngs, pod = make_pod()
        tracer = PacketTracer(pod, sample_every=100)
        population = uniform_population(10)
        CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=50_000)
        # Long enough for a handful of packets, far fewer than 100.
        sim.run_until(200 * US)
        assert pod.counters.get("rx_packets") < 100
        assert len(tracer.traces) == 1

    def test_uninstall_restores_pipeline_hooks(self):
        # After uninstall the pod behaves exactly like one never traced:
        # it keeps forwarding, records nothing more and checkpoints to
        # the same bytes as an untraced twin fed the same traffic.
        sim, rngs, pod = make_pod()
        twin_sim, twin_rngs, twin = make_pod()
        tracer = PacketTracer(pod)
        population = uniform_population(10)
        sources = [
            CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=50_000),
            CbrSource(
                twin_sim, twin_rngs.stream("t"), twin.ingress, population,
                rate_pps=50_000,
            ),
        ]

        def run_both(until_ns):
            sim.run_until(until_ns)
            twin_sim.run_until(until_ns)

        run_both(1 * MS)
        collected = len(tracer.traces)
        assert collected > 0
        # Idempotent, and traces survive the uninstall.
        tracer.uninstall()
        tracer.uninstall()
        assert len(tracer.traces) == collected
        before = pod.transmitted()
        run_both(2 * MS)
        assert pod.transmitted() > before
        assert len(tracer.traces) == collected  # detached: nothing new recorded
        for source in sources:
            source.stop()
        run_both(3 * MS)
        assert pod.quiescent()
        assert json.dumps(pod.checkpoint()) == json.dumps(twin.checkpoint())

    def test_traced_pod_honours_crash(self):
        # Regression: the tracer repointed pod.ingress straight at the
        # NIC, so a crashed pod kept accepting traffic while traced.
        results = []
        for traced in (False, True):
            sim, rngs, pod = make_pod()
            tracer = PacketTracer(pod) if traced else None
            population = uniform_population(10)
            CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=50_000)
            sim.schedule_at(1 * MS, pod.crash)
            sim.run_until(3 * MS)
            results.append(
                (pod.counters.get("pod_crashed_drops"), pod.counters.get("rx_packets"))
            )
        assert results[0] == results[1]
        crashed_drops, received = results[1]
        assert crashed_drops > 0
        assert len(tracer.traces) == received  # only packets the live pod took

    def test_failed_core_stamps_no_cpu_start(self):
        # Regression: the tracer peeked the RX ring before the core
        # checked it was failed, stamping cpu_start on packets the core
        # never started; that stale stamp then won after restore().
        sim, rngs, pod = make_pod(data_cores=1, mode="rss")
        core = pod.cores[0]
        tracer = PacketTracer(pod)
        population = uniform_population(10)
        CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=50_000)
        sim.schedule_at(1 * MS, core.fail)
        sim.run_until(2 * MS)
        waiting = [
            trace for trace in tracer.traces.values()
            if trace.stage_time("cpu_done") is None
        ]
        assert not core.busy
        assert len(core.rx_queue) == 50
        assert len(waiting) >= 50
        assert all(trace.stage_time("cpu_start") is None for trace in waiting)
        core.restore()
        restored_at = sim.now
        sim.run_until(4 * MS)
        for trace in waiting:
            assert trace.stages.count("cpu_start") == 1
            assert trace.stage_time("cpu_start") >= restored_at

    def test_uninstall_mid_flight_keeps_pipeline_running(self):
        # Uninstalling while packets are in flight must not strand them:
        # the restored hooks carry the rest of the run.
        sim, rngs, pod = make_pod()
        tracer = PacketTracer(pod)
        population = uniform_population(10)
        CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=200_000)
        sim.run_until(2 * MS)
        tracer.uninstall()
        collected = len(tracer.traces)
        assert collected > 0
        before = pod.transmitted()
        sim.run_until(4 * MS)
        assert pod.transmitted() > before
        assert len(tracer.traces) == collected

    def test_max_traces_cap(self):
        sim, rngs, pod = make_pod()
        tracer = PacketTracer(pod, max_traces=50)
        population = uniform_population(10)
        CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=50_000)
        sim.run_until(5 * MS)
        assert len(tracer.traces) == 50


class TestIncast:
    def test_event_emits_during_window_only(self):
        sim = Simulator()
        rngs = RngRegistry(seed=41)
        received = []
        event = IncastEvent(
            sim,
            rngs.stream("incast"),
            lambda packet: received.append(sim.now),
            senders=16,
            per_sender_pps=10_000,
            start_ns=2 * MS,
            duration_ns=3 * MS,
        )
        sim.run_until(10 * MS)
        assert event.emitted == pytest.approx(16 * 10_000 * 0.003, rel=0.05)
        assert min(received) >= 2 * MS
        assert max(received) <= 5 * MS + 100

    def test_flows_share_destination(self):
        sim = Simulator()
        rngs = RngRegistry(seed=41)
        packets = []
        IncastEvent(
            sim, rngs.stream("incast"), packets.append,
            senders=8, per_sender_pps=50_000, start_ns=0, duration_ns=1 * MS,
        )
        sim.run_until(2 * MS)
        destinations = {packet.flow.dst_ip for packet in packets}
        sources = {packet.flow.src_ip for packet in packets}
        assert len(destinations) == 1
        assert len(sources) > 1

    def test_periodic_scheduler(self):
        sim = Simulator()
        rngs = RngRegistry(seed=41)
        events = periodic_incast(
            sim, rngs.stream("incast"), lambda packet: None,
            period_ns=10 * MS, horizon_ns=45 * MS,
            senders=4, per_sender_pps=1000, duration_ns=1 * MS,
        )
        assert len(events) == 4
        sim.run_until(50 * MS)
        assert all(event.emitted > 0 for event in events)

    def test_incast_spreads_under_plb(self):
        """The §3.1 motivation: PLB absorbs incast that RSS concentrates."""
        results = {}
        for mode in ("rss", "plb"):
            sim, rngs, pod = make_pod(data_cores=4, mode=mode)
            # 3 synchronized senders onto 4 cores: under RSS at least one
            # core sits idle while others absorb whole flows (pigeonhole);
            # under PLB every burst packet is sprayed.
            IncastEvent(
                sim,
                rngs.stream("incast"),
                pod.ingress,
                senders=3,
                per_sender_pps=300_000,
                start_ns=0,
                duration_ns=20 * MS,
            )
            sim.run_until(25 * MS)
            utils = pod.core_utilizations(20 * MS)
            results[mode] = max(utils) - min(utils)
        assert results["plb"] < 0.05
        assert results["rss"] > 0.25
