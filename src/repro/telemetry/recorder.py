"""Windowed time-series telemetry (``ScenarioSpec.timeseries_every_ns``).

The paper's evaluation is trajectories over time -- P99 under ramping
load (Fig. 9), HOL drops during a burst (Fig. 12), limiter behaviour
across an overload window (Fig. 13/14) -- while run reports historically
exposed only end-of-run aggregates.  The :class:`TimeSeriesRecorder`
closes that gap: armed by a spec's ``timeseries_every_ns``, it samples
every pod at fixed sim-time windows and the run report grows a
``"timeseries"`` section (reports without the field stay byte-identical
to a recorder-less build).

Window semantics:

* Window ``k`` covers ``[origin + k*W, origin + (k+1)*W)`` of sim time;
  the flush event fires exactly at the right edge.  An egress landing
  exactly on an edge belongs to whichever window the heap order says --
  the flush event was scheduled a full window earlier, so it carries a
  lower sequence number than any same-timestamp packet event scheduled
  since, and the packet counts toward the *next* window.  That tie-break
  is a pure function of simulation state, so it replays identically
  across worker counts and checkpoint resumes.
* Each window row carries, per pod, the window's counter *deltas*
  (:meth:`CounterSet.delta` over a combined NIC/limiter/reorder/core
  view; zero deltas are omitted, so an idle window renders as ``{}``)
  and a latency summary (count/mean/p50/p99) from a per-window
  histogram that resets at every flush.
* A run whose duration is not a multiple of the window ends with a
  partial row (``end_ns < start_ns + every_ns``); an exactly divisible
  run ends on a flush and has no partial row.

Checkpoint/restore follows the repo's pending-event protocol: the
recorder's authoritative next-fire state is the plain ``{"time", "seq"}``
ref it keeps in ``_pending`` (updated whenever the flush event is
scheduled), its ``checkpoint()`` is byte-stable under the in-place
statecheck probe, and ``restore()`` returns a re-arm entry that
``RunHandle.restore_checkpoint`` executes in global ``(time, seq)``
order -- so a mid-shard resume reproduces the identical series.
"""

from repro.core.gateway import delivered_latency_ns
from repro.metrics.counters import CounterSet
from repro.metrics.histogram import LatencyHistogram

TIMESERIES_SCHEMA_VERSION = 1


def _histogram_tap(record):
    """An egress tap feeding ``record`` the stream the pod histogram sees."""

    def tap(packet, outcome):
        latency = delivered_latency_ns(packet)
        if latency is not None:
            record(latency)

    return tap


class TimeSeriesRecorder:
    """Samples every pod of a deployment at fixed sim-time windows.

    Parameters:
        sim: the :class:`~repro.sim.engine.Simulator`.
        pods: ``{name: GwPodRuntime}`` (the recorder adds an ``egress``
            tap to each pod and reads its counters at flush time; the
            dict is read at every flush, so an entry a migration swaps
            in is sampled from then on).
        every_ns: window width in sim nanoseconds.
        seed: seed for the per-window reservoir rngs (only observable
            past the reservoir cap; carried for determinism regardless).
    """

    def __init__(self, sim, pods, every_ns, seed=1):
        if every_ns <= 0:
            raise ValueError(
                f"timeseries window must be positive (got {every_ns})"
            )
        self.sim = sim
        self.pods = pods
        self.every_ns = int(every_ns)
        self.windows = []
        self._origin = sim.now
        self._window = 0
        self._prev = {}
        self._hists = {}
        for name in sorted(pods):
            pod = pods[name]
            self._prev[name] = self._sample(pod).snapshot()
            hist = LatencyHistogram(seed=seed)
            pod.add_tap("egress", _histogram_tap(hist.record))
            self._hists[name] = hist
        self._event = sim.schedule(self.every_ns, self._fire)
        self._pending = {"time": self._event.time, "seq": self._event.seq}

    @staticmethod
    def _sample(pod):
        """Combined counter view of one pod as a :class:`CounterSet`.

        NIC pipeline counters (which include the limiter's) under their
        own names, reorder-engine counters prefixed ``reorder_`` and
        core counters summed across data cores prefixed ``core_`` -- one
        flat namespace so a window delta is a single ``delta()`` call.
        """
        combined = CounterSet()
        for name, value in pod.counters.snapshot().items():
            combined.incr(name, value)
        stats = pod.reorder_stats
        for slot in type(stats).__slots__:
            combined.incr("reorder_" + slot, getattr(stats, slot))
        for core in pod.cores:
            core_stats = core.stats
            for slot in type(core_stats).__slots__:
                combined.incr("core_" + slot, getattr(core_stats, slot))
        return combined

    def _row(self, end_ns):
        """One window row from the current per-pod state (no mutation)."""
        pods = {}
        for name in sorted(self._prev):
            delta = self._sample(self.pods[name]).delta(self._prev[name])
            hist = self._hists[name]
            pods[name] = {
                "counters": {
                    key: value for key, value in sorted(delta.items()) if value
                },
                "latency": {
                    "count": hist.count,
                    "mean_ns": round(hist.mean_ns, 3),
                    "p50_ns": hist.percentile(0.50) if hist.count else 0,
                    "p99_ns": hist.percentile(0.99) if hist.count else 0,
                },
            }
        return {
            "window": self._window,
            "start_ns": self._origin + self._window * self.every_ns,
            "end_ns": end_ns,
            "pods": pods,
        }

    def _fire(self):
        self.windows.append(self._row(self.sim.now))
        for name, hist in self._hists.items():
            self._prev[name] = self._sample(self.pods[name]).snapshot()
            hist.reset()
        self._window += 1
        self._event = self.sim.schedule(self.every_ns, self._fire)
        self._pending = {"time": self._event.time, "seq": self._event.seq}

    def series(self):
        """The report section: flushed windows plus any open partial one.

        Pure -- reading the series never flushes, so ``report()`` can be
        called any number of times with identical output.
        """
        windows = list(self.windows)
        start = self._origin + self._window * self.every_ns
        if self.sim.now > start:
            windows.append(self._row(self.sim.now))
        return {
            "schema_version": TIMESERIES_SCHEMA_VERSION,
            "every_ns": self.every_ns,
            "windows": windows,
        }

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self):
        """Plain-data snapshot, ``_pending`` as the authoritative next fire."""
        return {
            "every_ns": self.every_ns,
            "origin_ns": self._origin,
            "window": self._window,
            "windows": list(self.windows),
            "prev": {name: dict(counts) for name, counts in self._prev.items()},
            "hists": {
                name: hist.checkpoint() for name, hist in self._hists.items()
            },
            "next_fire": self._pending,
        }

    def restore(self, snapshot):
        """Adopt a checkpoint; return the re-arm entry for the next flush.

        Histograms restore *in place* so the pods' egress taps stay
        bound to them.  The returned entry is executed by
        ``RunHandle.restore_checkpoint`` in global ``(time, seq)`` order.
        """
        if sorted(snapshot["hists"]) != sorted(self._hists):
            raise ValueError(
                f"checkpoint pods {sorted(snapshot['hists'])} do not match "
                f"recorder pods {sorted(self._hists)}"
            )
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self.every_ns = int(snapshot["every_ns"])
        self._origin = int(snapshot["origin_ns"])
        self._window = int(snapshot["window"])
        self.windows = list(snapshot["windows"])
        self._prev = {
            name: dict(counts) for name, counts in snapshot["prev"].items()
        }
        for name, state in snapshot["hists"].items():
            self._hists[name].restore(state)
        next_fire = snapshot["next_fire"]
        self._pending = None if next_fire is None else dict(next_fire)
        if next_fire is None:
            return []

        def rearm(time=next_fire["time"]):
            self._event = self.sim.schedule_at(time, self._fire)
            self._pending = {"time": self._event.time, "seq": self._event.seq}

        return [(next_fire["time"], next_fire["seq"], rearm)]


def flatten_windows(windows, source=None):
    """Flatten window rows into flat table rows for ``format_table``.

    One row per (window, pod); merged fleet series carry a ``shard``
    column, single-run series do not.  Latency converts to microseconds
    and the counter families collapse to the headline ``tx``/``drops``
    columns (the full deltas stay in the JSON artifact).
    """
    from repro.sim.units import MS, US

    rows = []
    for window in windows:
        for pod_name in sorted(window["pods"]):
            pod = window["pods"][pod_name]
            row = {}
            if source is not None:
                row["source"] = source
            if "shard" in window:
                row["shard"] = window["shard"]
            row["window"] = window["window"]
            row["t_ms"] = round(window["start_ns"] / MS, 3)
            row["pod"] = pod_name
            counters = pod["counters"]
            latency = pod["latency"]
            row["tx"] = counters.get("tx_packets", 0)
            row["drops"] = sum(
                value for name, value in counters.items()
                if name.endswith("_drops")
            )
            row["count"] = latency["count"]
            row["mean_us"] = round(latency["mean_ns"] / US, 2)
            row["p50_us"] = round(latency["p50_ns"] / US, 2)
            row["p99_us"] = round(latency["p99_ns"] / US, 2)
            rows.append(row)
    return rows


def validate_series(section):
    """Validate a ``"timeseries"`` report section (or merged variant).

    Raises ``ValueError`` on a malformed section; returns it unchanged
    otherwise.  Checks the schema version, the required per-window keys
    and that window indices are non-decreasing within each shard (merged
    series concatenate shards window-aligned, so indices restart at
    every shard boundary but never go backwards within one).
    """
    if not isinstance(section, dict):
        raise ValueError(f"timeseries section is not a dict: {section!r}")
    version = section.get("schema_version")
    if version != TIMESERIES_SCHEMA_VERSION:
        raise ValueError(
            f"timeseries schema {version!r} is not {TIMESERIES_SCHEMA_VERSION}"
        )
    every_ns = section.get("every_ns")
    if not isinstance(every_ns, int) or every_ns <= 0:
        raise ValueError(f"bad every_ns: {every_ns!r}")
    last = {}
    for position, window in enumerate(section.get("windows", ())):
        where = f"windows[{position}]"
        for key in ("window", "start_ns", "end_ns", "pods"):
            if key not in window:
                raise ValueError(f"{where} is missing {key!r}")
        if window["end_ns"] <= window["start_ns"]:
            raise ValueError(
                f"{where} is empty-spanned: "
                f"[{window['start_ns']}, {window['end_ns']})"
            )
        shard = window.get("shard")
        if shard in last and window["window"] < last[shard]:
            raise ValueError(
                f"{where} goes backwards (window {window['window']} after "
                f"{last[shard]} in shard {shard!r})"
            )
        last[shard] = window["window"]
        for pod_name, pod in window["pods"].items():
            for key in ("counters", "latency"):
                if key not in pod:
                    raise ValueError(
                        f"{where} pod {pod_name!r} is missing {key!r}"
                    )
            for key in ("count", "mean_ns", "p50_ns", "p99_ns"):
                if key not in pod["latency"]:
                    raise ValueError(
                        f"{where} pod {pod_name!r} latency is missing {key!r}"
                    )
    return section
