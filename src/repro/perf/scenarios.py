"""Canonical benchmark scenarios.

Each scenario is a function ``fn(quick)`` that builds a fresh simulator
from the unified registry (:mod:`repro.scenarios.registry`), drives a
workload chosen to stress one hot path, and returns raw volume
numbers::

    {"events": <engine events processed>,   # None if not meaningful
     "sim_ns": <simulated nanoseconds>,     # None if not meaningful
     "packets": <packets delivered end-to-end>}

The harness owns all wall-clock timing; scenarios must not import
``time``.  Seeds are fixed so every run replays the same event stream --
wall-clock is the only quantity allowed to vary between runs.

The set covers the paths the hot-path pass optimizes:

* ``steady-state-plb`` -- the engine run loop, PLB spray, reorder
  writeback and the latency histogram at a comfortable 70% load.
* ``microburst-reorder`` -- reorder timeouts, FIFO pressure and RX-drop
  recovery under 6x microbursts into small RX rings.
* ``ratelimit-churn`` -- the two-stage limiter's admit path at 90% load
  with the pre-table churning (promote/demote every 10 ms).
* ``fault-suite-quick`` -- the fault-injection scenarios in quick mode:
  a breadth pass over control-plane paths the other scenarios skip.
"""

from repro.sim.units import MS

_CHURN_PERIOD_NS = 10 * MS
_CHURN_TENANTS = 16


def _volume(handle):
    """The raw numbers the harness times, from a finished handle."""
    return {
        "events": handle.sim.events_processed,
        "sim_ns": handle.sim.now,
        "packets": handle.pod.transmitted(),
    }


def steady_state_plb(quick):
    """Steady-state PLB spray: 4 cores, 70% load, uniform flows."""
    from repro.scenarios import build, scenario_spec

    return _volume(build(scenario_spec("steady-state-plb", quick=quick)).run())


def microburst_reorder(quick):
    """Microburst reorder stress: 6x bursts into 256-slot RX rings."""
    from repro.scenarios import build, scenario_spec

    return _volume(build(scenario_spec("microburst-reorder", quick=quick)).run())


def ratelimit_churn(quick):
    """Two-stage limiter at 90% load with pre-table promote/demote churn."""
    from repro.core.ratelimit import TwoStageRateLimiter
    from repro.scenarios import build, scenario_spec
    from repro.sim.rng import RngRegistry

    spec = scenario_spec("ratelimit-churn", quick=quick)
    rngs = RngRegistry(seed=spec.seed)
    limiter = TwoStageRateLimiter(
        rngs.stream("bench-limiter"),
        stage1_rate_pps=40_000, stage2_rate_pps=10_000,
    )
    handle = build(spec, rngs=rngs, pod_extras={"pod": {"rate_limiter": limiter}})

    state = {"vni": 0}

    def churn():
        limiter.demote(state["vni"])
        state["vni"] = (state["vni"] + 1) % _CHURN_TENANTS
        limiter.promote_heavy_hitter(state["vni"])
        handle.sim.schedule(_CHURN_PERIOD_NS, churn)

    handle.sim.schedule(_CHURN_PERIOD_NS, churn)
    return _volume(handle.run())


def fault_suite_quick(quick):
    """Fault-injection scenarios, quick timings (always: the full-length
    scenarios measure recovery realism, not throughput).  Quick bench
    mode runs a two-scenario subset; full mode runs all five.
    """
    from repro.faults.scenarios import SCENARIOS as FAULT_SCENARIOS
    from repro.faults.scenarios import run_scenario

    if quick:
        names = ("core-stall-plb-vs-rss", "limiter-reset")
    else:
        names = tuple(sorted(FAULT_SCENARIOS))
    packets = 0
    for name in names:
        report = run_scenario(name, seed=11, quick=True)
        packets += report.get("delivered_total") or 0
    return {"events": None, "sim_ns": None, "packets": packets}


#: Ordered (name, fn) pairs -- report order is part of the stable schema.
SCENARIOS = (
    ("steady-state-plb", steady_state_plb),
    ("microburst-reorder", microburst_reorder),
    ("ratelimit-churn", ratelimit_churn),
    ("fault-suite-quick", fault_suite_quick),
)
