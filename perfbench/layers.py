"""Attribute a cProfile run to the simulator's layers.

Every ``repro`` function belongs to the layer of its module (see
:data:`MODULE_LAYERS`).  Code outside ``repro`` -- builtins such as
``heapq``, stdlib modules such as ``enum`` and ``json`` -- is charged to
the layer that called it: its self time and calls split over its callers
by the profile's caller edges, walking up through further non-``repro``
callers in proportion to their call counts.  Whatever no ``repro`` caller
explains (the harness itself, calls entered before the profiler was
switched on) lands in ``other``, which is reported like any layer.
"""

LAYERS = (
    "sim",
    "core.nic",
    "core.plb.dispatch",
    "core.plb.reorder",
    "core.ratelimit",
    "core.gateway",
    "cpu",
    "workloads",
    "packet",
    "metrics",
    "topology",
    "telemetry",
    "controlplane",
    "scenarios",
    "fleet",
    "other",
)

#: Layers the set-up profile is split into; the rest of set-up is ``other``.
SETUP_LAYERS = ("workloads", "packet", "scenarios", "other")

#: ``(module path under repro/, layer)``; the first matching prefix wins
#: and a ``repro`` module matching none is ``other``.
MODULE_LAYERS = (
    ("sim/", "sim"),
    ("core/plb/reorder.py", "core.plb.reorder"),
    ("core/plb/", "core.plb.dispatch"),
    ("core/rss.py", "core.plb.dispatch"),
    ("core/ratelimit.py", "core.ratelimit"),
    ("core/hitters.py", "core.ratelimit"),
    ("core/nic.py", "core.nic"),
    ("core/pktdir.py", "core.nic"),
    ("core/meta.py", "core.nic"),
    ("core/priority.py", "core.nic"),
    ("core/pcie.py", "core.nic"),
    ("core/offload.py", "core.nic"),
    ("core/", "core.gateway"),
    ("cpu/", "cpu"),
    ("tables/", "cpu"),
    ("workloads/", "workloads"),
    ("packet/", "packet"),
    ("metrics/", "metrics"),
    ("topology/", "topology"),
    ("telemetry/", "telemetry"),
    ("controlplane/", "controlplane"),
    ("scenarios/", "scenarios"),
    ("fleet/", "fleet"),
    ("runs/", "fleet"),
)


def module_layer(filename):
    """The layer of a ``repro`` source file, or ``None`` for other code."""
    path = filename.replace("\\", "/")
    index = path.rfind("/repro/")
    if index < 0:
        return None
    module = path[index + len("/repro/"):]
    for prefix, layer in MODULE_LAYERS:
        if module.startswith(prefix):
            return layer
    return "other"


def attribute(stats):
    """``{layer: {"self_s": float, "calls": int}}`` for a profile's stats.

    ``stats`` is ``cProfile.Profile.stats`` after ``create_stats()``:
    ``{func: (primitive calls, calls, self s, cumulative s, callers)}``
    with ``callers = {caller: (calls, primitive calls, self s, cum s)}``.
    Call counts come from exact integer counts, split in a fixed order,
    so the same program gives the same ``calls`` on every run.
    """
    memo = {}

    def shares(func, visiting):
        """Where the work of ``func`` belongs: ``{layer: fraction}``."""
        layer = module_layer(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        weights = {
            caller: edge[0] for caller, edge in sorted(callers.items())
            if caller not in visiting and edge[0] > 0
        }
        total = sum(weights.values())
        if not total:
            return {"other": 1.0}
        result = {}
        for caller, weight in weights.items():
            for name, fraction in shares(caller, visiting | {func}).items():
                result[name] = result.get(name, 0.0) + fraction * weight / total
        memo[func] = result
        return result

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0.0)
    for func in sorted(stats):
        _primitive, count, own_s, _cumulative, callers = stats[func]
        layer = module_layer(func[0])
        if layer is not None:
            self_s[layer] += own_s
            calls[layer] += count
            continue
        for caller, (edge_calls, _, edge_s, _) in sorted(callers.items()):
            for name, fraction in shares(caller, {func}).items():
                self_s[name] += edge_s * fraction
                calls[name] += edge_calls * fraction
            count -= edge_calls
            own_s -= edge_s
        # Calls with no recorded caller: entered before profiling began.
        self_s["other"] += max(own_s, 0.0)
        calls["other"] += count
    return {
        layer: {"self_s": self_s[layer], "calls": round(calls[layer])}
        for layer in LAYERS
    }


def call_count(stats, module_suffix, names):
    """Total calls of the named functions of one module (exact)."""
    return sum(
        entry[1] for func, entry in stats.items()
        if func[0].replace("\\", "/").endswith(module_suffix) and func[2] in names
    )


def summarize(profiles):
    """The per-layer split of a traced run's ``run`` and ``setup`` profiles."""
    run_stats = _stats(profiles["run"])
    setup_stats = _stats(profiles["setup"])
    setup_split = dict.fromkeys(SETUP_LAYERS, 0.0)
    for layer, entry in attribute(setup_stats).items():
        key = layer if layer in setup_split else "other"
        setup_split[key] += entry["self_s"]
    # Building a deployment already schedules its first events.
    pushes = sum(
        call_count(stats, "repro/sim/engine.py", ("schedule", "schedule_at"))
        for stats in (setup_stats, run_stats)
    )
    return {"layers": attribute(run_stats), "setup": setup_split, "pushes": pushes}


def _stats(profile):
    profile.create_stats()
    return profile.stats
