"""Tests of the benchmark itself: workloads, metric names, gate, attribution.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import cProfile
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import layers
import summary
import workloads
from repro.fleet.sweeps import TENANT_AXIS_FULL, build_sweep
from repro.scenarios import build, scenario_spec
from repro.sim.units import MS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def tiny_workload(spec):
    """A single-run workload around ``spec`` (a seed -> spec function)."""
    return workloads.Workload("tiny", "test", spec=spec, setup_builds=3)


def tiny_plb(seed):
    return workloads.plb_steady_spec(seed).with_overrides(duration_ns=5 * MS)


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- each workload builds the intended spec ---------------------------------


def test_plb_steady_is_the_registry_scenario_with_the_seed():
    spec = workloads.plb_steady_spec(7)
    expected = scenario_spec("steady-state-plb").with_overrides(seed=7)
    assert spec.to_dict() == expected.to_dict()


def test_burst_telemetry_arms_the_1ms_probe():
    spec = workloads.burst_telemetry_spec(7)
    assert spec.name == "microburst-reorder"
    assert spec.seed == 7
    assert spec.timeseries_every_ns == 1 * MS
    assert spec.pods[0].rx_capacity == 256
    assert spec.workload.kind == "microburst"


def test_az_migrate_has_four_servers_a_dpu_tier_and_a_migration():
    spec = workloads.az_migrate_spec(7)
    assert [server.name for server in spec.servers] == ["srv0", "srv1", "srv2", "srv3"]
    assert spec.dpu_tier is not None and spec.ecmp is not None
    assert spec.workload.tenants == 100_000
    assert spec.workload.population == "zipf"
    migration = spec.migration
    assert (migration.pod, migration.server) == ("srv0-pod", "srv0")
    assert migration.target_numa_node == 1
    assert migration.start_ns == spec.duration_ns // 3
    assert migration.flush_rate_pps == 200_000
    handle = build(spec)
    assert handle.migration is not None
    assert list(handle.topology.servers) == ["srv0", "srv1", "srv2", "srv3"]
    assert all(runtime.dpu is not None for runtime in handle.topology.servers.values())


def test_tenant_sweep_covers_the_full_tenant_axis():
    workload = workloads.WORKLOADS["tenant-sweep"]
    shards = build_sweep(workload.sweep, seed=7)
    assert tuple(shard.axes["tenants"] for shard in shards) == TENANT_AXIS_FULL
    assert TENANT_AXIS_FULL[-1] == 1_000_000
    assert workload.shard_count(7) == len(shards)
    assert all(shard.spec.checkpoint_every_ns for shard in shards)


# -- metric names and units -------------------------------------------------


def test_benchmark_json_names_every_workload_and_metric_with_a_unit():
    config = benchmark_json()
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", summary.END_TO_END), ("per_layer", summary.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in config[key]]
        assert listed == list(table)
    names = [name for name, _, _ in summary.END_TO_END + summary.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better in summary.END_TO_END + summary.PER_LAYER:
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), (name, unit)
        assert better in ("higher", "lower")
    assert "setup_s" in {m["name"] for m in config["end_to_end"]}


def test_every_computed_metric_carries_its_unit():
    tracer = workloads.Tracer(True)
    traced = workloads.execute(tiny_workload(tiny_plb), 3, tracer)
    traced["profile"] = layers.summarize(tracer.profiles)
    plain = workloads.execute(tiny_workload(tiny_plb), 3, workloads.Tracer(False))
    plain["rss_mb"] = traced["rss_mb"] = 1.0
    values = {
        **summary.end_to_end([plain], 1, 0),
        **summary.per_layer([plain], [traced]),
    }
    assert set(values) == set(summary.UNITS)
    for name, entry in summary.with_units(values).items():
        assert entry["unit"] == summary.UNITS[name]
        assert isinstance(entry["value"], (int, float))


# -- the correctness gate and failed_ratio ----------------------------------


def stalled_migration(seed):
    """A migration scheduled after the run ends: it never completes."""
    spec = scenario_spec("steady-state-plb", quick=True)
    data = spec.with_overrides(seed=seed, duration_ns=5 * MS).to_dict()
    data["migration"] = {"pod": "pod", "start_ns": 50 * MS}
    return type(spec).from_dict(data)


def test_a_forced_gate_failure_shows_up_in_failed_ratio():
    good = workloads.execute(tiny_workload(tiny_plb), 3, workloads.Tracer(False))
    bad = workloads.execute(
        tiny_workload(stalled_migration), 3, workloads.Tracer(False)
    )
    assert good["runs"][0]["failures"] == []
    assert any("migration" in f for f in bad["runs"][0]["failures"])
    attempted, failed, notes = summary.tally([bad], shards=1)
    assert (attempted, failed) == (1, 1) and notes
    bad["rss_mb"] = 1.0
    assert summary.end_to_end([bad], attempted, failed)["pass_ratio"] == 0.0


def test_a_run_that_differs_from_the_first_counts_as_failed():
    first = workloads.execute(tiny_workload(tiny_plb), 3, workloads.Tracer(False))
    again = workloads.execute(tiny_workload(tiny_plb), 3, workloads.Tracer(False))
    assert summary.tally([first, again], shards=1) == (2, 0, [])
    drifted = dict(again, model=dict(again["model"], delivered=0))
    attempted, failed, _ = summary.tally([first, drifted, {"error": "boom"}], shards=1)
    assert (attempted, failed) == (3, 2)


def test_tracing_does_not_perturb_the_simulation():
    plain = workloads.execute(tiny_workload(tiny_plb), 5, workloads.Tracer(False))
    profiled = []
    for _ in range(2):
        tracer = workloads.Tracer(True)
        result = workloads.execute(tiny_workload(tiny_plb), 5, tracer)
        result["profile"] = layers.summarize(tracer.profiles)
        profiled.append(result)
    assert all(result["digest"] == plain["digest"] for result in profiled)
    assert summary.tally([plain] + profiled, shards=1) == (3, 0, [])


def test_sweep_hooks_are_removed_after_the_sweep():
    from repro.fleet import engine
    from repro.scenarios import RunHandle

    run, engine_build = RunHandle.run, engine.build
    log = workloads.RunLog(workloads.Tracer(False))
    with pytest.raises(RuntimeError):
        with log.hooks():
            raise RuntimeError("boom")
    assert RunHandle.run is run and engine.build is engine_build


# -- attribution ------------------------------------------------------------


def test_builtins_are_charged_to_their_caller_and_the_rest_to_other():
    engine = ("/x/src/repro/sim/engine.py", 10, "schedule")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    dumps = ("/usr/lib/python3.11/json/__init__.py", 183, "dumps")
    encode = ("~", 0, "<method 'encode' of 'Encoder' objects>")
    stats = {
        engine: (3, 3, 0.5, 0.8, {}),
        heappush: (3, 3, 0.3, 0.3, {engine: (3, 3, 0.3, 0.3)}),
        dumps: (1, 1, 0.1, 0.3, {}),
        encode: (1, 1, 0.2, 0.2, {dumps: (1, 1, 0.2, 0.2)}),
    }
    split = layers.attribute(stats)
    assert split["sim"] == {"self_s": pytest.approx(0.8), "calls": 6}
    assert split["other"] == {"self_s": pytest.approx(0.3), "calls": 2}
    total = sum(entry["self_s"] for entry in split.values())
    assert total == pytest.approx(sum(entry[2] for entry in stats.values()))


def test_a_real_profile_reports_its_other_share():
    def harness_work():
        return sorted(str(i) for i in range(20_000))

    handle = build(tiny_plb(3))
    profile = cProfile.Profile()
    profile.enable()
    handle.run()
    harness_work()
    profile.disable()
    profile.create_stats()
    split = layers.attribute(profile.stats)
    assert set(split) == set(layers.LAYERS)
    assert split["other"]["self_s"] > 0 and split["other"]["calls"] > 0
    assert split["sim"]["calls"] > 0 and split["core.nic"]["calls"] > 0
    total = sum(entry[2] for entry in profile.stats.values())
    assert sum(e["self_s"] for e in split.values()) == pytest.approx(total)


def test_module_layers():
    assert layers.module_layer("/a/src/repro/core/plb/reorder.py") == "core.plb.reorder"
    assert layers.module_layer("/a/src/repro/core/plb/dispatch.py") == "core.plb.dispatch"
    assert layers.module_layer("/a/src/repro/core/pktdir.py") == "core.nic"
    assert layers.module_layer("/a/src/repro/core/gateway.py") == "core.gateway"
    assert layers.module_layer("/a/src/repro/analysis/sanitizer.py") == "other"
    assert layers.module_layer("/usr/lib/python3.11/enum.py") is None
    assert layers.module_layer("~") is None


# -- the command ------------------------------------------------------------


def test_without_the_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plb-steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
