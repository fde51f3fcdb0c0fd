"""Tests for the experiment infrastructure (results, runner, scaling)."""

import pytest

from repro.experiments.common import ExperimentResult, format_table
from repro.experiments.runner import all_experiments
from repro.scenarios import PodSpec, ScenarioSpec, build, scaled_service


def _scaled_pod(data_cores, per_core_pps):
    return build(ScenarioSpec(
        name="scaled-pod",
        pods=(PodSpec(data_cores=data_cores, per_core_pps=per_core_pps),),
        seed=1,
    ))


class TestExperimentResult:
    def test_rows_are_copies(self):
        result = ExperimentResult("x", [{"a": 1}])
        result.rows().append({"a": 2})
        assert len(result.rows()) == 1

    def test_column(self):
        result = ExperimentResult("x", [{"a": 1}, {"a": 2}])
        assert result.column("a") == [1, 2]

    def test_print_table(self, capsys):
        result = ExperimentResult("demo", [{"a": 1, "b": "x"}], meta={"k": "v"})
        result.print_table()
        out = capsys.readouterr().out
        assert "demo" in out
        assert "k: v" in out


class TestFormatTable:
    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_alignment(self):
        rendered = format_table([{"col": 1, "other": "abc"}, {"col": 22, "other": "d"}])
        lines = rendered.splitlines()
        assert len(lines) == 4  # header, divider, 2 rows
        assert lines[0].startswith("col")

    def test_float_formatting(self):
        rendered = format_table([{"x": 0.123456789}])
        assert "0.1235" in rendered

    def test_missing_cell(self):
        rendered = format_table([{"a": 1, "b": 2}, {"a": 3}])
        rows = rendered.splitlines()[2:]
        assert rows[1].split() == ["3", "-"]

    def test_union_of_keys_first_seen_order(self):
        rendered = format_table([{"a": 1}, {"b": 2, "a": 3}, {"c": 4}])
        header = rendered.splitlines()[0].split()
        assert header == ["a", "b", "c"]
        last = rendered.splitlines()[-1].split()
        assert last == ["-", "-", "4"]

    def test_explicit_none_still_renders(self):
        rendered = format_table([{"a": None}, {"b": 1}])
        first_row = rendered.splitlines()[2].split()
        assert first_row == ["None", "-"]


class TestScaledService:
    @pytest.mark.parametrize("target", [25_000, 100_000, 1_000_000])
    def test_per_core_rate_calibration(self, target):
        from repro.cpu.service import ServiceChain

        service = scaled_service(per_core_pps=target)
        chain = ServiceChain(service, assumed_hit_rate=0.35)
        assert chain.per_core_mpps() * 1e6 == pytest.approx(target, rel=0.01)

    def test_scaled_pod_capacity(self):
        scaled = _scaled_pod(data_cores=4, per_core_pps=50_000)
        assert scaled.capacity_pps() == 200_000
        assert scaled.pod.expected_capacity_mpps() * 1e6 == pytest.approx(
            200_000, rel=0.02
        )

    def test_egress_counter_hook(self):
        from repro.sim.units import MS
        from repro.workloads.generators import CbrSource, uniform_population

        scaled = _scaled_pod(data_cores=2, per_core_pps=100_000)
        counts = {}

        def count(packet, outcome):
            counts[packet.vni] = counts.get(packet.vni, 0) + 1

        scaled.pod.add_tap("egress", count)
        population = uniform_population(10, tenants=2)
        CbrSource(
            scaled.sim, scaled.rngs.stream("t"), scaled.pod.ingress,
            population, rate_pps=50_000,
        )
        scaled.run(10 * MS)
        assert sum(counts.values()) == scaled.pod.transmitted()
        assert set(counts) == {0, 1}


class TestRunner:
    def test_experiment_names_unique(self):
        names = [name for name, _ in all_experiments()]
        assert len(names) == len(set(names))

    def test_covers_every_table_and_figure(self):
        names = {name for name, _ in all_experiments()}
        for required in (
            "tab1", "tab3", "tab4", "tab5", "tab6",
            "fig4_fig5", "fig7_peers", "fig8", "fig9", "fig10", "fig11",
            "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
        ):
            assert required in names, required

    def test_cheap_experiments_run(self):
        cheap = {"tab1", "tab4", "tab5", "tab6", "fig15", "fig7_peers",
                 "appendix_split", "appendix_port", "ablation_memfreq",
                 "ablation_stateful", "ablation_offload"}
        for name, fn in all_experiments(quick=True):
            if name in cheap:
                result = fn()
                assert result.rows(), name
