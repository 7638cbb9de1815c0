"""Suite specs: (scenario × protocol) batches through the runtime layer."""

from __future__ import annotations

import pytest

from repro.api import ExperimentSpec, plan, run
from repro.exceptions import ConfigurationError
from repro.protocols.registry import available_protocols
from repro.runtime import SolveCache, build_runner
from repro.scenario import Scenario
from repro.scenarios import (
    ScenarioPreset,
    available_scenarios,
    register_scenario_preset,
    unregister_scenario_preset,
)

#: Coarse solver grid: the suite tests exercise plumbing, not precision.
GRID = 25


def _tiny_preset(name: str = "tiny", **overrides) -> ScenarioPreset:
    defaults = {
        "name": name,
        "title": "Tiny test scenario",
        "description": "Three shallow rings for fast suite tests.",
        "scenario": Scenario(sampling_rate=1.0 / 600.0),
        "energy_budget": 0.06,
        "max_delay": 6.0,
    }
    defaults.update(overrides)
    return ScenarioPreset(**defaults)


@pytest.fixture
def register():
    """Register custom presets for one test, unregistering them afterwards."""
    names = []

    def _register(preset: ScenarioPreset) -> str:
        register_scenario_preset(preset)
        names.append(preset.name)
        return preset.name

    yield _register
    for name in names:
        unregister_scenario_preset(name)


def _suite(*scenarios: str, protocols=("xmac",), grid_points: int = GRID) -> ExperimentSpec:
    return (
        ExperimentSpec.experiment("suite")
        .with_scenarios(*scenarios)
        .with_protocols(*protocols)
        .with_solver(grid_points=grid_points)
    )


class TestPlanning:
    def test_defaults_cover_all_pairs(self):
        units = plan(ExperimentSpec.experiment("suite")).units
        assert len(units) == len(available_scenarios()) * len(available_protocols())
        assert len(available_scenarios()) >= 6
        assert "xmac" in {unit.protocol for unit in units}

    def test_accepts_registered_custom_presets(self, register):
        register(_tiny_preset())
        units = plan(_suite("paper-default", "tiny")).units
        assert [unit.scenario for unit in units] == ["paper-default", "tiny"]

    def test_protocol_aliases_canonicalized(self):
        units = plan(_suite("paper-default", protocols=("X-MAC",))).units
        assert [unit.protocol for unit in units] == ["xmac"]

    def test_empty_scenarios_mean_every_preset(self):
        units = plan(ExperimentSpec.experiment("suite").with_protocols("xmac")).units
        assert [unit.scenario for unit in units] == available_scenarios()

    def test_rejects_duplicate_scenarios(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            plan(_suite("paper-default", "paper-default"))

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ConfigurationError, match="known presets"):
            plan(_suite("no-such-scenario"))

    def test_rejects_a_bare_string_for_the_scenario_list(self):
        with pytest.raises(ConfigurationError, match="scenarios must be a list"):
            ExperimentSpec.from_dict({"kind": "suite", "scenarios": "paper-default"})

    def test_duplicate_preset_registration_rejected(self, register):
        register(_tiny_preset())
        with pytest.raises(ConfigurationError, match="already registered"):
            register_scenario_preset(_tiny_preset())


class TestRun:
    def test_runs_all_pairs_and_reports_cells(self, register):
        register(_tiny_preset())
        result = run(_suite("tiny", protocols=("xmac", "dmac"))).raw
        assert [(cell.scenario, cell.protocol) for cell in result.cells] == [
            ("tiny", "xmac"),
            ("tiny", "dmac"),
        ]
        assert all(cell.feasible for cell in result.cells)
        assert result.solution("tiny", "xmac").protocol == "X-MAC"
        assert result.solution("tiny", "lmac") is None  # not part of this run
        rows = result.rows()
        assert len(rows) == 2 and rows[0]["feasible"] is True

    def test_mixed_feasible_infeasible_rows_share_columns_and_render(self, register):
        """Feasible and infeasible cells must produce printable uniform rows."""
        from repro.analysis.reporting import format_table

        register(_tiny_preset(name="impossible", max_delay=1e-6))
        register(_tiny_preset())
        result_set = run(_suite("impossible", "tiny"))
        result = result_set.raw
        rows = result.rows()
        assert len(result.feasible_cells) == 1 and len(result.infeasible_cells) == 1
        assert [record.ok for record in result_set.records] == [False, True]
        columns = list(rows[0])
        assert all(list(row) == columns for row in rows)
        rendered = format_table(rows)  # must not raise on the mixed batch
        assert "impossible" in rendered and "tiny" in rendered

    def test_infeasible_scenario_does_not_poison_the_batch(self, register):
        """An impossible delay bound in one scenario leaves the others intact."""
        register(_tiny_preset(name="impossible", max_delay=1e-6))
        register(_tiny_preset(name="feasible"))
        result = run(_suite("impossible", "feasible")).raw
        by_scenario = result.by_scenario()
        assert not by_scenario["impossible"][0].feasible
        assert "delay" in by_scenario["impossible"][0].error
        assert by_scenario["feasible"][0].feasible
        assert len(result.infeasible_cells) == 1
        assert len(result.feasible_cells) == 1

    def test_unconstructible_model_recorded_as_infeasible_cell(self, register):
        """A scenario that empties a protocol's parameter space is data too."""
        # Density 1100 pushes LMAC's minimum slot count past the 10 s drift
        # bound: the maximum slot falls below the minimum slot and the
        # parameter space is empty, so the model cannot be used at all.
        register(
            _tiny_preset(
                name="lmac-hostile",
                scenario=Scenario(sampling_rate=1.0 / 600.0).with_topology(density=1100),
            )
        )
        result = run(_suite("lmac-hostile", protocols=("xmac", "lmac"))).raw
        cells = {cell.protocol: cell for cell in result.cells}
        assert cells["xmac"].feasible
        assert not cells["lmac"].feasible
        assert "model construction failed" in cells["lmac"].error

    def test_requirement_overrides_apply_to_every_preset(self, register):
        preset = _tiny_preset()
        register(preset)
        result = run(_suite("tiny").with_requirements(max_delay=2.0)).raw
        solution = result.cells[0].solution
        assert solution.max_delay == 2.0
        assert solution.energy_budget == preset.energy_budget

    def test_process_pool_run_is_bit_identical_to_serial(self):
        spec = _suite("paper-default", "bursty", protocols=("xmac", "dmac"))
        serial = run(spec, runner=build_runner(workers=1, use_cache=False))
        parallel = run(spec, runner=build_runner(workers=2, use_cache=False))
        assert serial.raw.rows() == parallel.raw.rows()
        assert serial.json_text() == parallel.json_text()

    def test_suite_reuses_the_solve_cache(self):
        cache = SolveCache()
        spec = _suite("paper-default")
        cold = run(spec, runner=build_runner(workers=1, cache=cache)).raw
        warm_runner = build_runner(workers=1, cache=cache)
        warm = run(spec, runner=warm_runner).raw
        assert warm.cells[0].from_cache
        assert warm_runner.cache_stats().hits == 1
        assert cold.rows() == warm.rows()

    def test_suggested_requirements_feasible_for_paper_protocols(self):
        """Every built-in preset solves for the paper's three protocols."""
        spec = ExperimentSpec.experiment("suite").with_protocols("xmac", "dmac", "lmac")
        result = run(
            spec.with_solver(grid_points=20),
            runner=build_runner(workers=0, use_cache=False),
        ).raw
        infeasible = [
            f"{cell.scenario}/{cell.protocol}" for cell in result.infeasible_cells
        ]
        assert not infeasible, f"infeasible pairs: {infeasible}"
        assert len(result.cells) == len(available_scenarios()) * 3
