"""Tests for the ``figure1``/``figure2`` spec kinds (reduced grids for speed)."""

from __future__ import annotations

import pytest

from repro.api import ExperimentSpec, plan, run
from repro.experiments.config import (
    FIGURE_DELAY_BOUNDS,
    FIGURE_ENERGY_BUDGETS,
    FIGURE_ENERGY_BUDGET_FIXED,
    FIGURE_MAX_DELAY_FIXED,
    figure_scenario,
)
from repro.scenarios import scenario_preset

#: Reduced settings so the experiment tests stay fast; the benches run the
#: full grids.
GRID_POINTS = 30
PROTOCOLS = ("xmac", "dmac")
DELAYS = (1.0, 3.0, 6.0)
BUDGETS = (0.01, 0.03, 0.06)


def _figure(kind, parameter, values):
    spec = (
        ExperimentSpec.experiment(kind)
        .with_protocols(*PROTOCOLS)
        .with_sweep(parameter, values)
        .with_solver(grid_points=GRID_POINTS)
    )
    return run(spec)


@pytest.fixture(scope="module")
def figure1_run():
    return _figure("figure1", "max_delay", DELAYS)


@pytest.fixture(scope="module")
def figure2_run():
    return _figure("figure2", "energy_budget", BUDGETS)


@pytest.fixture(scope="module")
def figure1_results(figure1_run):
    return figure1_run.raw


@pytest.fixture(scope="module")
def figure2_results(figure2_run):
    return figure2_run.raw


class TestFigureConfig:
    def test_paper_grids(self):
        assert FIGURE_DELAY_BOUNDS == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert FIGURE_ENERGY_BUDGETS == (0.01, 0.02, 0.03, 0.04, 0.05, 0.06)
        assert FIGURE_ENERGY_BUDGET_FIXED == 0.06
        assert FIGURE_MAX_DELAY_FIXED == 6.0

    def test_figure_scenario_shape(self):
        scenario = figure_scenario()
        assert scenario.depth == 5
        assert scenario.density == 8
        assert scenario.sampling_period == 3600.0

    def test_figure_specs_default_to_the_paper_setup(self):
        # The figure kinds run the paper's scenario, protocols and grids.
        assert scenario_preset("paper-default").scenario == figure_scenario()
        figure1 = plan(ExperimentSpec.experiment("figure1")).rows()
        assert {row["protocol"] for row in figure1} == {"xmac", "dmac", "lmac"}
        assert sorted({row["value"] for row in figure1}) == list(FIGURE_DELAY_BOUNDS)
        assert {row["energy_budget"] for row in figure1} == {FIGURE_ENERGY_BUDGET_FIXED}
        figure2 = plan(ExperimentSpec.experiment("figure2")).rows()
        assert sorted({row["value"] for row in figure2}) == list(FIGURE_ENERGY_BUDGETS)
        assert {row["max_delay"] for row in figure2} == {FIGURE_MAX_DELAY_FIXED}


class TestFigure1:
    def test_one_sweep_per_protocol(self, figure1_results):
        assert set(figure1_results) == set(PROTOCOLS)
        for sweep in figure1_results.values():
            assert len(sweep.solutions) == len(DELAYS)
            assert not sweep.infeasible_values

    def test_relaxing_delay_bound_favours_energy_player(self, figure1_results):
        for sweep in figure1_results.values():
            stars = [solution.energy_star for solution in sweep.solutions]
            assert stars[0] >= stars[1] >= stars[2]

    def test_agreed_delay_respects_each_bound(self, figure1_results):
        for sweep in figure1_results.values():
            for bound, solution in zip(DELAYS, sweep.solutions):
                assert solution.delay_star <= bound * 1.001

    def test_rows_are_flat_and_complete(self, figure1_run):
        rows = figure1_run.rows()
        assert len(rows) == len(PROTOCOLS) * len(DELAYS)
        assert {"max_delay", "E_best", "E_worst", "E_star", "L_star"} <= set(rows[0])
        assert all(row["feasible"] for row in rows)


class TestFigure2:
    def test_one_sweep_per_protocol(self, figure2_results):
        assert set(figure2_results) == set(PROTOCOLS)
        for sweep in figure2_results.values():
            assert len(sweep.solutions) == len(BUDGETS)

    def test_raising_budget_favours_delay_player(self, figure2_results):
        for sweep in figure2_results.values():
            stars = [solution.delay_star for solution in sweep.solutions]
            assert stars[0] >= stars[1] >= stars[2]

    def test_agreed_energy_respects_each_budget(self, figure2_results):
        for sweep in figure2_results.values():
            for budget, solution in zip(BUDGETS, sweep.solutions):
                assert solution.energy_star <= budget * 1.001

    def test_rows_are_flat_and_complete(self, figure2_run):
        rows = figure2_run.rows()
        assert len(rows) == len(PROTOCOLS) * len(BUDGETS)
        assert "energy_budget" in rows[0]
