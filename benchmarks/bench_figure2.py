"""Figure 2 benchmark: E-L trade-off with Lmax fixed at 6 s, Ebudget swept.

One benchmark per sub-figure (2a X-MAC, 2b DMAC, 2c LMAC).  Each prints the
series the paper plots and asserts the paper's qualitative observation that
raising the energy budget moves the agreement in favour of the delay player
(``L*`` is non-increasing in ``Ebudget``).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_series
from repro.api import ExperimentSpec, run
from repro.experiments.config import FIGURE_ENERGY_BUDGETS, FIGURE_MAX_DELAY_FIXED
from repro.runtime import build_runner


def run_figure2(grid: int, protocols=()):
    """Run the ``figure2`` spec (the paper's Ebudget grid at Lmax = 6 s).

    No cache: these benches time the actual solves.
    """
    spec = ExperimentSpec.experiment("figure2").with_solver(grid_points=grid)
    if protocols:
        spec = spec.with_protocols(*protocols)
    return run(spec, runner=build_runner(workers=1, use_cache=False)).raw


def _run_protocol(protocol: str, grid: int):
    return run_figure2(grid, protocols=(protocol,))[protocol]


def _check_and_print(sweep, label: str) -> None:
    assert not sweep.infeasible_values, f"{label}: some Ebudget values were infeasible"
    assert len(sweep.solutions) == len(FIGURE_ENERGY_BUDGETS)
    stars = [solution.delay_star for solution in sweep.solutions]
    assert all(
        later <= earlier + 1e-9 for earlier, later in zip(stars, stars[1:])
    ), f"{label}: raising Ebudget must not increase the agreed delay"
    for budget, solution in zip(FIGURE_ENERGY_BUDGETS, sweep.solutions):
        assert solution.energy_star <= budget * 1.001
        assert solution.delay_star <= FIGURE_MAX_DELAY_FIXED * 1.001
        assert solution.delay_best <= solution.delay_star <= solution.delay_worst * 1.001
        assert abs(solution.bargaining.fairness_residual) < 0.1
    print_series(label, sweep.series())


@pytest.mark.parametrize(
    "protocol, subfigure",
    [("xmac", "Figure 2a (X-MAC)"), ("dmac", "Figure 2b (DMAC)"), ("lmac", "Figure 2c (LMAC)")],
)
def test_figure2(benchmark, figure_grid, protocol, subfigure):
    sweep = benchmark.pedantic(
        _run_protocol, args=(protocol, figure_grid), rounds=1, iterations=1
    )
    _check_and_print(sweep, subfigure)


def test_figure2_protocol_energy_ordering(benchmark, figure_grid):
    """At the largest budget, X-MAC's delay-optimal corner is the cheapest of
    the three protocols (the x-axis ranges of the paper's sub-figures)."""
    results = benchmark.pedantic(
        run_figure2, args=(figure_grid,), rounds=1, iterations=1
    )
    worst_energy = {
        name: results[name].solutions[-1].energy_worst for name in ("xmac", "dmac", "lmac")
    }
    assert worst_energy["xmac"] < worst_energy["dmac"]
    assert worst_energy["xmac"] < worst_energy["lmac"]
