"""The paper's evaluation settings.

:mod:`repro.experiments.config` holds the scenario and requirement grids of
the paper's evaluation (Ebudget = 0.06 J, Lmax in 1..6 s, and vice versa).
The figures themselves are spec kinds: ``ExperimentSpec.experiment("figure1")``
fixes the energy budget and sweeps the delay bound (Figure 1 a/b/c), and
``"figure2"`` fixes the delay bound and sweeps the energy budget (Figure 2).
"""

from repro.experiments.config import (
    FIGURE_DELAY_BOUNDS,
    FIGURE_ENERGY_BUDGETS,
    FIGURE_ENERGY_BUDGET_FIXED,
    FIGURE_MAX_DELAY_FIXED,
    figure_scenario,
)

__all__ = [
    "FIGURE_DELAY_BOUNDS",
    "FIGURE_ENERGY_BUDGETS",
    "FIGURE_ENERGY_BUDGET_FIXED",
    "FIGURE_MAX_DELAY_FIXED",
    "figure_scenario",
]
