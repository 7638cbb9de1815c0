"""Scenario library: named evaluation environments and suite results.

The paper's framework is formulated for one canonical environment, but it
applies to any :class:`~repro.scenario.Scenario` that yields ``E(X)`` /
``L(X)`` cost surfaces.  This subpackage makes "any scenario" concrete:

* :mod:`repro.scenarios.presets` — a registry of named, documented
  :class:`ScenarioPreset` environments (dense/sparse rings, low-power vs.
  high-rate sampling, CC2420 / CC1100 / TR1001 radios, bursty vs. periodic
  traffic), each with suggested application requirements.
* :mod:`repro.scenarios.suite` — :class:`SuiteResult`, the result of a
  ``suite`` spec, which solves the bargaining game for every (scenario ×
  protocol) pair through the :mod:`repro.runtime` batch layer (solve
  cache + optional process pool).
* :mod:`repro.scenarios.docs` — renders the registry into
  ``docs/scenarios.md`` so the documentation can never drift from the code.
"""

from repro.scenarios.presets import (
    ScenarioPreset,
    available_scenarios,
    register_scenario_preset,
    scenario_by_name,
    scenario_preset,
    scenario_presets,
    unregister_scenario_preset,
)
from repro.scenarios.suite import SuiteCell, SuiteResult

__all__ = [
    "ScenarioPreset",
    "SuiteCell",
    "SuiteResult",
    "available_scenarios",
    "register_scenario_preset",
    "scenario_by_name",
    "scenario_preset",
    "scenario_presets",
    "unregister_scenario_preset",
]
