"""Scenario suite: the bargaining game across many environments at once.

Run with::

    python examples/scenario_suite.py [--quick]

The script runs every (scenario × protocol) pair of the scenario library as
one ``suite`` spec on a process pool, prints the resulting grid of Nash
bargaining agreements, and then shows the extension point: registering a
deployment-specific scenario preset and running a suite spec over it.
``--quick`` runs a coarse grid over three scenarios and two protocols.
"""

from __future__ import annotations

import argparse

from repro.analysis.reporting import format_table
from repro.api import ExperimentSpec, plan, run
from repro.network.topology import RingTopology
from repro.scenario import Scenario
from repro.scenarios import (
    ScenarioPreset,
    register_scenario_preset,
    scenario_presets,
    unregister_scenario_preset,
)


def run_library_suite(quick: bool) -> None:
    """Every registered scenario × every protocol, on 4 worker processes."""
    spec = (
        ExperimentSpec.experiment("suite")
        .with_solver(grid_points=20 if quick else 40)  # coarse: SLSQP polish refines it
        .with_runtime(workers=4)
    )
    if quick:
        spec = spec.with_scenarios("paper-default", "high-rate", "bursty").with_protocols(
            "xmac", "dmac"
        )
    print(f"Running {plan(spec).describe()} ...")
    result = run(spec)
    print(format_table(result.rows()))
    print(
        f"runner: {result.raw.runner_description}; "
        f"{len(result.raw.feasible_cells)}/{len(result.raw.cells)} pairs feasible"
    )


def run_custom_preset(quick: bool) -> None:
    """Register a deployment-specific preset and run a suite spec over it."""
    preset = ScenarioPreset(
        name="greenhouse",
        title="Greenhouse monitoring (3 rings, damp sub-GHz channel)",
        description=(
            "A small, dense indoor deployment sampled once per minute; "
            "short paths keep latency low even with long wake-up intervals."
        ),
        scenario=Scenario(
            topology=RingTopology(depth=3, density=10),
            sampling_rate=1.0 / 60.0,
        ),
        energy_budget=0.08,
        max_delay=2.0,
        tags=("example", "custom"),
    )
    register_scenario_preset(preset)
    try:
        spec = (
            ExperimentSpec.experiment("suite")
            .with_scenarios("greenhouse")
            .with_protocols("xmac", "dmac")
            .with_solver(grid_points=20 if quick else 40)
        )
        result = run(spec)
        print()
        print("Custom preset:")
        print(format_table(result.rows()))
    finally:
        unregister_scenario_preset("greenhouse")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="coarse grid over three scenarios and two protocols (finishes in seconds)",
    )
    args = parser.parse_args()
    print(f"Scenario library: {', '.join(p.name for p in scenario_presets())}")
    print()
    run_library_suite(args.quick)
    run_custom_preset(args.quick)


if __name__ == "__main__":
    main()
