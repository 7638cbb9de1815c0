"""Correctness checks the benchmark applies to the answers it timed.

Every check returns a list of failure messages; an empty list is a pass.
Checks run outside the timed regions.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

#: Constraint slack the solver itself accepts (``hybrid_solve``'s
#: ``feasibility_tolerance``).
SOLVER_TOLERANCE = 1e-7

#: Relative drift of E* and L* allowed against the reference answers.
REFERENCE_TOLERANCE = 1e-6

#: Relative slack when comparing an objective with the fine-grid winner
#: (the values are recomputed from the reported parameters).
OBJECTIVE_SLACK = 1e-12

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> Dict[str, Any]:
    """The committed answers at the default seed."""
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _max_violation(constraints: Sequence[Any], x: Any) -> float:
    return max((-float(constraint(x)) for constraint in constraints), default=0.0)


def check_game(model: Any, requirements: Any, solution: Optional[Any], grid_points: int) -> List[str]:
    """Check one game against its own constraints and the fine-grid winner.

    A feasible answer must meet every constraint of (P1), (P2) and (P4)
    within the solver tolerance at the parameters it reports, and each
    objective must be no worse than the best point of the exhaustive grid.
    An infeasible answer must be confirmed by the grid: (P1) or (P2) has
    no feasible grid point.
    """
    from repro.core.problems import (
        DelayMinimizationProblem,
        EnergyMinimizationProblem,
        NashBargainingProblem,
    )
    from repro.optimization.grid import batched, grid_search

    space = model.parameter_space
    p1 = EnergyMinimizationProblem(model, requirements)
    p2 = DelayMinimizationProblem(model, requirements)
    energy = batched(model.system_energy, model.energy_many)
    latency = batched(model.system_latency, model.latency_many)
    grid1 = grid_search(energy, space, p1.constraints(), points_per_dimension=grid_points)
    grid2 = grid_search(latency, space, p2.constraints(), points_per_dimension=grid_points)
    label = f"{model.name}(E<={requirements.energy_budget:.6g}, L<={requirements.max_delay:.6g})"
    if solution is None:
        if grid1.feasible and grid2.feasible:
            return [f"{label}: reported infeasible but the grid has feasible points"]
        return []

    failures: List[str] = []
    bargaining = solution.bargaining
    p4 = NashBargainingProblem(
        model,
        requirements,
        disagreement_energy=bargaining.disagreement_energy,
        disagreement_delay=bargaining.disagreement_delay,
    )
    nash = batched(p4.objective, p4.objective_many)
    grid4 = grid_search(nash, space, p4.constraints(), points_per_dimension=grid_points, maximize=True)
    stages = (
        ("P1", p1.constraints(), solution.energy_optimum.point, energy, grid1, False),
        ("P2", p2.constraints(), solution.delay_optimum.point, latency, grid2, False),
        ("P4", p4.constraints(), bargaining.point, nash, grid4, True),
    )
    for stage, constraints, point, objective, grid, maximize in stages:
        x = model.coerce_array(point.parameters)
        violation = _max_violation(constraints, x)
        if violation > SOLVER_TOLERANCE:
            failures.append(f"{label} {stage}: constraint violated by {violation:.3g}")
        if not grid.feasible:
            continue
        value = float(objective(x))
        slack = OBJECTIVE_SLACK * max(1.0, abs(grid.value))
        worse = value < grid.value - slack if maximize else value > grid.value + slack
        if worse:
            failures.append(
                f"{label} {stage}: objective {value!r} worse than the grid winner {grid.value!r}"
            )
    return failures


def check_against_reference(answers: Sequence[Mapping[str, Any]], reference: Sequence[Mapping[str, Any]]) -> List[str]:
    """Feasibility verdicts identical, E* and L* within the relative tolerance."""
    if len(answers) != len(reference):
        return [f"{len(answers)} answers against {len(reference)} reference entries"]
    failures: List[str] = []
    for answer, expected in zip(answers, reference):
        label = f"{expected['scenario']}/{expected['protocol']}"
        for key in ("scenario", "protocol", "energy_budget", "max_delay"):
            if answer[key] != expected[key]:
                failures.append(f"{label}: generated {key} {answer[key]!r} != reference {expected[key]!r}")
        if answer["feasible"] != expected["feasible"]:
            failures.append(f"{label}: feasible={answer['feasible']} but the reference says {expected['feasible']}")
            continue
        if not expected["feasible"]:
            continue
        for key in ("E_star", "L_star"):
            drift = abs(answer[key] - expected[key]) / abs(expected[key])
            if drift > REFERENCE_TOLERANCE:
                failures.append(f"{label}: |d{key}|/{key} = {drift:.3g} > {REFERENCE_TOLERANCE:g}")
    return failures


def check_verdicts(verdicts: Mapping[str, str], reference: Mapping[str, str]) -> List[str]:
    """Each campaign cell's verdict equals the reference verdict."""
    if dict(verdicts) == dict(reference):
        return []
    return [
        f"campaign cell {cell}: verdict {verdicts.get(cell)!r}, reference {reference.get(cell)!r}"
        for cell in sorted(set(verdicts) | set(reference))
        if verdicts.get(cell) != reference.get(cell)
    ]
