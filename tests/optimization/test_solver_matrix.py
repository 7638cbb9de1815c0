"""The one solver path over the full scenario matrix.

``hybrid_solve`` runs the exhaustive grid scan, polishes the grid winner
with SLSQP and cross-checks with multi-start SLSQP.  The vectorized grid
tests pin that stage on the paper-default scenario; this module sweeps a
seeded **matrix** — every scenario preset × every protocol (xmac, lmac,
dmac, scpmac) × every problem (P1 energy, P2 delay, P4 Nash) × fuzzed
requirement points and grid sizes (odd and even, down to degenerate) — and
checks on each case that:

* the scalar and vectorized grid stages return bit-identical results;
* the hybrid answer is never worse than its own grid stage (feasibility
  dominates, then the objective, then the violation), lies inside the
  parameter box, meets every constraint within the feasibility tolerance
  when it claims feasibility, and counts every stage's evaluations;
* a second solve of the same case returns the same answer bit for bit.

The first :data:`FAST_CASES` run in tier-1 (covering every protocol and
problem); the rest of the sweep is marked ``slow``.  Degenerate inputs
(infeasible-everywhere games, two- and three-point grids) follow.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core.problems import (
    DelayMinimizationProblem,
    EnergyMinimizationProblem,
    NashBargainingProblem,
)
from repro.core.requirements import ApplicationRequirements
from repro.exceptions import SolverError
from repro.optimization import batched, grid_search, hybrid_solve
from repro.protocols.registry import create_protocol
from repro.scenarios.presets import scenario_preset, scenario_presets

PROTOCOLS = ("dmac", "lmac", "scpmac", "xmac")
PROBLEMS = ("P1", "P2", "P4")

#: ``hybrid_solve``'s default feasibility tolerance.
TOLERANCE = 1e-7

#: Rounds of the matrix: 8 presets × 4 protocols × 3 problems per round,
#: with fuzzed requirements and grid sizes.
MATRIX_ROUNDS = 2


def _generate_cases():
    """The deterministic matrix; the generator's seed pins it.

    Cases are ordered preset-major / protocol / problem within each round,
    so the tier-1 prefix (:data:`FAST_CASES`) covers every protocol and
    every problem.
    """
    preset_names = sorted(preset.name for preset in scenario_presets())
    rng = np.random.default_rng(202608)
    cases = []
    index = 0
    for _ in range(MATRIX_ROUNDS):
        for preset in preset_names:
            for protocol in PROTOCOLS:
                for problem in PROBLEMS:
                    max_delay = float(rng.choice((0.5, 2.0, 4.0, 8.0)))
                    energy_budget = float(rng.choice((0.01, 0.05, 0.12)))
                    grid_n = int(rng.choice((60, 61, 45, 17, 5)))
                    cases.append(
                        pytest.param(
                            preset,
                            protocol,
                            problem,
                            max_delay,
                            energy_budget,
                            grid_n,
                            id=f"{index:03d}-{preset}-{protocol}-{problem}-n{grid_n}",
                        )
                    )
                    index += 1
    return cases


CASES = _generate_cases()
#: Tier-1 subset: covers every protocol and every problem without paying
#: for the full sweep.
FAST_CASES = CASES[:16]


def _model_and_requirements(preset, protocol, max_delay, energy_budget):
    scenario = scenario_preset(preset).scenario
    model = create_protocol(protocol, scenario)
    requirements = ApplicationRequirements(
        energy_budget=energy_budget,
        max_delay=max_delay,
        sampling_rate=scenario.sampling_rate,
    )
    return model, requirements


def _problem_instance(problem, model, requirements, grid_n):
    """Objective, space, constraints and sense of one case, or ``None``.

    P4 needs a disagreement point; it is built from grid solves of (P1)
    and (P2) at the same resolution.  When either is infeasible the P4
    instance cannot be built and the caller falls back to (P1), which
    still exercises the infeasible branch.
    """
    p1 = EnergyMinimizationProblem(model, requirements)
    energy_objective = batched(model.system_energy, model.energy_many)
    if problem == "P1":
        return energy_objective, p1.space, p1.constraints(), False
    p2 = DelayMinimizationProblem(model, requirements)
    latency_objective = batched(model.system_latency, model.latency_many)
    if problem == "P2":
        return latency_objective, p2.space, p2.constraints(), False
    try:
        r1 = grid_search(
            energy_objective, p1.space, p1.constraints(), points_per_dimension=grid_n
        )
        r2 = grid_search(
            latency_objective, p2.space, p2.constraints(), points_per_dimension=grid_n
        )
    except SolverError:
        return None
    if not (r1.feasible and r2.feasible):
        return None
    p4 = NashBargainingProblem(
        model,
        requirements,
        disagreement_energy=float(model.system_energy(r2.x)),
        disagreement_delay=float(model.system_latency(r1.x)),
    )
    objective = batched(p4.objective, p4.objective_many)
    return objective, p4.space, p4.constraints(), True


def _assert_same_result(a, b, context):
    assert np.array_equal(a.x, b.x), f"{context}: x {a.x!r} != {b.x!r}"
    for field in ("value", "feasible", "method", "evaluations", "message",
                  "constraint_violation"):
        left, right = getattr(a, field), getattr(b, field)
        assert left == right, f"{context}: {field} {left!r} != {right!r}"


def _assert_not_worse(hybrid, grid, maximize, context):
    """``hybrid`` beats or ties ``grid`` under the selection rule."""
    if grid.feasible:
        assert hybrid.feasible, f"{context}: grid feasible, hybrid not"
        if maximize:
            assert hybrid.value >= grid.value, f"{context}: {hybrid.value} < {grid.value}"
        else:
            assert hybrid.value <= grid.value, f"{context}: {hybrid.value} > {grid.value}"
    elif not hybrid.feasible:
        assert hybrid.constraint_violation <= grid.constraint_violation, context


def _assert_sound(result, objective, space, constraints, context):
    """The reported point, value and verdict are what they claim."""
    assert result.method.startswith("hybrid("), context
    assert np.all(result.x >= space.lower_bounds), context
    assert np.all(result.x <= space.upper_bounds), context
    assert result.value == float(objective(result.x)), context
    if result.feasible:
        margins = [float(constraint(result.x)) for constraint in constraints]
        assert min(margins, default=0.0) >= -TOLERANCE, f"{context}: margins {margins}"


def _check_case(preset, protocol, problem, max_delay, energy_budget, grid_n):
    context = (
        f"case {preset}/{protocol}/{problem} max_delay={max_delay} "
        f"energy_budget={energy_budget} grid_n={grid_n}"
    )
    model, requirements = _model_and_requirements(
        preset, protocol, max_delay, energy_budget
    )
    instance = _problem_instance(problem, model, requirements, grid_n)
    if instance is None:
        instance = _problem_instance("P1", model, requirements, grid_n)
    objective, space, constraints, maximize = instance
    kwargs = {"points_per_dimension": grid_n, "maximize": maximize}
    try:
        grid = grid_search(objective, space, constraints, vectorize=True, **kwargs)
    except SolverError as error:
        with pytest.raises(SolverError, match=re.escape(str(error))):
            grid_search(objective, space, constraints, vectorize=False, **kwargs)
        return
    scalar = grid_search(objective, space, constraints, vectorize=False, **kwargs)
    _assert_same_result(grid, scalar, f"{context} (grid stage)")

    hybrid = hybrid_solve(
        objective,
        space,
        constraints,
        maximize=maximize,
        grid_points_per_dimension=grid_n,
    )
    _assert_not_worse(hybrid, grid, maximize, context)
    _assert_sound(hybrid, objective, space, constraints, context)
    assert hybrid.evaluations > grid.evaluations, context

    again = hybrid_solve(
        objective,
        space,
        constraints,
        maximize=maximize,
        grid_points_per_dimension=grid_n,
    )
    _assert_same_result(hybrid, again, f"{context} (repeat)")


class TestMatrixFast:
    """Tier-1 subset of the matrix."""

    @pytest.mark.parametrize(
        "preset,protocol,problem,max_delay,energy_budget,grid_n", FAST_CASES
    )
    def test_case(self, preset, protocol, problem, max_delay, energy_budget, grid_n):
        _check_case(preset, protocol, problem, max_delay, energy_budget, grid_n)

    def test_fast_subset_covers_every_protocol_and_problem(self):
        protocols = {case.values[1] for case in FAST_CASES}
        problems = {case.values[2] for case in FAST_CASES}
        assert protocols == set(PROTOCOLS)
        assert problems == set(PROBLEMS)


@pytest.mark.slow
class TestMatrixFull:
    """The rest of the matrix (deselected by default; ``-m slow`` runs it)."""

    @pytest.mark.parametrize(
        "preset,protocol,problem,max_delay,energy_budget,grid_n",
        CASES[len(FAST_CASES):],
    )
    def test_case(self, preset, protocol, problem, max_delay, energy_budget, grid_n):
        _check_case(preset, protocol, problem, max_delay, energy_budget, grid_n)


class TestEdgeCases:
    """Degenerate inputs the one path must still answer soundly."""

    @staticmethod
    def _p1(max_delay=6.0, energy_budget=0.06):
        model, requirements = _model_and_requirements(
            "paper-default", "xmac", max_delay, energy_budget
        )
        problem = EnergyMinimizationProblem(model, requirements)
        objective = batched(model.system_energy, model.energy_many)
        return objective, problem.space, problem.constraints()

    @pytest.mark.parametrize("grid_n", [2, 17, 60, 61])
    def test_infeasible_everywhere_reports_least_violation(self, grid_n):
        objective, space, constraints = self._p1(max_delay=1e-6)
        grid = grid_search(objective, space, constraints, points_per_dimension=grid_n)
        hybrid = hybrid_solve(
            objective, space, constraints, grid_points_per_dimension=grid_n
        )
        assert not grid.feasible
        assert not hybrid.feasible
        assert hybrid.constraint_violation > TOLERANCE
        _assert_not_worse(hybrid, grid, False, f"infeasible n={grid_n}")
        _assert_sound(hybrid, objective, space, constraints, f"infeasible n={grid_n}")

    @pytest.mark.parametrize("grid_n", [2, 3])
    def test_tiny_grid_still_reaches_the_fine_answer(self, grid_n):
        # The polish and the multistart cross-check do not depend on the
        # grid's resolution, so a two- or three-point seed grid still lands
        # on the paper-resolution optimum.
        objective, space, constraints = self._p1()
        tiny = hybrid_solve(
            objective, space, constraints, grid_points_per_dimension=grid_n
        )
        fine = hybrid_solve(objective, space, constraints, grid_points_per_dimension=60)
        grid = grid_search(objective, space, constraints, points_per_dimension=grid_n)
        _assert_not_worse(tiny, grid, False, f"tiny n={grid_n}")
        _assert_sound(tiny, objective, space, constraints, f"tiny n={grid_n}")
        assert tiny.feasible and fine.feasible
        assert tiny.value == pytest.approx(fine.value, rel=1e-6)
