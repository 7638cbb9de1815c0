"""Differential harness: the adaptive grid stage is identical to exhaustive.

The adaptive solver (:mod:`repro.optimization.adaptive`) is only allowed to
exist because it changes *nothing*: at every resolution it must return the
exact :class:`~repro.optimization.result.SolverResult` the exhaustive
:func:`~repro.optimization.grid.grid_search` returns — same argmin point,
same tie-break, same feasibility verdict, same nominal evaluation count —
while actually evaluating a fraction of the grid.  This module enforces
that four ways:

* a seeded fuzzer sweeps the **full matrix** — every scenario preset ×
  every protocol (xmac, lmac, dmac, scpmac) × every problem (P1 energy,
  P2 delay, P4 Nash) × fuzzed requirement points and grid sizes (odd and
  even, down to degenerate) — as ~200 cases; the first :data:`FAST_CASES`
  run in tier-1 (covering all protocols and problems), the full sweep is
  marked ``slow``;
* full-game identity: ``EnergyDelayGame`` solved with
  ``method="adaptive"`` returns a ``GameSolution`` *equal* to the
  exhaustive one, for every protocol;
* artifact identity, mirroring the batched-engine precedent: the solver
  method is runtime provenance — spec hashes match, result rows match,
  campaign spec dicts exclude the knob, and a warm replay (no work
  counters) writes bytes identical to a cold adaptive run;
* edge cases: unknown methods and malformed knobs are rejected with named
  errors, infeasible-everywhere games report identical least-violation
  answers, and no-finite-point grids raise the identical ``SolverError``.

Floats are compared with ``==`` and reported in ``float.hex`` so a one-ulp
drift is visible.  Failing tuples are appended to :data:`FAILURE_LOG`
(``solver-failures.txt``) with a one-line repro command so CI can upload
them as an artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api.engine import run as run_experiment
from repro.api.spec import SOLVER_METHOD_KEYS, ExperimentSpec
from repro.core.problems import (
    DelayMinimizationProblem,
    EnergyMinimizationProblem,
    NashBargainingProblem,
)
from repro.core.requirements import ApplicationRequirements
from repro.core.tradeoff import EnergyDelayGame
from repro.exceptions import ConfigurationError, SolverError
from repro.optimization import adaptive_grid_search, batched, grid_search
from repro.protocols.registry import create_protocol
from repro.scenarios.presets import scenario_preset, scenario_presets
from repro.validation.campaign import CampaignSpec

PROTOCOLS = ("dmac", "lmac", "scpmac", "xmac")
PROBLEMS = ("P1", "P2", "P4")
METHODS = ("exhaustive", "adaptive")

#: Fields of SolverResult compared bit-for-bit (``work`` is volatile and
#: deliberately absent: it is *expected* to differ between the methods).
_COMPARED_FIELDS = (
    "x",
    "value",
    "feasible",
    "method",
    "evaluations",
    "message",
    "constraint_violation",
)

#: Rounds of the full matrix: every preset × every protocol × every problem
#: per round, with fuzzed requirements and grid sizes.  8 presets × 4
#: protocols × 3 problems × 2 rounds = 192 cases.
MATRIX_ROUNDS = 2

#: Where failing repro tuples are appended (one JSON object per line); CI
#: uploads this file as an artifact when the sweep fails.
FAILURE_LOG = Path("solver-failures.txt")


def _hex(value):
    """Floats as hex (exact), everything else as repr."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, np.ndarray):
        return [float.hex(float(item)) for item in value.ravel()]
    if isinstance(value, dict):
        return {key: _hex(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hex(item) for item in value]
    return repr(value)


def assert_results_identical(exhaustive, adaptive, context=""):
    """Assert two SolverResults match field by field, bit for bit."""
    for field in _COMPARED_FIELDS:
        left = getattr(exhaustive, field)
        right = getattr(adaptive, field)
        if isinstance(left, np.ndarray):
            same = np.array_equal(left, right)
        else:
            same = left == right
        assert same, (
            f"{context}: {field} diverged\n"
            f"  exhaustive: {_hex(left)}\n"
            f"  adaptive:   {_hex(right)}"
        )


def _generate_cases():
    """The deterministic full-matrix sweep; the module-level seed pins it.

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
#: Tier-1 subset: covers every protocol and every problem (matrix order)
#: without paying for the full sweep.
FAST_CASES = CASES[:16]


def _problem_instance(problem, model, requirements, grid_n):
    """Objective/space/constraints of one fuzzed problem, or ``None``.

    P4 needs a disagreement point; it is built from exhaustive grid solves
    of (P1) and (P2) at the same resolution — when either is infeasible
    the P4 instance cannot be constructed and the case degenerates to the
    (P1) comparison, which still exercises the infeasible branch.
    """
    if problem == "P1":
        p1 = EnergyMinimizationProblem(model, requirements)
        objective = batched(model.system_energy, model.energy_many)
        return objective, p1.space, p1.constraints(), False
    if problem == "P2":
        p2 = DelayMinimizationProblem(model, requirements)
        objective = batched(model.system_latency, model.latency_many)
        return objective, p2.space, p2.constraints(), False
    p1 = EnergyMinimizationProblem(model, requirements)
    p2 = DelayMinimizationProblem(model, requirements)
    energy_objective = batched(model.system_energy, model.energy_many)
    latency_objective = batched(model.system_latency, model.latency_many)
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


def _run_both(preset, protocol, problem, max_delay, energy_budget, grid_n):
    scenario = scenario_preset(preset).scenario
    model = create_protocol(protocol, scenario)
    requirements = ApplicationRequirements(
        energy_budget=energy_budget,
        max_delay=max_delay,
        sampling_rate=scenario.sampling_rate,
    )
    instance = _problem_instance(problem, model, requirements, grid_n)
    if instance is None:
        instance = _problem_instance("P1", model, requirements, grid_n)
    objective, space, constraints, maximize = instance
    exhaustive_error = adaptive_error = None
    exhaustive = adaptive = None
    try:
        exhaustive = grid_search(
            objective,
            space,
            constraints,
            points_per_dimension=grid_n,
            maximize=maximize,
        )
    except SolverError as error:
        exhaustive_error = str(error)
    try:
        adaptive = adaptive_grid_search(
            objective,
            space,
            constraints,
            points_per_dimension=grid_n,
            maximize=maximize,
        )
    except SolverError as error:
        adaptive_error = str(error)
    return exhaustive, adaptive, exhaustive_error, adaptive_error


def _check_case(preset, protocol, problem, max_delay, energy_budget, grid_n):
    """Run one matrix case; on failure, log the repro tuple and command."""
    case = {
        "preset": preset,
        "protocol": protocol,
        "problem": problem,
        "max_delay": max_delay,
        "energy_budget": energy_budget,
        "grid_n": grid_n,
    }
    repro = (
        "PYTHONPATH=src python -m pytest "
        "tests/optimization/test_adaptive_differential.py "
        f"-m '' -k '{preset}-{protocol}-{problem}-n{grid_n}'"
    )
    context = f"case {case!r}\n  repro: {repro}"
    try:
        exhaustive, adaptive, exhaustive_error, adaptive_error = _run_both(
            preset, protocol, problem, max_delay, energy_budget, grid_n
        )
        assert exhaustive_error == adaptive_error, (
            f"{context}: error behaviour diverged\n"
            f"  exhaustive: {exhaustive_error!r}\n"
            f"  adaptive:   {adaptive_error!r}"
        )
        if exhaustive is not None:
            assert_results_identical(exhaustive, adaptive, context=context)
    except AssertionError:
        with FAILURE_LOG.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(case, sort_keys=True) + "\n")
        raise


class TestFuzzedIdentityFast:
    """Tier-1 subset of the differential sweep."""

    @pytest.mark.parametrize(
        "preset,protocol,problem,max_delay,energy_budget,grid_n", FAST_CASES
    )
    def test_identical(self, preset, protocol, problem, max_delay, energy_budget, grid_n):
        _check_case(preset, protocol, problem, max_delay, energy_budget, grid_n)

    def test_fast_subset_covers_every_protocol_and_problem(self):
        protocols = {case.values[1] for case in FAST_CASES}
        problems = {case.values[2] for case in FAST_CASES}
        assert protocols == set(PROTOCOLS)
        assert problems == set(PROBLEMS)


@pytest.mark.slow
class TestFuzzedIdentityFull:
    """The full matrix sweep (deselected by default; ``-m slow`` runs it)."""

    @pytest.mark.parametrize(
        "preset,protocol,problem,max_delay,energy_budget,grid_n",
        CASES[len(FAST_CASES):],
    )
    def test_identical(self, preset, protocol, problem, max_delay, energy_budget, grid_n):
        _check_case(preset, protocol, problem, max_delay, energy_budget, grid_n)


class TestGameSolutionIdentity:
    """The full game returns an *equal* GameSolution under either method."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_game_solution_equal(self, protocol):
        scenario = scenario_preset("paper-default").scenario
        model = create_protocol(protocol, scenario)
        requirements = ApplicationRequirements(
            energy_budget=0.06, max_delay=6.0, sampling_rate=scenario.sampling_rate
        )
        solutions = {}
        for method in METHODS:
            game = EnergyDelayGame(
                model, requirements, grid_points_per_dimension=24, method=method
            )
            solutions[method] = game.solve()
        assert solutions["exhaustive"] == solutions["adaptive"]

    def test_adaptive_records_work_and_exhaustive_does_not(self):
        scenario = scenario_preset("paper-default").scenario
        model = create_protocol("lmac", scenario)
        requirements = ApplicationRequirements(
            energy_budget=0.06, max_delay=6.0, sampling_rate=scenario.sampling_rate
        )
        exhaustive = EnergyDelayGame(
            model, requirements, grid_points_per_dimension=24, method="exhaustive"
        ).solve()
        adaptive = EnergyDelayGame(
            model, requirements, grid_points_per_dimension=24, method="adaptive"
        ).solve()
        assert exhaustive.solver_work is None
        work = adaptive.solver_work
        assert work is not None
        assert work["coarse_evaluations"] > 0
        # Equality holds even though the volatile counters differ.
        assert exhaustive == adaptive

    def test_paper_resolution_evaluation_reduction(self):
        # The tentpole's claim: >= 5x fewer grid evaluations at the paper's
        # 60-point resolution on the 2D protocol (where the grid bites).
        scenario = scenario_preset("paper-default").scenario
        model = create_protocol("lmac", scenario)
        p1 = EnergyMinimizationProblem(
            model,
            ApplicationRequirements(
                energy_budget=0.06, max_delay=6.0, sampling_rate=scenario.sampling_rate
            ),
        )
        objective = batched(model.system_energy, model.energy_many)
        result = adaptive_grid_search(
            objective, p1.space, p1.constraints(), points_per_dimension=60
        )
        actual = result.work["coarse_evaluations"] + result.work["refined_evaluations"]
        assert result.evaluations == 60 * 60
        assert actual * 5 <= result.evaluations


class TestArtifactIdentity:
    """``solver.method`` is runtime provenance: results don't move."""

    @staticmethod
    def _spec(method: str) -> ExperimentSpec:
        return ExperimentSpec.from_dict(
            {
                "kind": "solve",
                "scenario": {"depth": 4, "density": 6, "sampling_period": 600.0},
                "protocols": ["xmac", "lmac"],
                "solver": {"grid_points": 20, "method": method},
                "runtime": {"cache": False},
            }
        )

    def test_spec_hash_excludes_method_knobs(self):
        assert self._spec("exhaustive").spec_hash() == self._spec("adaptive").spec_hash()
        base = self._spec("exhaustive")
        tweaked = base.with_solver(coarse_points=9, refine_rounds=2, top_k=5)
        assert base.spec_hash() == tweaked.spec_hash()

    def test_rows_and_artifact_identical_across_methods(self):
        results = {method: run_experiment(self._spec(method)) for method in METHODS}
        assert results["exhaustive"].rows() == results["adaptive"].rows()
        payloads = {}
        for method, result in results.items():
            payload = result.as_dict()
            # The embedded spec honestly records the method it was asked to
            # run with; everything *computed* must be identical, exactly
            # like runtime.workers.
            payload["spec"]["solver"] = {
                key: value
                for key, value in payload["spec"]["solver"].items()
                if key not in SOLVER_METHOD_KEYS
            }
            payloads[method] = json.dumps(payload, sort_keys=True)
        assert payloads["exhaustive"] == payloads["adaptive"]

    def test_warm_replay_bytes_identical_despite_counters(self, tmp_path):
        # A cold adaptive run records work counters; a warm replay from the
        # store records none.  The artifact must not see the difference.
        from repro.api.engine import runner_for
        from repro.store import ResultStore

        spec = ExperimentSpec.from_dict(
            {
                "kind": "solve",
                "scenario": {"depth": 4, "density": 6, "sampling_period": 600.0},
                "protocols": ["xmac"],
                "solver": {"grid_points": 20, "method": "adaptive"},
            }
        )
        store = ResultStore(tmp_path / "store")
        cold = run_experiment(spec, runner=runner_for(spec, store=store))
        warm = run_experiment(spec, runner=runner_for(spec, store=store))
        assert any(key.startswith("solver_") for key in cold.metadata)
        assert not any(key.startswith("solver_") for key in warm.metadata)
        assert cold.json_text() == warm.json_text()

    def test_campaign_spec_dict_excludes_method(self):
        spec = CampaignSpec(
            scenarios=("high-rate",), protocols=("xmac",), solver_method="adaptive"
        )
        assert "solver_method" not in spec.as_dict()
        assert "method" not in spec.as_dict()

    def test_cache_key_shared_across_methods(self):
        from repro.runtime.cache import solve_key

        scenario = scenario_preset("paper-default").scenario
        model = create_protocol("xmac", scenario)
        requirements = ApplicationRequirements(
            energy_budget=0.06, max_delay=6.0, sampling_rate=scenario.sampling_rate
        )
        keys = {
            method: solve_key(
                model,
                requirements,
                {
                    "grid_points_per_dimension": 24,
                    "method": method,
                    "coarse_points": 11,
                    "refine_rounds": 3,
                    "top_k": 3,
                },
            )
            for method in METHODS
        }
        assert keys["exhaustive"] == keys["adaptive"]
        bare = solve_key(model, requirements, {"grid_points_per_dimension": 24})
        assert keys["exhaustive"] == bare


class TestEdgeCases:
    """Degenerate inputs both methods must handle the same way."""

    @staticmethod
    def _p1(protocol="xmac", max_delay=6.0, energy_budget=0.06):
        scenario = scenario_preset("paper-default").scenario
        model = create_protocol(protocol, scenario)
        requirements = ApplicationRequirements(
            energy_budget=energy_budget,
            max_delay=max_delay,
            sampling_rate=scenario.sampling_rate,
        )
        problem = EnergyMinimizationProblem(model, requirements)
        objective = batched(model.system_energy, model.energy_many)
        return objective, problem.space, problem.constraints()

    def test_infeasible_everywhere_identical(self):
        objective, space, constraints = self._p1(max_delay=1e-6)
        for n in (2, 17, 60, 61):
            exhaustive = grid_search(
                objective, space, constraints, points_per_dimension=n
            )
            adaptive = adaptive_grid_search(
                objective, space, constraints, points_per_dimension=n
            )
            assert not exhaustive.feasible
            assert_results_identical(exhaustive, adaptive, context=f"infeasible n={n}")

    def test_tiny_grid_identical(self):
        objective, space, constraints = self._p1()
        for n in (2, 3):
            exhaustive = grid_search(
                objective, space, constraints, points_per_dimension=n
            )
            adaptive = adaptive_grid_search(
                objective, space, constraints, points_per_dimension=n
            )
            assert_results_identical(exhaustive, adaptive, context=f"tiny n={n}")

    def test_scalar_objective_falls_back_to_grid_search(self):
        # Without batched twins the adaptive stage has no vectorized path;
        # it must defer to the exhaustive scan rather than crawl per-point.
        _, space, _ = self._p1()
        result = adaptive_grid_search(
            lambda x: float(x[0]), space, (), points_per_dimension=9
        )
        exhaustive = grid_search(
            lambda x: float(x[0]), space, (), points_per_dimension=9
        )
        assert_results_identical(exhaustive, result, context="scalar fallback")

    def test_unknown_method_rejected_everywhere(self):
        objective, space, constraints = self._p1()
        from repro.optimization import hybrid_solve

        with pytest.raises(ConfigurationError, match="unknown solver method"):
            hybrid_solve(objective, space, constraints, method="bisect")
        with pytest.raises(ConfigurationError, match="solver.method"):
            ExperimentSpec.from_dict(
                {"kind": "solve", "solver": {"method": "bisect"}}
            )
        with pytest.raises(ConfigurationError, match="solver_method"):
            ExperimentSpec.from_dict(
                {"kind": "solve", "runtime": {"solver_method": "bisect"}}
            )
        with pytest.raises(ConfigurationError, match="unknown solver method"):
            CampaignSpec(
                scenarios=("high-rate",), protocols=("xmac",), solver_method="bisect"
            )

    @pytest.mark.parametrize(
        "knob,bad",
        [
            ("coarse_points", 1),
            ("coarse_points", 2.5),
            ("refine_rounds", 0),
            ("top_k", 0),
            ("top_k", True),
        ],
    )
    def test_invalid_knobs_rejected(self, knob, bad):
        objective, space, constraints = self._p1()
        with pytest.raises(ConfigurationError, match=f"solver.{knob}"):
            adaptive_grid_search(
                objective, space, constraints, points_per_dimension=9, **{knob: bad}
            )
        with pytest.raises(ConfigurationError, match=f"solver.{knob}"):
            ExperimentSpec.from_dict({"kind": "solve", "solver": {knob: bad}})
