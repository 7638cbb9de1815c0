"""Requirement sweep results.

The paper's two figures are sweeps of the application requirements: Figure 1
fixes the energy budget and varies the delay bound, Figure 2 fixes the delay
bound and varies the energy budget.  Such sweeps are run through the spec
pipeline (``ExperimentSpec`` kinds ``sweep``, ``figure1`` and ``figure2``);
:class:`SweepResult` is the per-protocol ``raw`` those kinds return, and
:func:`collect_sweep` folds a sweep's solve outcomes into one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.results import GameSolution
from repro.protocols.base import DutyCycledMACModel


@dataclass
class SweepResult:
    """Result of sweeping one requirement for one protocol.

    Attributes:
        protocol: Protocol name.
        swept_parameter: ``"max_delay"`` or ``"energy_budget"``.
        values: The swept requirement values, in sweep order.
        solutions: One game solution per feasible value (same order as
            ``values`` minus the infeasible ones).
        infeasible_values: Requirement values for which the game had no
            feasible point (one entry per infeasible sweep position, so a
            value swept twice can appear twice).
        feasibility: Per-index feasibility flags, parallel to ``values``.
        cache_hits: Solves answered by the solve cache.
        cache_misses: Solves actually computed.
    """

    protocol: str
    swept_parameter: str
    values: List[float] = field(default_factory=list)
    solutions: List[GameSolution] = field(default_factory=list)
    infeasible_values: List[float] = field(default_factory=list)
    feasibility: List[bool] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def feasible_values(self) -> List[float]:
        """The swept values that produced a solution, in sweep order."""
        return [value for value, ok in zip(self.values, self.feasibility) if ok]

    def series(self) -> List[Dict[str, float]]:
        """One flat row per feasible sweep value (for tables and CSV)."""
        rows: List[Dict[str, float]] = []
        for value, solution in zip(self.feasible_values, self.solutions):
            rows.append(
                {
                    "protocol": self.protocol,
                    self.swept_parameter: value,
                    "E_best": solution.energy_best,
                    "L_worst": solution.delay_worst,
                    "E_worst": solution.energy_worst,
                    "L_best": solution.delay_best,
                    "E_star": solution.energy_star,
                    "L_star": solution.delay_star,
                    "fairness_residual": solution.bargaining.fairness_residual,
                }
            )
        return rows


def collect_sweep(
    model: DutyCycledMACModel,
    parameter: str,
    values: Sequence[float],
    outcomes: Sequence,
) -> SweepResult:
    """Fold a sweep's solve outcomes (in sweep order) into a SweepResult.

    Accepts anything outcome-shaped (``ok`` / ``infeasible`` / ``solution``
    / ``from_cache`` / ``tag``) — both the runtime layer's
    :class:`~repro.runtime.batch.TaskOutcome` and the api engine's
    :class:`~repro.api.engine.GridOutcome`.
    """
    result = SweepResult(
        protocol=model.name, swept_parameter=parameter, values=[float(v) for v in values]
    )
    for outcome in outcomes:
        if outcome.ok:
            result.solutions.append(outcome.solution)
            result.feasibility.append(True)
            if outcome.from_cache:
                result.cache_hits += 1
            else:
                result.cache_misses += 1
        elif outcome.infeasible:
            result.infeasible_values.append(float(outcome.tag))
            result.feasibility.append(False)
            result.cache_misses += 1
        else:
            # Only infeasibility is data; anything else is a real failure.
            raise outcome.error
    return result

