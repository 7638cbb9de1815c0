"""Results of the scenario suite: every (scenario × protocol) game in one batch.

A suite is an :class:`~repro.api.spec.ExperimentSpec` of kind ``"suite"``:
the spec pipeline expands its scenario presets and protocol names into one
solve grid and pushes it through the shared
:func:`repro.api.engine.solve_grid` primitive — so a suite run gets the
solve cache, in-batch deduplication and process-pool fan-out (bit-identical
to a serial run) for free.  :class:`SuiteResult` is the ``raw`` of that
kind.

Infeasibility is data, not failure: a (scenario, protocol) pair whose game
has no feasible point — or whose protocol model cannot even be constructed
in that environment — is recorded as an infeasible :class:`SuiteCell`
without poisoning the rest of the batch.  Any other solver error is a real
bug and is re-raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.results import GameSolution
from repro.protocols.registry import canonical_name


@dataclass(frozen=True)
class SuiteCell:
    """Outcome of one (scenario, protocol) game of a suite run.

    Attributes:
        scenario: Preset name.
        protocol: Canonical protocol name.
        solution: The game solution, or ``None`` when the cell is infeasible.
        error: Human-readable reason when ``solution`` is ``None``.
        from_cache: Whether the solve was answered by the solve cache.
        solve_seconds: Wall-clock seconds of the solve (0 for cache hits).
    """

    scenario: str
    protocol: str
    solution: Optional[GameSolution]
    error: Optional[str] = None
    from_cache: bool = False
    solve_seconds: float = 0.0

    @property
    def feasible(self) -> bool:
        """Whether the game had a solution in this cell."""
        return self.solution is not None


@dataclass
class SuiteResult:
    """All cells of one suite run, in (scenario-major) submission order.

    Attributes:
        cells: One :class:`SuiteCell` per (scenario, protocol) pair.
        runner_description: Label of the runner that executed the batch
            (e.g. ``"process[4]+cache"``), for reports.
    """

    cells: List[SuiteCell] = field(default_factory=list)
    runner_description: str = ""

    @property
    def feasible_cells(self) -> List[SuiteCell]:
        """Cells whose game produced a solution."""
        return [cell for cell in self.cells if cell.feasible]

    @property
    def infeasible_cells(self) -> List[SuiteCell]:
        """Cells whose game had no feasible point (or no valid model)."""
        return [cell for cell in self.cells if not cell.feasible]

    def solution(self, scenario: str, protocol: str) -> Optional[GameSolution]:
        """The solution of one cell, or ``None`` if absent/infeasible."""
        protocol = canonical_name(protocol)
        for cell in self.cells:
            if cell.scenario == scenario and cell.protocol == protocol:
                return cell.solution
        return None

    def by_scenario(self) -> Dict[str, List[SuiteCell]]:
        """Cells grouped by scenario name, preserving submission order."""
        grouped: Dict[str, List[SuiteCell]] = {}
        for cell in self.cells:
            grouped.setdefault(cell.scenario, []).append(cell)
        return grouped

    def rows(self) -> List[Dict[str, object]]:
        """One flat row per cell, for tables and CSV export.

        Every row carries the same columns (``format_table`` and CSV export
        require it): infeasible cells leave the solution columns blank and
        fill ``error``; feasible cells leave ``error`` blank.
        """
        rows: List[Dict[str, object]] = []
        for cell in self.cells:
            solution = cell.solution
            rows.append(
                {
                    "scenario": cell.scenario,
                    "protocol": cell.protocol,
                    "feasible": cell.feasible,
                    "E_star": solution.energy_star if solution else "",
                    "L_star": solution.delay_star if solution else "",
                    "E_best": solution.energy_best if solution else "",
                    "L_best": solution.delay_best if solution else "",
                    "fairness_residual": (
                        solution.bargaining.fairness_residual if solution else ""
                    ),
                    "error": "" if solution else (cell.error or "")[:80],
                }
            )
        return rows


def suite_cells_from_outcomes(outcomes: Sequence[object]) -> List[SuiteCell]:
    """Fold grid outcomes (:class:`repro.api.engine.GridOutcome`) into cells.

    Build failures and infeasible games become infeasible cells; the grid
    layer has already re-raised anything else.
    """
    cells: List[SuiteCell] = []
    for outcome in outcomes:
        grid_cell = outcome.cell  # type: ignore[attr-defined]
        if outcome.ok:  # type: ignore[attr-defined]
            cells.append(
                SuiteCell(
                    scenario=grid_cell.scenario,
                    protocol=grid_cell.protocol,
                    solution=outcome.solution,  # type: ignore[attr-defined]
                    from_cache=outcome.from_cache,  # type: ignore[attr-defined]
                    solve_seconds=outcome.solve_seconds,  # type: ignore[attr-defined]
                )
            )
        else:
            cells.append(
                SuiteCell(
                    scenario=grid_cell.scenario,
                    protocol=grid_cell.protocol,
                    solution=None,
                    error=outcome.error_message,  # type: ignore[attr-defined]
                    solve_seconds=outcome.solve_seconds,  # type: ignore[attr-defined]
                )
            )
    return cells
