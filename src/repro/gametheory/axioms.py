"""Numerical checks of the Nash bargaining axioms.

The paper invokes the four classical axioms — Pareto optimality, symmetry,
scale independence, and independence of irrelevant alternatives — to justify
the uniqueness of the Nash Bargaining Solution.  For finite games these can
be checked mechanically; the checks are used in the test-suite and are
exposed publicly so users applying the framework to new protocols can verify
that the discretized game they build still behaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence

import numpy as np

from repro.exceptions import BargainingError
from repro.gametheory.game import BargainingGame, BargainingPoint
from repro.gametheory.nash import nash_bargaining_solution

#: A bargaining rule maps a game to a selected point.
BargainingRule = Callable[[BargainingGame], BargainingPoint]


@dataclass(frozen=True)
class AxiomCheck:
    """Result of one axiom check.

    Attributes:
        name: Axiom identifier.
        satisfied: Whether the axiom held on this game.
        detail: Human-readable explanation of what was compared.
    """

    name: str
    satisfied: bool
    detail: str


def check_pareto_optimality(
    game: BargainingGame,
    rule: BargainingRule = nash_bargaining_solution,
    tolerance: float = 1e-9,
) -> AxiomCheck:
    """The selected point must not be dominated by any feasible alternative.

    Args:
        game: The finite bargaining game to check on.
        rule: The bargaining rule under test (default: the Nash solution).
        tolerance: Domination slack.

    Returns:
        An :class:`AxiomCheck` named ``"pareto_optimality"``.
    """
    point = rule(game)
    efficient = game.is_pareto_efficient(point.index, tolerance)
    return AxiomCheck(
        name="pareto_optimality",
        satisfied=efficient,
        detail=f"selected index {point.index} payoff {point.payoff}",
    )


def check_symmetry(
    game: BargainingGame,
    rule: BargainingRule = nash_bargaining_solution,
    tolerance: float = 1e-9,
) -> AxiomCheck:
    """Swapping the players must swap the selected payoffs.

    Args:
        game: The finite bargaining game to check on.
        rule: The bargaining rule under test (default: the Nash solution).
        tolerance: Relative comparison slack.

    Returns:
        An :class:`AxiomCheck` named ``"symmetry"``.
    """
    original = rule(game)
    swapped = rule(game.swapped())
    expected = (original.payoff[1], original.payoff[0])
    satisfied = (
        abs(swapped.payoff[0] - expected[0]) <= tolerance * max(1.0, abs(expected[0]))
        and abs(swapped.payoff[1] - expected[1]) <= tolerance * max(1.0, abs(expected[1]))
    )
    return AxiomCheck(
        name="symmetry",
        satisfied=satisfied,
        detail=f"original {original.payoff}, swapped {swapped.payoff}",
    )


def check_scale_invariance(
    game: BargainingGame,
    rule: BargainingRule = nash_bargaining_solution,
    scale: Sequence[float] = (2.5, 0.4),
    shift: Sequence[float] = (1.0, -3.0),
    tolerance: float = 1e-9,
) -> AxiomCheck:
    """A positive affine rescaling of utilities must map the solution accordingly.

    Args:
        game: The finite bargaining game to check on.
        rule: The bargaining rule under test (default: the Nash solution).
        scale: Per-player positive scale factors of the affine map.
        shift: Per-player shifts of the affine map.
        tolerance: Comparison slack, relative to each player's largest
            payoff magnitude in the rescaled game.

    Returns:
        An :class:`AxiomCheck` named ``"scale_invariance"``.
    """
    original = rule(game)
    rescaled = game.rescaled(scale, shift)
    transformed = rule(rescaled)
    scale_array = np.asarray(scale, dtype=float)
    shift_array = np.asarray(shift, dtype=float)
    expected = np.asarray(original.payoff) * scale_array + shift_array
    actual = np.asarray(transformed.payoff)
    # Compare per player relative to the largest payoff magnitude of the
    # rescaled game: an absolute floor such as ``max(1, |expected|)`` would
    # let any pick pass once the payoffs are rescaled far below one.
    magnitude = np.abs(rescaled.payoffs).max(axis=0)
    satisfied = bool(np.all(np.abs(actual - expected) <= tolerance * magnitude))
    return AxiomCheck(
        name="scale_invariance",
        satisfied=satisfied,
        detail=f"expected {expected.tolist()}, actual {actual.tolist()}",
    )


def check_independence_of_irrelevant_alternatives(
    game: BargainingGame,
    rule: BargainingRule = nash_bargaining_solution,
    keep_fraction: float = 0.5,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> AxiomCheck:
    """Removing unchosen alternatives must not change the selected payoff.

    A random subset of the alternatives (always containing the originally
    selected one) is kept; the rule must select the same payoff on the
    restricted game.

    Args:
        game: The finite bargaining game to check on.
        rule: The bargaining rule under test (default: the Nash solution).
        keep_fraction: Fraction of alternatives kept in the restricted game.
        seed: Seed of the random subset.
        tolerance: Relative comparison slack.

    Returns:
        An :class:`AxiomCheck` named
        ``"independence_of_irrelevant_alternatives"``.

    Raises:
        BargainingError: if ``keep_fraction`` is outside ``(0, 1]``.
    """
    if not (0.0 < keep_fraction <= 1.0):
        raise BargainingError(f"keep_fraction must be in (0, 1], got {keep_fraction!r}")
    original = rule(game)
    rng = np.random.default_rng(seed)
    keep_mask = rng.uniform(0.0, 1.0, size=game.size) < keep_fraction
    keep_mask[original.index] = True
    kept_indices = np.flatnonzero(keep_mask)
    restricted = game.restricted_to(kept_indices)
    reduced = rule(restricted)
    satisfied = (
        abs(reduced.payoff[0] - original.payoff[0])
        <= tolerance * max(1.0, abs(original.payoff[0]))
        and abs(reduced.payoff[1] - original.payoff[1])
        <= tolerance * max(1.0, abs(original.payoff[1]))
    )
    return AxiomCheck(
        name="independence_of_irrelevant_alternatives",
        satisfied=satisfied,
        detail=(
            f"kept {kept_indices.size}/{game.size} alternatives; "
            f"original {original.payoff}, restricted {reduced.payoff}"
        ),
    )


def check_all_axioms(
    game: BargainingGame,
    rule: BargainingRule = nash_bargaining_solution,
    tolerance: float = 1e-9,
) -> Dict[str, AxiomCheck]:
    """Run all four axiom checks on one game.

    Args:
        game: The finite bargaining game to check on.
        rule: The bargaining rule under test (default: the Nash solution).
        tolerance: Comparison slack shared by all four checks.

    Returns:
        The four :class:`AxiomCheck` results keyed by axiom name.
    """
    checks = [
        check_pareto_optimality(game, rule, tolerance),
        check_symmetry(game, rule, tolerance),
        check_scale_invariance(game, rule, tolerance=tolerance),
        check_independence_of_irrelevant_alternatives(game, rule, tolerance=tolerance),
    ]
    return {check.name: check for check in checks}
