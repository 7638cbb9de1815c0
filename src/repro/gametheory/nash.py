"""Nash bargaining solution over a finite feasible sample.

The Nash Bargaining Solution selects the feasible, individually rational
payoff that maximizes the product of the players' gains over the
disagreement point, ``(u1 - v1)(u2 - v2)``.  On a finite sample this is a
simple argmax; the continuous version used by the core framework (problem
(P4) of the paper) lives in :mod:`repro.core.bargaining` and is cross-checked
against this one in the tests.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import BargainingError
from repro.gametheory.game import BargainingGame, BargainingPoint


def nash_product(gains: np.ndarray) -> np.ndarray:
    """Nash product of an ``(n, 2)`` array of gains (clipped at zero).

    Gains below zero are clipped to zero so that individually irrational
    alternatives can never win the argmax: their product is zero, and ties
    at zero are broken in favour of rational alternatives by the caller.

    Args:
        gains: ``(n, 2)`` array of per-alternative gains over the
            disagreement point.

    Returns:
        ``(n,)`` array with the product of the clipped gains per alternative.
    """
    clipped = np.clip(gains, 0.0, None)
    return clipped[:, 0] * clipped[:, 1]


def nash_bargaining_solution(game: BargainingGame, tolerance: float = 1e-12) -> BargainingPoint:
    """Select the Nash bargaining outcome of a finite game.

    Args:
        game: The finite bargaining game (payoff sample + disagreement
            point) to solve.
        tolerance: Absolute slack on the gains for individual rationality,
            and slack relative to the best Nash product for deciding ties.

    Returns:
        The selected :class:`~repro.gametheory.game.BargainingPoint`; its
        ``objective`` is the winning Nash product.

    Raises:
        BargainingError: if no alternative weakly dominates the disagreement
            point (the game has no individually rational outcome).
    """
    if not game.has_rational_alternative(tolerance):
        raise BargainingError(
            "Nash bargaining is undefined: no alternative dominates the disagreement point"
        )
    gains = game.gains()
    rational = game.individually_rational_indices(tolerance)
    products = nash_product(gains)
    best_product = products[rational].max()

    # Tied alternatives: products within a *relative* tolerance of the best.
    # Among them drop any that another tied one Pareto-dominates, then take
    # the lowest index.  Each step survives a positive affine rescaling of
    # either utility and swapping the players.  A dominator of a tied
    # alternative has at least its product, so it is tied too: the pick is
    # Pareto-efficient in the whole game, also when every product ties at
    # zero, e.g. (0, 0) against (0, 1).  On such ties no rule can also be
    # independent of irrelevant alternatives on every game, e.g. on
    # (3, 0), (0, 4), (5, 0).
    tied = rational[products[rational] >= best_product * (1.0 - tolerance)]
    tied_payoffs = game.payoffs[tied]
    for best_index, target in zip(tied.tolist(), tied_payoffs):
        dominated = np.all(tied_payoffs >= target, axis=1) & np.any(tied_payoffs > target, axis=1)
        if not dominated.any():
            break
    payoff = game.payoffs[best_index]
    gain = gains[best_index]
    return BargainingPoint(
        index=best_index,
        payoff=(float(payoff[0]), float(payoff[1])),
        gains=(float(gain[0]), float(gain[1])),
        objective=float(products[best_index]),
    )
