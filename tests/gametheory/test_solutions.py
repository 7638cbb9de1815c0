"""Unit tests for the bargaining solution concepts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import BargainingError
from repro.gametheory.egalitarian import egalitarian_solution
from repro.gametheory.game import BargainingGame
from repro.gametheory.kalai_smorodinsky import kalai_smorodinsky_solution
from repro.gametheory.nash import nash_bargaining_solution, nash_product
from repro.gametheory.utilitarian import utilitarian_solution


def dense_triangle(limit: float = 10.0, step: float = 0.25) -> BargainingGame:
    """Dense sample of the triangle u1 + u2 <= limit, u >= 0."""
    grid = np.arange(0.0, limit + step, step)
    payoffs = [(u1, u2) for u1 in grid for u2 in grid if u1 + u2 <= limit + 1e-9]
    return BargainingGame(payoffs, disagreement=(0.0, 0.0))


def asymmetric_triangle() -> BargainingGame:
    """Feasible set u1 / 8 + u2 / 2 <= 1 (player 1 can gain much more)."""
    grid1 = np.linspace(0.0, 8.0, 65)
    grid2 = np.linspace(0.0, 2.0, 41)
    payoffs = [(u1, u2) for u1 in grid1 for u2 in grid2 if u1 / 8.0 + u2 / 2.0 <= 1.0 + 1e-12]
    return BargainingGame(payoffs, disagreement=(0.0, 0.0))


class TestNashSolution:
    def test_symmetric_triangle_splits_evenly(self):
        point = nash_bargaining_solution(dense_triangle())
        assert point.payoff[0] == pytest.approx(5.0, abs=0.3)
        assert point.payoff[1] == pytest.approx(5.0, abs=0.3)

    def test_asymmetric_triangle_equalises_relative_share(self):
        # On u1/8 + u2/2 <= 1 the Nash solution is (4, 1): half of each max.
        point = nash_bargaining_solution(asymmetric_triangle())
        assert point.payoff[0] == pytest.approx(4.0, abs=0.3)
        assert point.payoff[1] == pytest.approx(1.0, abs=0.15)

    def test_solution_is_pareto_efficient(self):
        game = dense_triangle()
        point = nash_bargaining_solution(game)
        assert game.is_pareto_efficient(point.index, tolerance=1e-9)

    @pytest.mark.parametrize(
        "payoffs,scale",
        [
            ([(2.0, 1.0), (1.0, 2.0)], (2.0, 1.0)),
            ([(0.0, 0.0), (3.0, 0.0), (0.0, 4.0)], (10.0, 1.0)),
        ],
    )
    def test_tie_break_is_scale_invariant(self, payoffs, scale):
        # Tied products must resolve to the same alternative after a
        # rescaling; a tie-break on gains in one unit (min or total gain)
        # flips on both games.
        game = BargainingGame(payoffs, disagreement=(0.0, 0.0))
        original = nash_bargaining_solution(game)
        scaled = nash_bargaining_solution(game.rescaled(scale, (0.0, 0.0)))
        assert scaled.index == original.index
        assert game.is_pareto_efficient(original.index, tolerance=0.0)

    def test_nash_product_clips_negative_gains(self):
        products = nash_product(np.array([[-1.0, 5.0], [2.0, 3.0]]))
        assert products[0] == 0.0
        assert products[1] == 6.0

    def test_requires_rational_alternative(self):
        game = BargainingGame([(0.0, 0.0)], disagreement=(1.0, 1.0))
        with pytest.raises(BargainingError):
            nash_bargaining_solution(game)

    def test_moving_disagreement_point_shifts_solution(self):
        game_neutral = dense_triangle()
        game_biased = BargainingGame(game_neutral.payoffs, disagreement=(4.0, 0.0))
        neutral = nash_bargaining_solution(game_neutral)
        biased = nash_bargaining_solution(game_biased)
        # A better threat for player 1 moves the agreement in its favour.
        assert biased.payoff[0] > neutral.payoff[0]


class TestOtherSolutions:
    def test_kalai_smorodinsky_equalises_relative_gains(self):
        point = kalai_smorodinsky_solution(asymmetric_triangle())
        relative = (point.payoff[0] / 8.0, point.payoff[1] / 2.0)
        assert relative[0] == pytest.approx(relative[1], abs=0.05)

    def test_egalitarian_equalises_absolute_gains(self):
        point = egalitarian_solution(asymmetric_triangle())
        assert point.payoff[0] == pytest.approx(point.payoff[1], abs=0.2)

    def test_utilitarian_maximises_total_gain(self):
        game = asymmetric_triangle()
        point = utilitarian_solution(game)
        totals = game.payoffs.sum(axis=1)
        assert point.payoff[0] + point.payoff[1] == pytest.approx(float(totals.max()))

    def test_all_rules_agree_on_symmetric_games(self):
        game = dense_triangle()
        nash = nash_bargaining_solution(game)
        kalai = kalai_smorodinsky_solution(game)
        egal = egalitarian_solution(game)
        for point in (kalai, egal):
            assert point.payoff[0] == pytest.approx(nash.payoff[0], abs=0.3)
            assert point.payoff[1] == pytest.approx(nash.payoff[1], abs=0.3)

    def test_rules_reject_hopeless_games(self):
        game = BargainingGame([(0.0, 0.0)], disagreement=(1.0, 1.0))
        for rule in (kalai_smorodinsky_solution, egalitarian_solution, utilitarian_solution):
            with pytest.raises(BargainingError):
                rule(game)

    def test_rules_differ_on_asymmetric_games(self):
        game = asymmetric_triangle()
        nash = nash_bargaining_solution(game)
        egal = egalitarian_solution(game)
        assert abs(nash.payoff[0] - egal.payoff[0]) > 0.5
