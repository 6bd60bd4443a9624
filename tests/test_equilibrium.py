"""Coloring-game tests: payoff oracle, potential monotonicity and exhaustive
Nash certification."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mirrorwyner import equilibrium
from mirrorwyner.equilibrium import (MAX_ROUNDS, KCutGame, StrategyProfile,
                                     best_response_dynamics, payoff,
                                     potential, verify_nash)
from mirrorwyner.errors import ValidationError


def random_game(seed, n=5, k=3, symmetric=True):
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1, 1, size=(n, n))
    if symmetric:
        w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    return KCutGame(w, k)


def payoff_brute(game, colors, i):
    total = 0.0
    for j in range(game.n):
        if j == i:
            continue
        same = colors[j] == colors[i]
        if (same and game.payoff_mode == "same_color") or \
                (not same and game.payoff_mode == "cut"):
            total += game.weights[i, j]
    return total


def is_nash_brute(game, colors):
    for i in range(game.n):
        base = payoff_brute(game, colors, i)
        for c in range(game.k):
            if c == colors[i]:
                continue
            trial = list(colors)
            trial[i] = c
            if payoff_brute(game, trial, i) > base:
                return False
    return True


def dynamics_loop(game, profile, max_rounds):
    """best_response_dynamics replayed one player and one color at a time:
    a player moves to the first color strictly better than every earlier
    candidate, its own color included."""
    for rounds in range(1, max_rounds + 1):
        moved = False
        for i in range(game.n):
            best_c, best_v = profile.colors[i], payoff(game, profile, i)
            for c in range(game.k):
                if c != profile.colors[i]:
                    v = payoff(game, profile.with_color(i, c), i)
                    if v > best_v:
                        best_c, best_v = c, v
            if best_c != profile.colors[i]:
                profile, moved = profile.with_color(i, best_c), True
        if not moved:
            return profile, rounds, True
    return profile, max_rounds, False


def deviations_loop(game, p):
    """verify_nash replayed one deviation at a time: the largest positive
    gain, the first one found on ties."""
    worst = None
    for i in range(game.n):
        base = payoff(game, p, i)
        for c in range(game.k):
            if c != p.colors[i]:
                gain = payoff(game, p.with_color(i, c), i) - base
                if gain > 0 and (worst is None or gain > worst[2]):
                    worst = (i, c, gain)
    return worst is None, worst


@st.composite
def games_and_starts(draw):
    """n in 2..12 players and k in 2..4 colors, either payoff mode; weights
    asymmetric floats or integers in [-2, 2], which tie often."""
    n, k = draw(st.integers(2, 12)), draw(st.integers(2, 4))
    if draw(st.booleans()):
        w = draw(hnp.arrays(np.int64, (n, n), elements=st.integers(-2, 2))).astype(float)
    else:
        w = draw(hnp.arrays(float, (n, n), elements=st.floats(-1, 1)))
    np.fill_diagonal(w, 0.0)
    game = KCutGame(w, k, draw(st.sampled_from(["same_color", "cut"])))
    return game, StrategyProfile(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))


class TestLoopOracles:
    # a short sweep cap keeps cycling games quick and reaches the cap often
    ROUNDS = 12

    @given(games_and_starts())
    @settings(max_examples=150, deadline=None)
    def test_dynamics_and_verdicts_match_the_loops(self, game_start):
        game, init = game_start
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(equilibrium, "MAX_ROUNDS", self.ROUNDS)
            res = best_response_dynamics(game, init)
        assert (res.profile, res.rounds, res.converged) == \
            dynamics_loop(game, init, self.ROUNDS)
        for p in (init, res.profile):
            assert verify_nash(game, p) == deviations_loop(game, p)


class TestPayoff:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_matches_brute_force(self, seed):
        game = random_game(seed, symmetric=False)
        rng = np.random.default_rng(seed + 1)
        colors = tuple(rng.integers(0, game.k, size=game.n))
        p = StrategyProfile(colors)
        for i in range(game.n):
            assert payoff(game, p, i) == pytest.approx(
                payoff_brute(game, colors, i), abs=1e-12)

    def test_cut_mode_complement(self):
        game_same = random_game(0)
        game_cut = KCutGame(game_same.weights, game_same.k, payoff_mode="cut")
        p = StrategyProfile((0, 1, 2, 0, 1))
        for i in range(5):
            total = float(game_same.weights[i].sum())
            assert payoff(game_same, p, i) + payoff(game_cut, p, i) == \
                pytest.approx(total, abs=1e-12)


class TestDynamics:
    @pytest.mark.parametrize("seed", range(10))
    def test_converges_to_nash_on_symmetric_games(self, seed):
        game = random_game(seed, n=6, k=3)
        rng = np.random.default_rng(seed + 500)
        init = StrategyProfile(tuple(rng.integers(0, 3, size=6)))
        res = best_response_dynamics(game, init)
        assert res.converged
        is_nash, worst = verify_nash(game, res.profile)
        assert is_nash and worst is None

    @pytest.mark.parametrize("seed", range(5))
    def test_potential_increases_along_path(self, seed):
        # replay the dynamics one accepted switch at a time
        game = random_game(seed, n=5, k=3)
        rng = np.random.default_rng(seed)
        profile = StrategyProfile(tuple(rng.integers(0, 3, size=5)))
        for _ in range(200):
            moved = False
            for i in range(game.n):
                base = payoff(game, profile, i)
                best_c, best_v = profile.colors[i], base
                for c in range(game.k):
                    if c != profile.colors[i]:
                        v = payoff(game, profile.with_color(i, c), i)
                        if v > best_v:
                            best_c, best_v = c, v
                if best_c != profile.colors[i]:
                    before = potential(game, profile)
                    profile = profile.with_color(i, best_c)
                    after = potential(game, profile)
                    assert after > before - 1e-12
                    moved = True
            if not moved:
                break

    @pytest.mark.parametrize("seed", range(5))
    def test_cut_potential_falls_along_path(self, seed):
        # a cut-mode switch gains the mover exactly the same-color weight it
        # leaves, so the potential falls by that gain
        game = KCutGame(random_game(seed, n=7).weights, 3, "cut")
        rng = np.random.default_rng(seed)
        profile = StrategyProfile(tuple(rng.integers(0, 3, size=7)))
        falls = 0
        for _ in range(200):
            moved = False
            for i in range(game.n):
                gains = [payoff(game, profile.with_color(i, c), i) - payoff(game, profile, i)
                         for c in range(game.k)]
                best = int(np.argmax(gains))
                if gains[best] > 0:
                    before = potential(game, profile)
                    profile = profile.with_color(i, best)
                    after = potential(game, profile)
                    assert after < before
                    assert before - after == pytest.approx(gains[best])
                    falls, moved = falls + 1, True
            if not moved:
                break
        assert falls > 0

    def test_cycle_stops_at_max_rounds(self):
        # player 0 gains by joining player 1's color and player 1 by leaving
        # player 0's, so every sweep moves someone
        game = KCutGame(np.array([[0.0, 1.0], [-1.0, 0.0]]), 2)
        res = best_response_dynamics(game, StrategyProfile((0, 0)))
        assert (res.rounds, res.converged) == (MAX_ROUNDS, False)
        assert verify_nash(game, res.profile) == (False, (0, 0, 1.0))

    def test_verify_nash_against_enumeration(self):
        game = random_game(11, n=4, k=2)
        for colors in itertools.product(range(2), repeat=4):
            ours, _ = verify_nash(game, StrategyProfile(colors))
            assert ours == is_nash_brute(game, colors)

    def test_worst_deviation_reported(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        game = KCutGame(w, 2)
        is_nash, worst = verify_nash(game, StrategyProfile((0, 1)))
        assert not is_nash
        i, c, gain = worst
        assert gain == pytest.approx(1.0, abs=1e-12)


class TestWeights:
    def test_game_validation(self):
        with pytest.raises(ValidationError):
            KCutGame(np.array([[1.0, 0.0], [0.0, 0.0]]), 2)  # nonzero diagonal
        with pytest.raises(ValidationError):
            KCutGame(np.zeros((2, 2)), 1)  # too few colors

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_fails(self, value):
        # an off-diagonal NaN weight once ran and "converged"
        w = np.zeros((3, 3))
        w[0, 2] = value
        with pytest.raises(ValidationError, match="finite"):
            KCutGame(w, 2)
        with pytest.raises(ValidationError):
            StrategyProfile((0, 5)).check(KCutGame(np.zeros((2, 2)), 3))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("row,back", [([1e308, -1e308] * 8 + [1e308], 0.0),
                                          ([1e308], 1e308)])
    def test_overflowing_weight_total_fails(self, row, back):
        # finite weights whose total overflows: alternating +-1e308 once
        # summed to a nan payoff, so no player moved and verify_nash reported
        # an equilibrium; a pair of 1e308 overflows w + w.T in the potential
        w = np.zeros((len(row) + 1, len(row) + 1))
        w[0, 1:], w[1, 0] = row, back
        with pytest.raises(ValidationError, match="total absolute value"):
            KCutGame(w, 2)
