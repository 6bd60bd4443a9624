"""Coalition coloring game: same-color payoffs, best-response dynamics and
exhaustive Nash verification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class KCutGame:
    """n players, directed weights w[i, j] (zero diagonal), K colors.

    payoff_mode "same_color" sums weights over same-colored neighbors, the
    coordination form; "cut" sums over differently-colored neighbors, the
    classical cut form, kept for comparison.
    """

    weights: np.ndarray
    k: int
    payoff_mode: str = "same_color"

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        w = self.weights
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
            raise ValidationError("KCutGame: weights must be a square matrix")
        if np.any(np.diag(w) != 0):
            raise ValidationError("KCutGame: diagonal must be zero")
        # a finite total bounds every payoff, deviation gain and potential sum
        if not np.isfinite(np.abs(w).sum()):
            raise ValidationError("KCutGame: weights must be finite, as must their "
                                  "total absolute value")
        if self.k < 2:
            raise ValidationError("KCutGame: need K >= 2 colors")
        if self.payoff_mode not in ("same_color", "cut"):
            raise ValidationError("KCutGame: unknown payoff_mode")

    @property
    def n(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class StrategyProfile:
    colors: tuple

    def __post_init__(self):
        colors = tuple(int(c) for c in self.colors)
        object.__setattr__(self, "colors", colors)

    def check(self, g: KCutGame) -> None:
        if len(self.colors) != g.n:
            raise ValidationError("StrategyProfile: wrong length")
        if any(c < 0 or c >= g.k for c in self.colors):
            raise ValidationError("StrategyProfile: color out of range")

    def with_color(self, i: int, c: int) -> "StrategyProfile":
        return StrategyProfile(self.colors[:i] + (c,) + self.colors[i + 1:])


def payoff(g: KCutGame, p: StrategyProfile, i: int) -> float:
    """Sum of w[i, j] over neighbors j sharing (same_color mode) or not
    sharing (cut mode) player i's color."""
    p.check(g)
    if i < 0 or i >= g.n:
        raise ValidationError("payoff: player index out of range")
    colors = np.asarray(p.colors)
    same = colors == colors[i]
    same[i] = False
    mask = same if g.payoff_mode == "same_color" else ~same & (np.arange(g.n) != i)
    return float(g.weights[i, mask].sum())


def _switch_payoffs(g: KCutGame, p: StrategyProfile, i: int) -> np.ndarray:
    """Player i's payoff for each color it could take, the others' fixed;
    its own color's entry is its current payoff."""
    return np.array([payoff(g, p.with_color(i, c), i) for c in range(g.k)])


MAX_ROUNDS = 1000   # sweep cap of best_response_dynamics


@dataclass(frozen=True)
class BestResponseResult:
    profile: StrategyProfile
    rounds: int
    converged: bool


def best_response_dynamics(g: KCutGame, init: StrategyProfile) -> BestResponseResult:
    """Sequential sweeps; a player moves to its best color (the lowest index
    on ties) only when that is strictly better than its own; stops when a
    full sweep changes nothing, or after MAX_ROUNDS sweeps."""
    init.check(g)
    profile = init
    for rounds in range(1, MAX_ROUNDS + 1):
        changed = False
        for i in range(g.n):
            v = _switch_payoffs(g, profile, i)
            best = int(v.argmax())
            if v[best] > v[profile.colors[i]]:
                profile = profile.with_color(i, best)
                changed = True
        if not changed:
            return BestResponseResult(profile, rounds, converged=True)
    return BestResponseResult(profile, MAX_ROUNDS, converged=False)


def verify_nash(g: KCutGame, p: StrategyProfile):
    """Exhaustively test all n*(K-1) unilateral deviations.

    Returns (is_nash, worst improving deviation or None). The deviation is
    reported as (player, color, gain): the largest gain, the first on ties."""
    p.check(g)
    worst = None
    for i in range(g.n):
        v = _switch_payoffs(g, p, i)
        gains = v - v[p.colors[i]]
        c = int(gains.argmax())
        if gains[c] > 0 and (worst is None or gains[c] > worst[2]):
            worst = (i, c, float(gains[c]))
    return worst is None, worst


def potential(g: KCutGame, p: StrategyProfile) -> float:
    """Symmetrized same-color pair potential. With symmetric weights every
    improving switch moves it by the mover's gain: up under "same_color"
    payoffs, down under "cut" payoffs, where a player gains exactly the
    same-color weight it leaves."""
    colors = np.asarray(p.colors)
    same = colors[:, None] == colors[None, :]
    np.fill_diagonal(same, False)
    sym = (g.weights + g.weights.T) / 2
    return float(sym[same].sum() / 2)

