"""Discrete-time linear plant and the standard Kalman rank and spectral
stability tests used as the checkable closed-loop surrogate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError

RANK_RTOL = 1e-10  # singular-value threshold, relative to sigma_max


@dataclass(frozen=True)
class LinearPlant:
    """x(k+1) = A1 x + A2 u + n1;  y = A3 x + n2;  u = A4 y. The noises n1
    and n2 enter neither the rank tests nor the spectral radius."""

    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    a4: np.ndarray

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4"):
            object.__setattr__(self, name, np.atleast_2d(
                np.asarray(getattr(self, name), dtype=float)))
        n = self.a1.shape[0]
        if self.a1.shape != (n, n):
            raise ValidationError("LinearPlant: a1 must be square")
        m = self.a2.shape[1]
        j = self.a3.shape[0]
        if self.a2.shape[0] != n or self.a3.shape[1] != n or self.a4.shape != (m, j):
            raise ValidationError("LinearPlant: dimension mismatch")

    @property
    def n(self) -> int:
        return self.a1.shape[0]


def _svd_rank(m: np.ndarray) -> int:
    if not np.isfinite(m).all():
        raise NumericError("rank test: the Krylov matrix overflowed")
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int(np.sum(sv > RANK_RTOL * sv[0]))


def controllability_rank(a1, a2):
    """Rank of [A2, A1 A2, ..., A1^(n-1) A2]; controllable iff rank == n."""
    a1 = np.atleast_2d(np.asarray(a1, dtype=float))
    a2 = np.atleast_2d(np.asarray(a2, dtype=float))
    n = a1.shape[0]
    if a1.shape != (n, n) or a2.shape[0] != n:
        raise ValidationError("controllability_rank: dimension mismatch")
    blocks = [a2]
    for _ in range(n - 1):
        blocks.append(a1 @ blocks[-1])
    rank = _svd_rank(np.hstack(blocks))
    return rank, rank == n


def observability_rank(a1, a3):
    """Rank of [A3; A3 A1; ...]; observable iff rank == n (dual test)."""
    a1 = np.atleast_2d(np.asarray(a1, dtype=float))
    a3 = np.atleast_2d(np.asarray(a3, dtype=float))
    rank, full = controllability_rank(a1.T, a3.T)
    return rank, full


def closed_loop_spectral_radius(p: LinearPlant) -> float:
    """Spectral radius of A1 + A2 A4 A3; stable iff < 1."""
    closed = p.a1 + p.a2 @ p.a4 @ p.a3
    if not np.isfinite(closed).all():
        raise NumericError("closed_loop_spectral_radius: the closed-loop matrix overflowed")
    return float(np.max(np.abs(np.linalg.eigvals(closed))))
