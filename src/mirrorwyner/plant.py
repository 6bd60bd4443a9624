"""Discrete-time stochastic linear plant and the standard Kalman rank and
spectral stability tests used as the checkable closed-loop surrogate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericError, ValidationError

RANK_RTOL = 1e-10  # singular-value threshold, relative to sigma_max


def _check_psd(m: np.ndarray, name: str) -> None:
    if not np.allclose(m, m.T, atol=1e-10):
        raise ValidationError(f"{name}: covariance must be symmetric")
    eigs = np.linalg.eigvalsh(m)
    if eigs.min() < -1e-10:
        raise ValidationError(f"{name}: covariance must be PSD")


@dataclass(frozen=True)
class LinearPlant:
    """x(k+1) = A1 x + A2 u + n1;  y = A3 x + n2;  u = A4 y."""

    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    a4: np.ndarray
    process_cov: Optional[np.ndarray] = None
    observation_cov: Optional[np.ndarray] = None

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
        pc = np.zeros((n, n)) if self.process_cov is None else np.asarray(self.process_cov, dtype=float)
        oc = np.zeros((j, j)) if self.observation_cov is None else np.asarray(self.observation_cov, dtype=float)
        if pc.shape != (n, n) or oc.shape != (j, j):
            raise ValidationError("LinearPlant: covariance dimension mismatch")
        _check_psd(pc, "process_cov")
        _check_psd(oc, "observation_cov")
        object.__setattr__(self, "process_cov", pc)
        object.__setattr__(self, "observation_cov", oc)

    @property
    def n(self) -> int:
        return self.a1.shape[0]


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray        # (horizon+1, n)
    observations: np.ndarray  # (horizon, j)
    controls: np.ndarray      # (horizon, m)


def simulate(p: LinearPlant, x0, horizon: int, seed: int = 0) -> Trajectory:
    """Closed-loop rollout with seeded Gaussian noises."""
    x = np.asarray(x0, dtype=float)
    if x.shape != (p.n,):
        raise ValidationError("simulate: x0 dimension mismatch")
    if horizon < 1:
        raise ValidationError("simulate: horizon must be >= 1")
    rng = np.random.default_rng(seed)
    n, m, j = p.n, p.a2.shape[1], p.a3.shape[0]
    states = np.zeros((horizon + 1, n))
    obs = np.zeros((horizon, j))
    controls = np.zeros((horizon, m))
    states[0] = x
    chol_p = np.linalg.cholesky(p.process_cov + 1e-300 * np.eye(n))
    chol_o = np.linalg.cholesky(p.observation_cov + 1e-300 * np.eye(j))
    for k in range(horizon):
        y = p.a3 @ states[k] + chol_o @ rng.standard_normal(j)
        u = p.a4 @ y
        obs[k] = y
        controls[k] = u
        states[k + 1] = p.a1 @ states[k] + p.a2 @ u + chol_p @ rng.standard_normal(n)
    return Trajectory(states, obs, controls)


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
    blocks, cur = [], a2
    for _ in range(n):
        blocks.append(cur)
        cur = a1 @ cur
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
