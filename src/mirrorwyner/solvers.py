"""The two optimization procedures: a greedy coordinate-ascent loop over twin
assignments, and a dogleg trust-region method on a finite-difference model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import mirror
from .errors import NumericError, ValidationError
from .prob import PrivacyMapping

RADIUS_EQ_TOL = 1e-12  # "step hit the boundary" test for radius expansion


@dataclass(frozen=True)
class TrustRegionConfig:
    eta1: float = 0.1
    eta2: float = 0.75
    theta1: float = 0.5
    theta2: float = 2.0
    delta0: float = 1.0
    eps_th: float = 1e-8
    max_iter: int = 1000

    def __post_init__(self):
        if not 0 < self.eta1 < self.eta2 < 1:
            raise ValidationError("TrustRegionConfig: need 0 < eta1 < eta2 < 1")
        if not 0 < self.theta1 < 1 < self.theta2:
            raise ValidationError("TrustRegionConfig: need 0 < theta1 < 1 < theta2")
        if self.delta0 <= 0 or self.eps_th <= 0 or self.max_iter < 1:
            raise ValidationError("TrustRegionConfig: delta0, eps_th, max_iter must be positive")


@dataclass(frozen=True)
class Iterate:
    point: np.ndarray
    objective: float
    grad_norm: float
    radius: float
    ratio: Optional[float]
    accepted: bool


@dataclass(frozen=True)
class GreedyPass:
    """One outer pass of the greedy solver: mean exposure and merit at its
    end, and whether it accepted any proposal."""

    objective: float
    merit: float
    accepted: bool


@dataclass
class SolveTrace:
    iterates: list = field(default_factory=list)   # Iterate (GreedyPass in a GreedyTrace)
    converged: bool = False
    feasible: Optional[bool] = None

    @property
    def iterations(self) -> int:
        return len(self.iterates)


class GreedyTrace(SolveTrace):
    """Trace of `greedy_solve`, one GreedyPass record per outer pass."""


@dataclass
class ObjectiveFn:
    """Real-vector objective with optional analytic gradient; missing
    derivatives fall back to central differences with step h."""

    fn: Callable[[np.ndarray], float]
    dim: int
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    h: float = 1e-5

    def __post_init__(self):
        if self.dim < 1 or self.h <= 0:
            raise ValidationError("ObjectiveFn: dim >= 1 and h > 0 required")

    def value(self, x: np.ndarray) -> float:
        return float(self.fn(x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        if self.grad is not None:
            return np.asarray(self.grad(x), dtype=float)
        g = np.zeros(self.dim)
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = self.h
            g[i] = (self.fn(x + e) - self.fn(x - e)) / (2 * self.h)
        return g

    def hessian(self, x: np.ndarray) -> np.ndarray:
        n, h = self.dim, self.h
        hess = np.zeros((n, n))
        f0 = self.fn(x)
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = h
            hess[i, i] = (self.fn(x + ei) - 2 * f0 + self.fn(x - ei)) / h**2
            for j in range(i + 1, n):
                ej = np.zeros(n)
                ej[j] = h
                hess[i, j] = hess[j, i] = (
                    self.fn(x + ei + ej) - self.fn(x + ei - ej)
                    - self.fn(x - ei + ej) + self.fn(x - ei - ej)
                ) / (4 * h**2)
        return hess


def _dogleg_step(g: np.ndarray, hess: np.ndarray, delta: float) -> np.ndarray:
    """Approximate argmin of the quadratic model within ||step|| <= delta."""
    gBg = float(g @ hess @ g)
    # Cauchy point along -g
    if gBg > 0:
        t_cauchy = min(float(g @ g) / gBg, delta / np.linalg.norm(g))
    else:
        t_cauchy = delta / np.linalg.norm(g)
    p_cauchy = -t_cauchy * g
    try:
        lo = np.linalg.cholesky(hess)
        p_newton = -np.linalg.solve(hess, g)
    except np.linalg.LinAlgError:
        return p_cauchy
    if np.linalg.norm(p_newton) <= delta:
        return p_newton
    if np.linalg.norm(p_cauchy) >= delta - RADIUS_EQ_TOL:
        return p_cauchy * (delta / np.linalg.norm(p_cauchy))
    # walk the dogleg segment from the Cauchy point toward Newton to the boundary
    d = p_newton - p_cauchy
    a = float(d @ d)
    b = 2 * float(p_cauchy @ d)
    c = float(p_cauchy @ p_cauchy) - delta**2
    s = (-b + np.sqrt(b * b - 4 * a * c)) / (2 * a)
    return p_cauchy + s * d


def trust_region_solve(f: ObjectiveFn, x0, cfg: TrustRegionConfig = None):
    """Dogleg trust-region minimization with the exact accept/radius rules:
    accept iff ratio > eta1; shrink to theta1*||step|| when ratio <= eta1;
    expand to theta2*radius when ratio > eta2 and the step hit the boundary."""
    cfg = cfg or TrustRegionConfig()
    x = np.asarray(x0, dtype=float).copy()
    if x.size != f.dim:
        raise ValidationError("trust_region_solve: x0 dimension mismatch")
    trace = SolveTrace()
    delta = cfg.delta0
    fx = f.value(x)
    for _ in range(cfg.max_iter):
        g = f.gradient(x)
        if not (np.all(np.isfinite(g)) and np.isfinite(fx)):
            raise NumericError("non-finite objective or gradient", partial=trace)
        gnorm = float(np.linalg.norm(g))
        if gnorm < cfg.eps_th:
            trace.converged = True
            break
        hess = f.hessian(x)
        step = _dogleg_step(g, hess, delta)
        step_norm = float(np.linalg.norm(step))
        predicted = -(float(g @ step) + 0.5 * float(step @ hess @ step))
        f_trial = f.value(x + step)
        if predicted > 0 and np.isfinite(f_trial):
            ratio = (fx - f_trial) / predicted
        else:
            ratio = -np.inf
        accepted = ratio > cfg.eta1
        trace.iterates.append(Iterate(x.copy(), fx, gnorm, delta, ratio, accepted))
        if accepted:
            x = x + step
            fx = f_trial
        if ratio <= cfg.eta1:
            delta = cfg.theta1 * step_norm
        elif ratio > cfg.eta2 and abs(step_norm - delta) <= RADIUS_EQ_TOL:
            delta = cfg.theta2 * delta
        if delta <= 0 or not np.isfinite(delta):
            raise NumericError("trust-region radius collapsed", partial=trace)
    else:
        trace.converged = float(np.linalg.norm(f.gradient(x))) < cfg.eps_th
    return x, trace


# ---------------------------------------------------------------------------
# Greedy coordinate ascent over twin assignments
# ---------------------------------------------------------------------------

DEFAULT_EPS = (0.01, 0.01, 0.01)
DEFAULT_LAMBDA = 10.0


def _random_rows(n_in: int, n_out: int, rng: np.random.Generator) -> np.ndarray:
    return rng.dirichlet(np.ones(n_out), size=n_in)


def _nudge_rows(rows: np.ndarray, scale: float, rng: np.random.Generator) -> np.ndarray:
    rows = np.clip(rows + scale * rng.normal(size=rows.shape), 1e-9, None)
    return rows / rows.sum(axis=1, keepdims=True)


def random_assignment(inst: mirror.MirrorGameInstance,
                      rng: np.random.Generator) -> mirror.TwinAssignment:
    originals, virtuals = [], []
    for q in range(inst.q_count):
        nx = inst.joints[q].table.shape[1]
        originals.append(PrivacyMapping(_random_rows(nx, nx, rng)))
        virtuals.append(PrivacyMapping(_random_rows(nx, inst.virtual_alphabet, rng)))
    return mirror.TwinAssignment(tuple(originals), tuple(virtuals))


def greedy_solve(inst: mirror.MirrorGameInstance, u: mirror.UncertaintyModel,
                 relaxed: bool, budget: int, seed: int,
                 omega: float = 1.0, eps=DEFAULT_EPS, lam: float = DEFAULT_LAMBDA,
                 proposals: int = 6, patience: int = 3):
    """Per-Bob coordinate ascent: re-derive the original mapping through the
    Boltzmann-posterior self-consistent update, then adjust the virtual
    mapping toward feasibility; accept a step only when the merit improves.

    With relaxed=True the feasibility tests use the eps floors (including the
    flipped null condition) and the bottleneck pair search shortcut for the
    utility floor. Stops on feasibility with no further improvement, on a run
    of improvement-free passes, or at the budget.

    The search holds each Bob's rows as plain arrays; mappings are validated
    only on entry (`random_assignment`) and at return.

    `u` is not read: only the leakage feels the uncertainty, and the
    search tests its deterministic value. The parameter stays because
    `bench/child.py` and the acceptance suite pass it positionally.
    """
    if budget < 1:
        raise ValidationError("greedy_solve: budget must be >= 1")
    if not omega >= 0:
        raise ValidationError(f"greedy_solve: omega must be non-negative, got {omega!r}")
    rng = np.random.default_rng(seed)
    asg = random_assignment(inst, rng)
    orig, virt = rows = ([m.rows for m in asg.original], [m.rows for m in asg.virtual])
    trace = GreedyTrace()

    vals = mirror.condition_values(inst, asg)
    gamma2_eff = inst.gamma2
    if relaxed:
        gamma2_eff = min(inst.gamma2, mirror.bottleneck_pair_search(inst, orig[0]))
    constraints = mirror.ConstraintSet.build(
        inst, gamma2=gamma2_eff, eps=eps if relaxed else None,
        null_mode="floored" if relaxed else "strict")

    def merits(vals: np.ndarray) -> np.ndarray:
        """Minimization merit of each (..., Q, 7) value table: mean exposure
        plus weighted constraint violations."""
        return vals[..., 2].mean(-1) + lam * constraints.violations(vals).sum((-2, -1))

    def feasible(vals: np.ndarray) -> bool:
        return bool(constraints.holds(vals).all())

    current = float(merits(vals))
    work = {}   # the exposure kernel's scratch arrays, kept for this solve only
    stall = 0
    for _ in range(budget):
        improved = False
        for q in range(inst.q_count):
            # Boltzmann self-consistent refresh of the original rows, if any
            refresh = mirror.boltzmann_original(inst, q, orig[q], omega)
            originals = [c for c in (refresh, _nudge_rows(orig[q], 0.1, rng)) if c is not None]
            virtuals = [_random_rows(virt[q].shape[0], inst.virtual_alphabet, rng)
                        if j % 2 == 0 else _nudge_rows(virt[q], 0.15, rng)
                        for j in range(proposals)]
            # Every trial of one kind replaces the same slot, so scoring the
            # whole stack against the rows before it equals trying the
            # candidates one by one; the virtual stack sees the accepted
            # original. Only the conditions that read the slot are rescored.
            for kind, cands in enumerate((originals, virtuals)):
                if not cands:
                    continue
                trial = [list(r) for r in rows]
                trial[kind][q] = np.stack(cands)
                stacked = mirror._kernel(inst, *trial, base=vals, slot=(q, kind), work=work)
                for j, trial_merit in enumerate(merits(stacked).tolist()):
                    if trial_merit < current - 1e-9:
                        rows[kind][q] = cands[j]
                        vals, current = stacked[j], trial_merit
                        improved = True
        trace.iterates.append(GreedyPass(float(vals[:, 2].mean()), current, improved))
        if feasible(vals) and not improved:
            trace.converged = True
            break
        stall = 0 if improved else stall + 1
        if stall >= patience:
            break
    trace.feasible = feasible(vals)
    return mirror.TwinAssignment(*(tuple(map(PrivacyMapping, r)) for r in rows)), trace
