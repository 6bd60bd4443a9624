"""The two optimization procedures: a greedy coordinate-ascent loop over twin
assignments, and a dogleg trust-region method whose model takes the
objective's gradient and differences it for the Hessian."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import mirror
from .errors import NumericError, ValidationError
from .prob import PrivacyMapping

RADIUS_EQ_TOL = 1e-12  # "step hit the boundary" test for radius expansion
FD_STEP = 1e-5         # difference step of the trust-region model's Hessian


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
    iterates: list = field(default_factory=list)   # Iterate, or GreedyPass from greedy_solve
    converged: bool = False
    feasible: Optional[bool] = None

    @property
    def iterations(self) -> int:
        return len(self.iterates)


@dataclass
class ObjectiveFn:
    """Real-vector objective with its analytic gradient. The trust-region
    model takes the gradient and differences it for the Hessian."""

    fn: Callable[[np.ndarray], float]
    dim: int
    grad: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("ObjectiveFn: dim >= 1 required")

    def value(self, x: np.ndarray) -> float:
        return float(self.fn(x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.grad(x), dtype=float)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Central differences of the gradient with step FD_STEP, made
        symmetric: 2 dim gradient calls and no objective call."""
        cols = np.array([self.gradient(x + e) - self.gradient(x - e)
                         for e in np.eye(self.dim) * FD_STEP]) / (2 * FD_STEP)
        return (cols + cols.T) / 2


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
            raise NumericError("non-finite objective or gradient")
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
            raise NumericError("trust-region radius collapsed")
    else:
        trace.converged = float(np.linalg.norm(f.gradient(x))) < cfg.eps_th
    return x, trace


# ---------------------------------------------------------------------------
# Greedy coordinate ascent over twin assignments
# ---------------------------------------------------------------------------

DEFAULT_EPS = (0.01, 0.01, 0.01)
OMEGA = 1.0      # inverse temperature of the Boltzmann refresh
LAMBDA = 10.0    # merit weight of the constraint violations
PROPOSALS = 6    # virtual-row candidates per Bob and pass
PATIENCE = 3     # improvement-free passes before the search stops


def _random_rows(n_in: int, n_out: int, rng: np.random.Generator) -> np.ndarray:
    """`rng.dirichlet(np.ones(n_out), size=n_in)`, with the same draws and
    bits and the generator left in the same state, without dirichlet's
    per-call set-up: a unit gamma draw is a standard exponential, and
    dirichlet scales each row by the reciprocal of its sum taken left to
    right. So the sum is sequential (`cumsum`); `np.add.reduce` sums
    pairwise and departs from dirichlet's bits at 8, 9, 12, 16 and 33 columns
    (`tests/test_solvers.py::test_random_rows_are_the_dirichlet_draws`)."""
    e = rng.standard_exponential((n_in, n_out))
    return e * (1.0 / e.cumsum(1)[:, -1:])


def _nudge_rows(rows: np.ndarray, scale: float, rng: np.random.Generator) -> np.ndarray:
    rows = np.maximum(rows + scale * rng.normal(size=rows.shape), 1e-9)
    return rows / np.add.reduce(rows, 1, keepdims=True)


def random_assignment(inst: mirror.MirrorGameInstance,
                      rng: np.random.Generator) -> mirror.TwinAssignment:
    originals, virtuals = [], []
    for q in range(inst.q_count):
        nx = inst.joints[q].table.shape[1]
        originals.append(PrivacyMapping(_random_rows(nx, nx, rng)))
        virtuals.append(PrivacyMapping(_random_rows(nx, inst.virtual_alphabet, rng)))
    return mirror.TwinAssignment(tuple(originals), tuple(virtuals))


def greedy_solve(inst: mirror.MirrorGameInstance, u: mirror.UncertaintyModel,
                 relaxed: bool, budget: int, seed: int, eps=DEFAULT_EPS):
    """Per-Bob coordinate ascent: re-derive the original mapping through the
    Boltzmann-posterior self-consistent update, then adjust the virtual
    mapping toward feasibility; accept a step only when the merit improves.

    The bounds come from the relaxation chain alone: `mirror.assemble_p1`,
    and with relaxed=True `mirror.epsilon_floor` on top of it, so the
    feasibility tests use the eps floors (including the flipped null
    condition) and the bottleneck pair search shortcut for the utility
    floor. Stops on feasibility with no further improvement, on a run of
    PATIENCE improvement-free passes, or at the budget. The trace holds
    one GreedyPass per outer pass.

    The search holds each Bob's rows as plain arrays; mappings are validated
    only on entry (`random_assignment`) and at return. A solve also holds,
    until it returns, what it would otherwise recompute from unchanged rows:
    the kernel's `work` scratch arrays, and in one `held` cache keyed by the
    identity of their rows (see `mirror._held`) the kernel's channels and
    each Bob's last Boltzmann refresh (None included), which is recomputed
    only when an accepted original step has replaced its rows: at most Q
    refreshes plus one per accepted original step. The start
    is scored on the same `work` and `held`, so its wide tables go into the
    solve's scratch arrays and the first slot calls reuse its channels.
    Every value is the one a fresh computation gives, so the search path is
    too. The one exception changes no decision: a stacked call is the
    kernel's `lazy` one, so at Q >= 3 the other Bobs' exposures (iii) of a
    wide stack first hold lower bounds. The walk below resolves a
    candidate's exact (iii) only when it passes the accept test at its
    bounds, and takes its merit again. `merits` never falls as an (iii)
    entry grows (every operation in it is monotone, in floating point too),
    so a candidate that fails at the bounds fails at its exact values too,
    and it gets no exposure tables
    (`tests/test_solvers.py::TestGreedy::test_pruned_search_path_matches_full_kernel`,
    `tests/test_mirror.py::TestExposureBound::test_walk_resolves_only_the_candidates_it_reaches`).

    `u` is not read: only the leakage feels the uncertainty, and the
    search tests its deterministic value. The parameter stays because
    `bench/child.py` and the acceptance suite pass it positionally.
    """
    if budget < 1:
        raise ValidationError("greedy_solve: budget must be >= 1")
    rng = np.random.default_rng(seed)
    q_count = inst.q_count
    asg = random_assignment(inst, rng)
    orig, virt = rows = ([m.rows for m in asg.original], [m.rows for m in asg.virtual])
    trace = SolveTrace()

    work = {}   # the exposure kernel's scratch arrays, kept for this solve only
    held = {}   # what the solve derives from unchanged rows, kept for this solve only
    vals = mirror.condition_values(inst, asg, work, held)
    if relaxed:
        gamma2_eff = min(inst.gamma2, mirror.bottleneck_pair_search(inst, orig[0]))
        constraints = mirror.epsilon_floor(mirror.assemble_p1(inst, gamma2_eff), eps)
    else:
        constraints = mirror.assemble_p1(inst)

    def merits(vals: np.ndarray) -> np.ndarray:
        """Minimization merit of each (..., Q, 7) value table: mean exposure
        plus weighted constraint violations."""
        return (np.add.reduce(vals[..., 2], -1) / q_count
                + LAMBDA * np.add.reduce(constraints.violations(vals), (-2, -1)))

    def feasible(vals: np.ndarray) -> bool:
        return bool(constraints.holds(vals).all())

    current = float(merits(vals))
    stall = 0
    for _ in range(budget):
        improved = False
        for q in range(q_count):
            # Boltzmann self-consistent refresh of the original rows, if any;
            # it draws nothing, so it is held until an original step is accepted
            refresh = mirror._held(held, ("refresh", q),
                                   lambda o: mirror.boltzmann_original(inst, q, o, OMEGA), orig[q])
            originals = [c for c in (refresh, _nudge_rows(orig[q], 0.1, rng)) if c is not None]
            virtuals = [_random_rows(virt[q].shape[0], inst.virtual_alphabet, rng)
                        if j % 2 == 0 else _nudge_rows(virt[q], 0.15, rng)
                        for j in range(PROPOSALS)]
            # Every trial of one kind replaces the same slot, so scoring the
            # whole stack against the rows before it equals trying the
            # candidates one by one; the virtual stack sees the accepted
            # original. Only the conditions that read the slot are rescored.
            for kind, cands in enumerate((originals, virtuals)):
                trial = [list(r) for r in rows]
                trial[kind][q] = np.array(cands)
                stacked, resolve = mirror._kernel(inst, *trial, base=vals, slot=(q, kind),
                                                  work=work, held=held, lazy=True)
                for j, trial_merit in enumerate(merits(stacked).tolist()):
                    if resolve is not None and not trial_merit >= current - 1e-9:
                        resolve(j)   # it passes at its bounds: take its exact (iii)
                        trial_merit = float(merits(stacked)[j])
                    if trial_merit < current - 1e-9:
                        rows[kind][q] = cands[j]
                        vals, current = stacked[j], trial_merit
                        improved = True
        trace.iterates.append(GreedyPass(float(np.add.reduce(vals[:, 2]) / q_count), current,
                                         improved))
        if not improved and feasible(vals):
            trace.converged = True
            break
        stall = 0 if improved else stall + 1
        if stall >= PATIENCE:
            break
    trace.feasible = feasible(vals)
    return mirror.TwinAssignment(*(tuple(map(PrivacyMapping, r)) for r in rows)), trace
