"""Non-stationarity suite: random-walk control means, orthonormal control
decomposition, coupled oscillator synchronization, the bilevel
leader-follower game, the coupled value/density field solver, and the
mean-value / clustering reductions it leans on.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import prob
from .errors import (ConfigurationError, DegenerateIntegralError, NumericError,
                     ValidationError)

ORTHO_TOL = 1e-10
STATE_NORM_TOL = 1e-8


# ---------------------------------------------------------------------------
# Random-walk mean paths and control decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonstationaryInput:
    """mu(k+1) = mu(k) + xi(k), xi zero-mean i.i.d. with the given scale."""

    mu0: float
    scale: float
    horizon: int
    law: str = "gaussian"

    def __post_init__(self):
        if self.horizon < 1:
            raise ValidationError("NonstationaryInput: horizon must be >= 1")
        if self.scale < 0:
            raise ValidationError("NonstationaryInput: scale must be >= 0")
        if self.law not in ("gaussian", "uniform"):
            raise ValidationError("NonstationaryInput: unknown step law")


def random_walk_mean(inp: NonstationaryInput, seed: int = 0) -> np.ndarray:
    """One realization of the mean path, length horizon + 1."""
    rng = np.random.default_rng(seed)
    if inp.law == "gaussian":
        steps = inp.scale * rng.standard_normal(inp.horizon)
    else:
        steps = inp.scale * rng.uniform(-np.sqrt(3), np.sqrt(3), inp.horizon)
    return np.concatenate([[inp.mu0], inp.mu0 + np.cumsum(steps)])


@dataclass(frozen=True)
class ControlBasis:
    """Three orthonormal directions for the initial-state, reconstruction and
    mapping components of a control vector."""

    basis: np.ndarray  # (3, dim)

    def __post_init__(self):
        object.__setattr__(self, "basis", np.asarray(self.basis, dtype=float))
        b = self.basis
        if b.ndim != 2 or b.shape[0] != 3 or b.shape[1] < 3:
            raise ValidationError("ControlBasis: need 3 vectors of dim >= 3")
        gram = b @ b.T
        if np.max(np.abs(gram - np.eye(3))) > ORTHO_TOL:
            raise ValidationError("ControlBasis: vectors must be orthonormal")


def decompose_control(u_vector, basis: ControlBasis):
    """Coefficients along the three basis directions plus the residual norm."""
    u = np.asarray(u_vector, dtype=float)
    if u.shape != (basis.basis.shape[1],):
        raise ValidationError("decompose_control: dimension mismatch")
    coeffs = basis.basis @ u
    residual = u - basis.basis.T @ coeffs
    return coeffs, float(np.linalg.norm(residual))


# ---------------------------------------------------------------------------
# Coupled oscillator synchronization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoheSystem:
    """q unit-norm complex oscillator states with Hermitian generators and
    pairwise coupling.

    coupling="aligning" uses the dissipative form psi_q' - psi_q <psi_q|psi_q'>
    that actually contracts phase differences; "printed" keeps the whole
    right-hand side (coupling included) under the 1/(i*hbar) factor, which is
    purely conservative.
    """

    states: np.ndarray        # (Q, d) complex, unit rows
    hamiltonians: np.ndarray  # (Q, d, d) Hermitian
    hbar: float = 1.0
    alpha: float = 0.0
    beta: np.ndarray = None   # (Q, Q) coupling matrix, defaults to all-ones
    coupling: str = "aligning"

    def __post_init__(self):
        states = np.asarray(self.states, dtype=complex)
        hams = np.asarray(self.hamiltonians, dtype=complex)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "hamiltonians", hams)
        if states.ndim != 2:
            raise ValidationError("LoheSystem: states must be (Q, d)")
        q, d = states.shape
        norms = np.linalg.norm(states, axis=1)
        if np.max(np.abs(norms - 1.0)) > STATE_NORM_TOL:
            raise ValidationError("LoheSystem: states must be unit norm")
        if hams.shape != (q, d, d):
            raise ValidationError("LoheSystem: hamiltonians must be (Q, d, d)")
        if np.max(np.abs(hams - hams.conj().transpose(0, 2, 1))) > 1e-12:
            raise ValidationError("LoheSystem: hamiltonians must be Hermitian")
        if self.hbar <= 0:
            raise ValidationError("LoheSystem: hbar must be positive")
        beta = np.ones((q, q)) - np.eye(q) if self.beta is None else np.asarray(self.beta, dtype=float)
        if beta.shape != (q, q):
            raise ValidationError("LoheSystem: beta must be (Q, Q)")
        object.__setattr__(self, "beta", beta)
        if self.coupling not in ("aligning", "printed"):
            raise ValidationError("LoheSystem: unknown coupling mode")


def _lohe_deriv(sys: LoheSystem, psi: np.ndarray) -> np.ndarray:
    inner = psi.conj() @ psi.T  # inner[q, q'] = <psi_q | psi_q'>
    ham_term = np.einsum("qij,qj->qi", sys.hamiltonians, psi)
    if sys.coupling == "aligning":
        coup = np.einsum("qp,pi->qi", sys.beta, psi) \
            - np.einsum("qp,qp,qi->qi", sys.beta, inner, psi)
        return ham_term / (1j * sys.hbar) + (sys.alpha / sys.hbar) * coup
    coup = psi * sys.beta.sum(axis=1)[:, None] \
        - np.einsum("qp,qp,pi->qi", sys.beta, inner, psi)
    return (ham_term + sys.alpha * coup) / (1j * sys.hbar)


def lohe_integrate(sys: LoheSystem, dt: float, steps: int) -> np.ndarray:
    """Classic fourth-order integration with per-step renormalization of each
    state back to the unit sphere. Returns a (steps+1, Q, d) trajectory."""
    if dt <= 0 or steps < 1:
        raise ValidationError("lohe_integrate: dt > 0 and steps >= 1 required")
    psi = sys.states.copy()
    traj = np.zeros((steps + 1,) + psi.shape, dtype=complex)
    traj[0] = psi
    for step in range(1, steps + 1):
        k1 = _lohe_deriv(sys, psi)
        k2 = _lohe_deriv(sys, psi + dt / 2 * k1)
        k3 = _lohe_deriv(sys, psi + dt / 2 * k2)
        k4 = _lohe_deriv(sys, psi + dt * k3)
        psi = psi + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(psi)):
            raise NumericError(f"non-finite state at step {step}", partial=traj[:step])
        psi = psi / np.linalg.norm(psi, axis=1, keepdims=True)
        traj[step] = psi
    return traj


def sync_order(states: np.ndarray) -> float:
    """Norm of the phase-aligned mean state: sqrt of the largest eigenvalue of
    the averaged outer-product matrix. Equals 1 iff all states coincide up to
    a global phase."""
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2 or states.shape[0] < 1:
        raise ValidationError("sync_order: need a (Q, d) state block")
    rho = np.einsum("qi,qj->ij", states, states.conj()) / states.shape[0]
    return float(np.sqrt(max(np.linalg.eigvalsh(rho).max().real, 0.0)))


# ---------------------------------------------------------------------------
# Bilevel leader-follower game
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StackelbergInstance:
    """Finite bilevel game: the leader picks one conditional law from a grid,
    the follower set answers with the action maximizing its expected score."""

    leader_laws: tuple    # each (n_follower, n_leader_state), rows are pmfs
    payoffs: np.ndarray   # (n_follower, n_leader_state)
    leader_drift: Optional[np.ndarray] = None  # per-stage additive drift on laws

    def __post_init__(self):
        laws = tuple(np.asarray(l, dtype=float) for l in self.leader_laws)
        object.__setattr__(self, "leader_laws", laws)
        object.__setattr__(self, "payoffs", np.asarray(self.payoffs, dtype=float))
        if not laws:
            raise ValidationError("StackelbergInstance: empty leader grid")
        shape = laws[0].shape
        if self.payoffs.shape != shape:
            raise ValidationError("StackelbergInstance: payoff table shape mismatch")
        for l in laws:
            if l.shape != shape or np.any(l < 0) or \
                    np.max(np.abs(l.sum(axis=1) - 1.0)) > 1e-9:
                raise ValidationError("StackelbergInstance: each law row must be a pmf")
        if shape[0] < 1:
            raise ValidationError("StackelbergInstance: empty follower grid")

    def staged_laws(self, stage: int):
        if self.leader_drift is None or stage == 0:
            return self.leader_laws
        out = []
        for l in self.leader_laws:
            shifted = np.clip(l + stage * self.leader_drift, 1e-12, None)
            out.append(shifted / shifted.sum(axis=1, keepdims=True))
        return tuple(out)


def stackelberg_solve(inst: StackelbergInstance, stage: int = 0):
    """Exhaustive forward-backward enumeration.

    For each leader law, the follower's best response maximizes the
    law-weighted expected payoff (lowest index on ties); the leader then keeps
    the law whose induced response scores highest (lowest grid index on ties).
    Returns (leader law index, follower action, value).
    """
    laws = inst.staged_laws(stage)
    best = None
    for li, law in enumerate(laws):
        expected = (law * inst.payoffs).sum(axis=1)
        a = int(np.argmax(expected))  # argmax takes the first maximizer
        value = float(expected[a])
        if best is None or value > best[2]:
            best = (li, a, value)
    return best


# ---------------------------------------------------------------------------
# Coupled value/density field solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MfgGrid:
    """Uniform 1-D state grid and time axis for the backward value equation
    coupled with the forward density equation."""

    x_min: float
    x_max: float
    n_x: int
    n_t: int
    dt: float
    sigma: float
    initial_density: np.ndarray           # (n_x,), integrates to 1
    mu_weight: np.ndarray = None          # (n_t,), drift weight per time step
    terminal_value: np.ndarray = None     # (n_x,)
    running_cost: np.ndarray = None       # (n_x,)
    p_bar: float = 0.0
    control_max: float = 1.0

    def __post_init__(self):
        if self.n_x < 3 or self.n_t < 2 or self.dt <= 0 or self.sigma < 0:
            raise ValidationError("MfgGrid: bad axis parameters")
        if self.x_max <= self.x_min:
            raise ValidationError("MfgGrid: x_max must exceed x_min")
        dens = np.asarray(self.initial_density, dtype=float)
        if dens.shape != (self.n_x,) or np.any(dens < 0):
            raise ValidationError("MfgGrid: initial density must be non-negative, length n_x")
        mass = dens.sum() * self.dx
        if abs(mass - 1.0) > 1e-6:
            raise ValidationError("MfgGrid: initial density must integrate to 1")
        object.__setattr__(self, "initial_density", dens)
        for name, default in (("mu_weight", np.zeros(self.n_t)),
                              ("terminal_value", np.zeros(self.n_x)),
                              ("running_cost", np.zeros(self.n_x))):
            v = getattr(self, name)
            v = default if v is None else np.asarray(v, dtype=float)
            object.__setattr__(self, name, v)
        if self.mu_weight.shape != (self.n_t,):
            raise ValidationError("MfgGrid: mu_weight must have length n_t")
        if self.terminal_value.shape != (self.n_x,) or self.running_cost.shape != (self.n_x,):
            raise ValidationError("MfgGrid: value/cost fields must have length n_x")
        if self.control_max < 0:
            raise ValidationError("MfgGrid: control_max must be >= 0")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    def to_jsonable(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: list(v) if isinstance(v, np.ndarray) else v for k, v in out.items()}

    @classmethod
    def from_jsonable(cls, data) -> "MfgGrid":
        # __post_init__ turns the four field lists into float arrays
        return cls(**data)


@dataclass
class MfgSolution:
    value: np.ndarray      # (n_t, n_x)
    density: np.ndarray    # (n_t, n_x)
    residuals: list
    converged: bool
    drift: float


def _laplacian(f: np.ndarray, dx: float) -> np.ndarray:
    out = np.zeros_like(f)
    out[1:-1] = (f[2:] - 2 * f[1:-1] + f[:-2]) / dx**2
    # one-sided at the walls, consistent with zero-flux boundaries
    out[0] = (f[1] - f[0]) / dx**2
    out[-1] = (f[-2] - f[-1]) / dx**2
    return out


def mean_value_reduce(p_samples, mu_samples, dk: float = 1.0):
    """Collapse the time integral of p*mu to p(t0) * integral(mu).

    Returns (t0 index, mu_prime, residual) with mu_prime the trapezoid
    integral of mu and t0 the grid point minimizing the collapse residual.
    """
    p = np.asarray(p_samples, dtype=float)
    mu = np.asarray(mu_samples, dtype=float)
    if p.shape != mu.shape or p.ndim != 1 or p.size < 2:
        raise ValidationError("mean_value_reduce: aligned 1-D sample grids required")
    mu_prime = float(np.trapezoid(mu, dx=dk))
    if mu_prime == 0.0:
        raise DegenerateIntegralError("mean_value_reduce: integral of mu is zero")
    target = float(np.trapezoid(p * mu, dx=dk))
    errs = np.abs(p * mu_prime - target)
    t0 = int(np.argmin(errs))
    return t0, mu_prime, float(errs[t0])


def _drift(grid: MfgGrid, value: np.ndarray):
    """Drift scalar via the mean-value collapse of the time integral; p(k) is
    the spatial average of the control policy active at step k."""
    if np.trapezoid(grid.mu_weight, dx=grid.dt) == 0.0:
        return 0.0
    active = grid.mu_weight[:-1, None] * np.gradient(value[1:], grid.dx, axis=1) > 0
    policy = np.append(grid.control_max * np.mean(active, axis=1), 0.0)
    t0, mu_prime, _ = mean_value_reduce(policy, grid.mu_weight, dk=grid.dt)
    return policy[t0] * mu_prime


def _backward_value(grid: MfgGrid) -> np.ndarray:
    """Backward explicit sweep of the value field from the terminal value."""
    value = np.zeros((grid.n_t, grid.n_x))
    value[-1] = grid.terminal_value
    for k in range(grid.n_t - 2, -1, -1):
        ham = grid.running_cost - grid.p_bar + grid.control_max * np.maximum(
            0.0, grid.mu_weight[k] * np.gradient(value[k + 1], grid.dx))
        value[k] = value[k + 1] + grid.dt * (
            ham + grid.sigma**2 * _laplacian(value[k + 1], grid.dx))
    return value


def _forward_density(grid: MfgGrid, drift, residuals: list) -> np.ndarray:
    """Forward finite-volume sweep of the density under a scalar drift, flux
    form with zero-flux walls; a vanishing mass raises with the residuals."""
    dx, dt = grid.dx, grid.dt
    density = np.zeros((grid.n_t, grid.n_x))
    density[0] = grid.initial_density
    for k in range(grid.n_t - 1):
        rho = density[k]
        flux = grid.sigma**2 * (rho[1:] - rho[:-1]) / dx \
            - drift * (rho[:-1] if drift >= 0 else rho[1:])
        nxt = rho.copy()
        nxt[:-1] += dt / dx * flux
        nxt[1:] -= dt / dx * flux
        nxt = np.clip(nxt, 0.0, None)
        mass = nxt.sum() * dx
        if mass <= 0:
            raise NumericError("density mass vanished", partial=residuals)
        density[k + 1] = nxt / mass
    return density


def mfg_solve(grid: MfgGrid, tol: float = 1e-6, max_sweeps: int = 50,
              damping: float = 0.5) -> MfgSolution:
    """Damped fixed-point iteration of the coupled fields. The value field
    reads no density, so its backward sweep runs once; the density reads only
    the drift, taken from the initial guess (the terminal value tiled over
    time) in sweep 0 and from the solved value after, so at most two forward
    sweeps run. Each sweep mixes the density towards the latest of them."""
    if tol <= 0:
        raise ValidationError("mfg_solve: tol must be positive")
    if not 0 < damping <= 1:
        raise ValidationError("mfg_solve: damping must be in (0, 1]")
    if max_sweeps < 1:
        raise ValidationError("mfg_solve: max_sweeps must be >= 1")
    cfl = grid.sigma**2 * grid.dt / grid.dx**2
    if cfl > 0.5:
        raise ConfigurationError(f"explicit scheme unstable: sigma^2*dt/dx^2 = {cfl:.3g} > 0.5")
    value, residuals = _backward_value(grid), []
    drift = _drift(grid, np.tile(grid.terminal_value, (grid.n_t, 1)))
    target = _forward_density(grid, drift, residuals)
    density = np.tile(grid.initial_density, (grid.n_t, 1))
    for sweep in range(max_sweeps):
        if sweep == 1:
            guess_drift, drift = drift, _drift(grid, value)
            if drift != guess_drift:  # two zero drifts share the sign of mu's integral
                target = _forward_density(grid, drift, residuals)
        mixed = (1 - damping) * density + damping * target
        residuals.append(float(np.max(np.abs(mixed - density))))
        density = mixed
        if residuals[-1] < tol:
            break
    return MfgSolution(value=value, density=density, residuals=residuals,
                       converged=residuals[-1] < tol, drift=drift)


def kl_drift_profile(density_trajectory: np.ndarray, checkpoints):
    """KL (bits) between the initial density slice and each checkpoint slice,
    with slices renormalized to pmfs. Returns (kl values, argmin checkpoint).
    Disjoint support yields +inf entries."""
    traj = np.asarray(density_trajectory, dtype=float)
    checkpoints = [int(c) for c in checkpoints]
    if traj.ndim != 2:
        raise ValidationError("kl_drift_profile: need a (time, state) trajectory")
    if not checkpoints:
        raise ValidationError("kl_drift_profile: need at least one checkpoint")
    if any(c < 0 or c >= traj.shape[0] for c in checkpoints):
        raise ValidationError("kl_drift_profile: checkpoint outside horizon")

    def _pmf(row):
        s = row.sum()
        if s <= 0:
            raise ValidationError("kl_drift_profile: empty density slice")
        return row / s

    p0 = _pmf(traj[0])
    kls = np.asarray([prob.kl_or_inf(p0, _pmf(traj[c])) for c in checkpoints])
    return kls, checkpoints[int(np.argmin(kls))]


# ---------------------------------------------------------------------------
# Cluster-based path smoothing
# ---------------------------------------------------------------------------

@dataclass
class ClusterResult:
    gamma: np.ndarray     # (K, V) memberships, rows on the simplex
    smoothed: np.ndarray  # (K,) smoothed path
    levels: np.ndarray    # (V,) cluster levels
    objective: float


def _cluster_objective(smoothed, observed, data_weight):
    rough = float(np.sum(np.diff(smoothed) ** 2))
    fit = float(np.sum((smoothed - observed) ** 2))
    return rough + data_weight * fit


def fuzzy_cluster_relax(path, v_clusters: int, mode: str = "deterministic",
                        data_weight: float = 1.0, max_iter: int = 60) -> ClusterResult:
    """Cluster the path into V levels minimizing the membership-weighted
    squared-increment objective plus a data-fidelity term.

    data_weight = 0 reproduces the degenerate unregularized problem, whose
    optimum is a constant path with objective 0. Deterministic mode restricts
    memberships to {0,1} (solved by dynamic programming over assignments with
    alternating level refits); fuzzy mode uses quadratic-fuzzifier
    memberships. Membership rows satisfy the simplex constraints exactly.
    """
    x = np.asarray(path, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValidationError("fuzzy_cluster_relax: path must be 1-D")
    if v_clusters < 1:
        raise ValidationError("fuzzy_cluster_relax: need V >= 1")
    if data_weight < 0:
        raise ValidationError("fuzzy_cluster_relax: data_weight must be >= 0")
    if mode not in ("deterministic", "fuzzy"):
        raise ValidationError("fuzzy_cluster_relax: unknown mode")
    n, V = x.size, v_clusters

    if data_weight == 0.0 or V == 1 or np.ptp(x) == 0.0:
        level = float(np.mean(x)) if data_weight == 0.0 or V == 1 else float(x[0])
        gamma = np.zeros((n, V))
        gamma[:, 0] = 1.0
        smoothed = np.full(n, level)
        levels = np.full(V, level)
        if np.ptp(x) == 0.0 and data_weight > 0:
            smoothed = x.copy()
            levels = np.full(V, x[0])
        return ClusterResult(gamma, smoothed,
                             levels, _cluster_objective(smoothed, x, data_weight))

    def refit(assign):
        """Exact quadratic refit of the level vector for a fixed assignment."""
        A = np.zeros((V, V))
        b = np.zeros(V)
        for k in range(n):
            A[assign[k], assign[k]] += data_weight
            b[assign[k]] += data_weight * x[k]
        for k in range(n - 1):
            a_, b_ = assign[k], assign[k + 1]
            if a_ != b_:
                A[a_, a_] += 1.0
                A[b_, b_] += 1.0
                A[a_, b_] -= 1.0
                A[b_, a_] -= 1.0
        used = np.diag(A) > 0
        out = np.zeros(V)
        if np.any(used):
            out[used] = np.linalg.solve(
                A[np.ix_(used, used)] + 1e-12 * np.eye(int(used.sum())), b[used])
        return out

    def descend(levels):
        assign = np.zeros(n, dtype=int)
        for _ in range(max_iter):
            # exact assignment for fixed levels via DP over the chain
            cost = data_weight * (x[:, None] - levels[None, :]) ** 2  # (n, V)
            dp = cost[0].copy()
            back = np.zeros((n, V), dtype=int)
            for k in range(1, n):
                trans = dp[:, None] + (levels[:, None] - levels[None, :]) ** 2
                back[k] = np.argmin(trans, axis=0)
                dp = trans[back[k], np.arange(V)] + cost[k]
            new_assign = np.zeros(n, dtype=int)
            new_assign[-1] = int(np.argmin(dp))
            for k in range(n - 1, 0, -1):
                new_assign[k - 1] = back[k, new_assign[k]]
            new_levels = refit(new_assign)
            if np.array_equal(new_assign, assign) and np.allclose(new_levels, levels):
                break
            assign, levels = new_assign, new_levels
        return assign, levels, _cluster_objective(levels[assign], x, data_weight)

    # alternation is init-sensitive, so run a deterministic multi-start:
    # the quantile spread plus seeded picks of V data values as levels
    starts = [np.quantile(x, np.linspace(0, 1, V))]
    rng = np.random.default_rng(0)
    for _ in range(min(16, max(4, n))):
        starts.append(rng.choice(x, size=V, replace=n < V))
    assign, levels, best_obj = None, None, np.inf
    for init in starts:
        a_t, l_t, obj_t = descend(np.asarray(init, dtype=float))
        if obj_t < best_obj - 1e-15:
            assign, levels, best_obj = a_t, l_t, obj_t

    if mode == "deterministic":
        gamma = np.zeros((n, V))
        gamma[np.arange(n), assign] = 1.0
        smoothed = levels[assign]
    else:
        d2 = (x[:, None] - levels[None, :]) ** 2 + 1e-12
        inv = 1.0 / d2
        gamma = inv / inv.sum(axis=1, keepdims=True)
        smoothed = gamma @ levels
    return ClusterResult(gamma, smoothed, levels,
                         _cluster_objective(smoothed, x, data_weight))
