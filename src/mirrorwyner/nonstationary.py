"""Non-stationarity suite: coupled oscillator synchronization, the bilevel
leader-follower game, and the coupled value/density field solver with the
mean-value reduction it leans on.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import (ConfigurationError, DegenerateIntegralError, NumericError,
                     ValidationError)

STATE_NORM_TOL = 1e-8


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


def _lohe_rhs(sys: LoheSystem):
    """The right-hand side psi -> psi' of `sys`, with 1/(i*hbar), alpha/hbar
    and beta folded into the generators `hc` (Q, d, d) and the complex
    coupling matrix once, so a call costs O(Q^2 d + Q d^2) in a few numpy
    calls and casts nothing.

    aligning: H_q psi_q / (i hbar)
              + (alpha/hbar) sum_p beta_qp (psi_p - <psi_q|psi_p> psi_q)
    printed:  (H_q psi_q + alpha sum_p beta_qp (psi_q - <psi_q|psi_p> psi_p))
              / (i hbar), whose psi_q terms go into the diagonal of hc.
    """
    scale = 1 / (1j * sys.hbar)
    if sys.coupling == "aligning":
        hc = sys.hamiltonians * scale
        ab = (sys.beta * (sys.alpha / sys.hbar)).astype(complex)

        def rhs(p):
            bp = ab @ p
            return ((hc @ p[:, :, None])[:, :, 0] + bp
                    - np.add.reduce(p.conj() * bp, 1, keepdims=True) * p)
        return rhs
    diag = sys.alpha * sys.beta.sum(axis=1)[:, None, None] * np.eye(sys.states.shape[1])
    hc = (sys.hamiltonians + diag) * scale
    cb = sys.beta * (sys.alpha * scale)

    def rhs(p):
        return (hc @ p[:, :, None])[:, :, 0] - ((p.conj() @ p.T) * cb) @ p
    return rhs


def lohe_integrate(sys: LoheSystem, dt: float, steps: int) -> np.ndarray:
    """Classic fourth-order integration with per-step renormalization of each
    state back to the unit sphere, written straight into the trajectory.
    Returns a (steps+1, Q, d) trajectory."""
    if dt <= 0 or steps < 1:
        raise ValidationError("lohe_integrate: dt > 0 and steps >= 1 required")
    rhs, h2, h6 = _lohe_rhs(sys), dt / 2, dt / 6
    traj = np.zeros((steps + 1,) + sys.states.shape, dtype=complex)
    traj[0] = sys.states
    psi = traj[0]
    for step in range(1, steps + 1):
        k1 = rhs(psi)
        k2 = rhs(psi + h2 * k1)
        k3 = rhs(psi + h2 * k2)
        k4 = rhs(psi + dt * k3)
        psi = psi + h6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(psi).all():
            raise NumericError(f"non-finite state at step {step}")
        norm2 = np.add.reduce((psi * psi.conj()).real, 1, keepdims=True)
        psi = np.divide(psi, np.sqrt(norm2), out=traj[step])
    return traj


def sync_order(states: np.ndarray):
    """Norm of the phase-aligned mean state: sqrt of the largest eigenvalue of
    the averaged outer-product matrix. Equals 1 iff all states coincide up to
    a global phase. A (Q, d) block gives a float, a (..., Q, d) stack an
    array of one value per block."""
    states = np.asarray(states, dtype=complex)
    if states.ndim < 2 or states.shape[-2] < 1:
        raise ValidationError("sync_order: need a (Q, d) state block")
    rho = np.einsum("...qi,...qj->...ij", states, states.conj()) / states.shape[-2]
    order = np.sqrt(np.maximum(np.linalg.eigvalsh(rho).max(-1), 0.0))
    return float(order) if states.ndim == 2 else order


# ---------------------------------------------------------------------------
# Bilevel leader-follower game
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StackelbergInstance:
    """Finite bilevel game: the leader picks one conditional law from a grid,
    the follower set answers with the action maximizing its expected score."""

    leader_laws: np.ndarray  # (n_laws, n_follower, n_leader_state), rows are pmfs
    payoffs: np.ndarray      # (n_follower, n_leader_state)
    leader_drift: Optional[np.ndarray] = None  # per-stage additive drift on every law

    def __post_init__(self):
        try:   # a tuple or list of equal-shape laws stacks into one array
            laws = np.asarray(self.leader_laws, dtype=float)
        except ValueError:   # laws of unequal shapes
            raise ValidationError("StackelbergInstance: laws and payoffs need one 2-D shape")
        drift = None if self.leader_drift is None else np.asarray(self.leader_drift, dtype=float)
        object.__setattr__(self, "leader_laws", laws)
        object.__setattr__(self, "payoffs", np.asarray(self.payoffs, dtype=float))
        object.__setattr__(self, "leader_drift", drift)
        if laws.shape[:1] == (0,):
            raise ValidationError("StackelbergInstance: empty leader grid")
        shape = laws.shape[1:]
        if len(shape) != 2 or self.payoffs.shape != shape:
            raise ValidationError("StackelbergInstance: laws and payoffs need one 2-D shape")
        if shape[0] < 1:
            raise ValidationError("StackelbergInstance: empty follower grid")
        if not all(np.isfinite(a).all() for a in (laws, self.payoffs, drift) if a is not None):
            raise ValidationError("StackelbergInstance: laws, payoffs and drift must be finite")
        if np.any(laws < 0) or np.max(np.abs(laws.sum(axis=2) - 1.0)) > 1e-9:
            raise ValidationError("StackelbergInstance: each law row must be a pmf")
        if drift is not None and drift.shape != shape:
            raise ValidationError("StackelbergInstance: drift must have the law shape")

    def staged_laws(self, stage: int) -> np.ndarray:
        if self.leader_drift is None or stage == 0:
            return self.leader_laws
        shifted = np.clip(self.leader_laws + stage * self.leader_drift, 1e-12, None)
        sums = shifted.sum(axis=2, keepdims=True)
        if not np.isfinite(sums).all():   # the laws would be all zeros, or inf / inf
            raise NumericError(f"staged_laws: a drifted law row sums to inf at stage {stage}")
        return shifted / sums


def stackelberg_solve(inst: StackelbergInstance, stage: int = 0):
    """Exhaustive forward-backward enumeration, every law in one pass.

    For each leader law, the follower's best response maximizes the
    law-weighted expected payoff (lowest index on ties); the leader then keeps
    the law whose induced response scores highest (lowest grid index on ties).
    Returns (leader law index, follower action, value).
    """
    expected = (inst.staged_laws(stage) * inst.payoffs).sum(-1)   # (n_laws, n_follower)
    if not np.isfinite(expected).all():
        raise NumericError(f"stackelberg_solve: an expected payoff overflows at stage {stage}")
    actions = expected.argmax(1)   # argmax takes the first maximizer
    values = expected[np.arange(len(expected)), actions]
    li = int(values.argmax())
    return li, int(actions[li]), float(values[li])


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
        if not all(np.isfinite(getattr(self, f.name)).all() for f in fields(self)):
            raise ValidationError("MfgGrid: every field must be finite")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)


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


def _gradient(f: np.ndarray, dx: float) -> np.ndarray:
    """`np.gradient(f, dx, axis=-1)` bit for bit, without its per-call set-up:
    central differences inside, one-sided first differences at the ends."""
    out = np.empty_like(f)
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2. * dx)
    out[..., 0] = (f[..., 1] - f[..., 0]) / dx
    out[..., -1] = (f[..., -1] - f[..., -2]) / dx
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
    active = grid.mu_weight[:-1, None] * _gradient(value[1:], grid.dx) > 0
    policy = np.append(grid.control_max * np.mean(active, axis=1), 0.0)
    t0, mu_prime, _ = mean_value_reduce(policy, grid.mu_weight, dk=grid.dt)
    return policy[t0] * mu_prime


def _backward_value(grid: MfgGrid) -> np.ndarray:
    """Backward explicit sweep of the value field from the terminal value."""
    dx, dt, mu, control_max = grid.dx, grid.dt, grid.mu_weight, grid.control_max
    cost, diffusion = grid.running_cost - grid.p_bar, grid.sigma**2
    value = np.zeros((grid.n_t, grid.n_x))
    value[-1] = grid.terminal_value
    for k in range(grid.n_t - 2, -1, -1):
        v = value[k + 1]
        ham = cost + control_max * np.maximum(0.0, mu[k] * _gradient(v, dx))
        value[k] = v + dt * (ham + diffusion * _laplacian(v, dx))
    return value


def _forward_density(grid: MfgGrid, drift) -> np.ndarray:
    """Forward finite-volume sweep of the density under a scalar drift, flux
    form with zero-flux walls; a vanishing mass raises.
    The upwind step is stable only for a Courant number |drift| dt / dx of
    at most 1, and clipping would hide the blow-up, so a larger one raises."""
    dx, dt = grid.dx, grid.dt
    courant = abs(drift) * dt / dx
    if not courant <= 1:
        raise ConfigurationError(
            f"MfgGrid: explicit scheme unstable: |drift|*dt/dx = {courant:.3g} > 1")
    diffusion, upwind = grid.sigma**2, slice(None, -1) if drift >= 0 else slice(1, None)
    density = np.zeros((grid.n_t, grid.n_x))
    density[0] = grid.initial_density
    for k in range(grid.n_t - 1):
        rho = density[k]
        flux = diffusion * (rho[1:] - rho[:-1]) / dx - drift * rho[upwind]
        moved = dt / dx * flux
        nxt = rho.copy()
        nxt[:-1] += moved
        nxt[1:] -= moved
        np.maximum(nxt, 0.0, out=nxt)   # np.clip(nxt, 0.0, None) is this call
        mass = np.add.reduce(nxt) * dx
        if mass <= 0:
            raise NumericError("density mass vanished")
        np.divide(nxt, mass, out=density[k + 1])
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
        raise ConfigurationError(
            f"MfgGrid: explicit scheme unstable: sigma^2*dt/dx^2 = {cfl:.3g} > 0.5")
    value, residuals = _backward_value(grid), []
    if np.isnan(value).any():   # an overflow, e.g. inf - inf in a gradient
        raise NumericError("mfg_solve: the value field overflowed to NaN")
    drift = _drift(grid, np.tile(grid.terminal_value, (grid.n_t, 1)))
    target = _forward_density(grid, drift)
    density = np.tile(grid.initial_density, (grid.n_t, 1))
    for sweep in range(max_sweeps):
        if sweep == 1:
            guess_drift, drift = drift, _drift(grid, value)
            if drift != guess_drift:  # two zero drifts share the sign of mu's integral
                target = _forward_density(grid, drift)
        mixed = (1 - damping) * density + damping * target
        residuals.append(float(np.max(np.abs(mixed - density))))
        density = mixed
        if residuals[-1] < tol:
            break
    return MfgSolution(value=value, density=density, residuals=residuals,
                       converged=residuals[-1] < tol, drift=drift)

