"""Non-stationarity suite: oscillators against the matrix-exponential oracle,
the coupled value/density solver against the heat kernel, and the bilevel
game against brute force."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

from mirrorwyner import cli
from mirrorwyner import nonstationary as ns
from mirrorwyner.errors import (ConfigurationError, DegenerateIntegralError,
                                NumericError, ValidationError)


def gaussian_density(xs, s0):
    dens = np.exp(-xs ** 2 / (2 * s0 ** 2))
    return dens / (dens.sum() * (xs[1] - xs[0]))


def heat_grid(n_x=101, n_t=100, sigma=0.1, dt=0.01, s0=0.5):
    xs = np.linspace(-3.0, 3.0, n_x)
    return ns.MfgGrid(x_min=-3.0, x_max=3.0, n_x=n_x, n_t=n_t, dt=dt,
                      sigma=sigma, initial_density=gaussian_density(xs, s0))


class TestLohe:
    def make_system(self, q=3, d=2, alpha=0.0, seed=0, coupling="aligning",
                    common=True):
        rng = np.random.default_rng(seed)
        states = rng.normal(size=(q, d)) + 1j * rng.normal(size=(q, d))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        h = rng.normal(size=(q, d, d))
        hams = (h + h.transpose(0, 2, 1)) / 2
        if common:
            hams = np.broadcast_to(hams[0], (q, d, d)).copy()
        return ns.LoheSystem(states=states, hamiltonians=hams,
                             alpha=alpha, coupling=coupling)

    def test_uncoupled_matches_matrix_exponential(self):
        sys = self.make_system(alpha=0.0, common=False)
        dt, steps = 1e-3, 1000
        traj = ns.lohe_integrate(sys, dt, steps)
        for q in range(3):
            expect = expm(-1j * sys.hamiltonians[q] * dt * steps) @ sys.states[q]
            np.testing.assert_allclose(traj[-1, q], expect, atol=1e-6)

    def test_norms_preserved(self):
        sys = self.make_system(alpha=1.0, seed=2)
        traj = ns.lohe_integrate(sys, 1e-2, 500)
        norms = np.linalg.norm(traj, axis=2)
        assert np.max(np.abs(norms - 1.0)) < 1e-8

    def test_aligning_coupling_synchronizes(self):
        sys = self.make_system(q=4, alpha=1.5, seed=3)
        traj = ns.lohe_integrate(sys, 1e-2, 2000)
        start = ns.sync_order(traj[0])
        end = ns.sync_order(traj[-1])
        assert end > 0.99
        assert end > start

    def test_printed_coupling_conserves_overlaps(self):
        # with the coupling under 1/(i*hbar) the flow is unitary-like and
        # pairwise overlaps keep their magnitude instead of contracting
        sys = self.make_system(q=2, alpha=1.5, seed=4, coupling="printed")
        traj = ns.lohe_integrate(sys, 1e-3, 2000)
        c0 = abs(np.vdot(traj[0, 0], traj[0, 1]))
        c1 = abs(np.vdot(traj[-1, 0], traj[-1, 1]))
        # conserved up to integrator truncation error; contrast with the
        # aligning mode, which drives the overlap to 1
        assert c1 == pytest.approx(c0, abs=1e-4)

    @staticmethod
    def einsum_deriv(sys, psi):
        """The right-hand side term by term, each constant applied per call."""
        inner = psi.conj() @ psi.T  # inner[q, q'] = <psi_q | psi_q'>
        ham_term = np.einsum("qij,qj->qi", sys.hamiltonians, psi)
        if sys.coupling == "aligning":
            coup = np.einsum("qp,pi->qi", sys.beta, psi) \
                - np.einsum("qp,qp,qi->qi", sys.beta, inner, psi)
            return ham_term / (1j * sys.hbar) + (sys.alpha / sys.hbar) * coup
        coup = psi * sys.beta.sum(axis=1)[:, None] \
            - np.einsum("qp,qp,pi->qi", sys.beta, inner, psi)
        return (ham_term + sys.alpha * coup) / (1j * sys.hbar)

    @classmethod
    def einsum_integrate(cls, sys, dt, steps):
        psi, traj = sys.states.copy(), [sys.states]
        for _ in range(steps):
            k1 = cls.einsum_deriv(sys, psi)
            k2 = cls.einsum_deriv(sys, psi + dt / 2 * k1)
            k3 = cls.einsum_deriv(sys, psi + dt / 2 * k2)
            k4 = cls.einsum_deriv(sys, psi + dt * k3)
            psi = psi + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            psi = psi / np.linalg.norm(psi, axis=1, keepdims=True)
            traj.append(psi)
        return np.array(traj)

    @staticmethod
    def general_system(q, d, coupling, seed):
        """Distinct complex Hermitian generators, an asymmetric beta with a
        nonzero diagonal, and hbar != 1."""
        rng = np.random.default_rng(seed)
        states = rng.normal(size=(q, d)) + 1j * rng.normal(size=(q, d))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        h = rng.normal(size=(q, d, d)) + 1j * rng.normal(size=(q, d, d))
        hams = (h + h.conj().transpose(0, 2, 1)) / 2
        return ns.LoheSystem(states=states, hamiltonians=hams, hbar=0.7, alpha=1.3,
                             beta=rng.uniform(0.0, 2.0, size=(q, q)), coupling=coupling)

    @pytest.mark.parametrize("coupling", ["aligning", "printed"])
    @pytest.mark.parametrize("q,d", [(1, 1), (2, 3), (5, 2)])
    def test_rhs_matches_einsum_oracle(self, q, d, coupling):
        sys = self.general_system(q, d, coupling, seed=10 * q + d)
        assert sys.beta[0, 0] != 0 and (q == 1 or not np.allclose(sys.beta, sys.beta.T))
        rhs = ns._lohe_rhs(sys)
        rng = np.random.default_rng(q * d)
        for _ in range(20):
            psi = rng.normal(size=(q, d)) + 1j * rng.normal(size=(q, d))
            expect = self.einsum_deriv(sys, psi)
            got = rhs(psi)
            assert got.shape == expect.shape
            assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    @pytest.mark.parametrize("coupling", ["aligning", "printed"])
    @pytest.mark.parametrize("q,d", [(1, 1), (2, 3), (5, 2)])
    def test_trajectory_matches_einsum_rk4(self, q, d, coupling):
        sys = self.general_system(q, d, coupling, seed=q + 7 * d)
        traj = ns.lohe_integrate(sys, 1e-2, 500)
        assert traj.shape == (501, q, d)
        np.testing.assert_allclose(traj, self.einsum_integrate(sys, 1e-2, 500),
                                   rtol=0, atol=1e-12)

    @staticmethod
    def reference_integrate(sys, dt, steps):
        """`lohe_integrate` as it stood before its numpy calls were trimmed, in
        the same operation order: a real coupling matrix cast to complex in
        every product, `.sum` reductions, and a fresh normalized state per
        step. The integrator must match it bit for bit."""
        scale = 1 / (1j * sys.hbar)
        if sys.coupling == "aligning":
            hc = sys.hamiltonians * scale
            ab = sys.beta * (sys.alpha / sys.hbar)

            def rhs(p):
                bp = ab @ p
                return ((hc @ p[:, :, None])[:, :, 0] + bp
                        - (p.conj() * bp).sum(1, keepdims=True) * p)
        else:
            diag = sys.alpha * sys.beta.sum(axis=1)[:, None, None] * np.eye(sys.states.shape[1])
            hc = (sys.hamiltonians + diag) * scale
            cb = sys.beta * (sys.alpha * scale)

            def rhs(p):
                return (hc @ p[:, :, None])[:, :, 0] - ((p.conj() @ p.T) * cb) @ p
        h2, h6 = dt / 2, dt / 6
        psi = sys.states.copy()
        traj = np.zeros((steps + 1,) + psi.shape, dtype=complex)
        traj[0] = psi
        for step in range(1, steps + 1):
            k1 = rhs(psi)
            k2 = rhs(psi + h2 * k1)
            k3 = rhs(psi + h2 * k2)
            k4 = rhs(psi + dt * k3)
            psi = psi + h6 * (k1 + 2 * k2 + 2 * k3 + k4)
            psi = psi / np.sqrt((psi * psi.conj()).real.sum(1, keepdims=True))
            traj[step] = psi
        return traj

    @pytest.mark.parametrize("coupling", ["aligning", "printed"])
    @pytest.mark.parametrize("common", [True, False])
    def test_trajectory_bit_identical_to_reference(self, coupling, common):
        # the benchmark's lohe shape, q = 4 and d = 2, over 500 steps of 0.01,
        # built as `cli.run_lohe` builds it, and one general system
        systems = [self.make_system(q=4, d=2, alpha=1.0, seed=seed, coupling=coupling,
                                    common=common) for seed in range(3)]
        if not common:
            systems.append(self.general_system(4, 2, coupling, seed=5))
        for sys in systems:
            assert np.array_equal(ns.lohe_integrate(sys, 1e-2, 500),
                                  self.reference_integrate(sys, 1e-2, 500))

    def test_sync_order_bounds(self):
        psi = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
        assert ns.sync_order(psi) == pytest.approx(1.0, abs=1e-12)
        ortho = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        assert ns.sync_order(ortho) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    @pytest.mark.parametrize("q,d", [(1, 1), (4, 2), (3, 5)])
    def test_sync_order_stack_matches_blocks(self, q, d):
        traj = ns.lohe_integrate(self.make_system(q=q, d=d, alpha=1.0, seed=q + d),
                                 1e-2, 60)
        stacked = ns.sync_order(traj)
        assert isinstance(stacked, np.ndarray) and stacked.shape == (61,)
        per_block = [ns.sync_order(block) for block in traj]
        assert all(type(v) is float for v in per_block)
        assert stacked.tolist() == per_block
        # a deeper stack keeps its leading axes
        assert ns.sync_order(traj[:60].reshape(6, 10, q, d)).tolist() == \
            np.reshape(per_block[:60], (6, 10)).tolist()
        with pytest.raises(ValidationError):
            ns.sync_order(np.ones(3))

    def test_validation(self):
        with pytest.raises(ValidationError):
            ns.LoheSystem(states=np.array([[2.0, 0.0]], dtype=complex),
                          hamiltonians=np.zeros((1, 2, 2)))
        good = np.array([[1.0, 0.0]], dtype=complex)
        bad_h = np.array([[[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(ValidationError):
            ns.LoheSystem(states=good, hamiltonians=bad_h)


@st.composite
def dyadic_stackelberg_games(draw):
    """L laws of F x U tables, L, F and U in 1..9, whose every staged law
    and expected payoff is exact, so any summation order gives the same
    floats: law rows in 64ths with every entry at least 2/64, drift rows
    in 256ths that sum to zero and move an entry by at most 1/256 a stage
    (so stages 0-4 leave it positive and its row sum 1), and integer
    payoffs in [-2, 2], which tie often."""
    n_laws, n_f, n_u = (draw(st.integers(1, 9)) for _ in range(3))
    cuts = np.sort(draw(hnp.arrays(np.int64, (n_laws, n_f, n_u - 1),
                                   elements=st.integers(0, 64 - 2 * n_u))), axis=-1)
    edges = np.concatenate([np.zeros((n_laws, n_f, 1), int), cuts,
                            np.full((n_laws, n_f, 1), 64 - 2 * n_u)], axis=-1)
    laws = (2 + np.diff(edges, axis=-1)) / 64
    payoffs = draw(hnp.arrays(np.int64, (n_f, n_u), elements=st.integers(-2, 2)))
    shifts = draw(hnp.arrays(np.int64, (n_f, n_u), elements=st.integers(0, 1)))
    drift = (shifts - np.roll(shifts, 1, axis=1)) / 256
    return ns.StackelbergInstance(list(laws), payoffs, drift)


class TestStackelberg:
    def brute_force(self, inst, stage=0):
        laws = inst.staged_laws(stage)
        best = None
        for li, law in enumerate(laws):
            expected = [float(law[a] @ inst.payoffs[a]) for a in range(law.shape[0])]
            a_best, v_best = 0, expected[0]
            for a, v in enumerate(expected):
                if v > v_best:
                    a_best, v_best = a, v
            if best is None or v_best > best[2]:
                best = (li, a_best, v_best)
        return best

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        laws = tuple(rng.dirichlet(np.ones(5), size=4) for _ in range(6))
        inst = ns.StackelbergInstance(leader_laws=laws,
                                      payoffs=rng.normal(size=(4, 5)))
        li, a, v = ns.stackelberg_solve(inst)
        li_b, a_b, v_b = self.brute_force(inst)
        assert (li, a) == (li_b, a_b)
        assert v == pytest.approx(v_b, abs=1e-12)

    @given(dyadic_stackelberg_games())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_exactly_on_ties(self, inst):
        for stage in range(5):
            assert ns.stackelberg_solve(inst, stage) == self.brute_force(inst, stage)

    def test_drift_changes_stage(self):
        rng = np.random.default_rng(1)
        laws = tuple(rng.dirichlet(np.ones(3), size=3) for _ in range(4))
        inst = ns.StackelbergInstance(
            leader_laws=laws, payoffs=rng.normal(size=(3, 3)),
            leader_drift=np.full((3, 3), 0.1))
        for stage in (0, 1, 3):
            li, a, v = ns.stackelberg_solve(inst, stage)
            li_b, a_b, v_b = self.brute_force(inst, stage)
            assert (li, a) == (li_b, a_b)
            assert v == pytest.approx(v_b, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ns.StackelbergInstance(leader_laws=(), payoffs=np.zeros((1, 1)))
        with pytest.raises(ValidationError):
            ns.StackelbergInstance(
                leader_laws=(np.array([[0.5, 0.6]]),), payoffs=np.zeros((1, 2)))

    def test_laws_must_be_tables(self):
        # a 1-D law once reached the row sums and raised numpy's AxisError
        with pytest.raises(ValidationError, match="2-D shape"):
            ns.StackelbergInstance(leader_laws=(np.array([0.5, 0.5]),),
                                   payoffs=np.array([1.0, 2.0]))

    def test_list_drift_is_an_array(self):
        # a list drift was once kept as a list, so `stage * drift` repeated
        # it and stage 2 failed to broadcast
        rng = np.random.default_rng(2)
        laws = tuple(rng.dirichlet(np.ones(2), size=2) for _ in range(3))
        drift = [[0.1, -0.1], [-0.2, 0.2]]
        listed = ns.StackelbergInstance(laws, rng.normal(size=(2, 2)), drift)
        arrayed = ns.StackelbergInstance(laws, listed.payoffs, np.array(drift))
        for stage in (1, 2, 3):
            assert ns.stackelberg_solve(listed, stage) == ns.stackelberg_solve(arrayed, stage)
            assert ns.stackelberg_solve(listed, stage) == self.brute_force(listed, stage)

    def test_empty_follower_grid(self):
        # once unreachable: a (0, 3) law hit numpy's zero-size max first
        with pytest.raises(ValidationError, match="empty follower grid"):
            ns.StackelbergInstance(leader_laws=(np.zeros((0, 3)),), payoffs=np.zeros((0, 3)))

    @pytest.mark.parametrize("where,value", [
        ("law", np.nan), ("payoffs", np.nan), ("payoffs", np.inf), ("payoffs", -np.inf),
        ("drift", np.nan), ("drift", np.inf)])
    def test_non_finite_inputs_fail(self, where, value):
        # a NaN law entry once solved to value nan, an inf payoff to inf
        parts = {"law": np.full((2, 2), 0.5), "payoffs": np.ones((2, 2)),
                 "drift": np.zeros((2, 2))}
        parts[where][1, 0] = value
        with pytest.raises(ValidationError):
            ns.StackelbergInstance((parts["law"],), parts["payoffs"], parts["drift"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_drift_overflow_raises(self):
        # a law row summing to inf once staged to all zeros (value 0.0 at
        # stage 1) or to inf / inf (value nan at stage 2)
        laws = np.full((2, 2, 2), 0.5)
        inst = ns.StackelbergInstance(laws, np.arange(4.0).reshape(2, 2), np.full((2, 2), 1e308))
        assert ns.stackelberg_solve(inst, 0) == (0, 1, 2.5)
        for stage in (1, 2):
            with pytest.raises(NumericError, match=f"sums to inf at stage {stage}"):
                ns.stackelberg_solve(inst, stage)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_expected_payoff_overflow_raises(self):
        # rows within the pmf tolerance above 1 take the largest float past inf
        laws = np.full((1, 1, 2), 0.5000000004)
        inst = ns.StackelbergInstance(laws, np.full((1, 2), np.finfo(float).max))
        with pytest.raises(NumericError, match="expected payoff overflows"):
            ns.stackelberg_solve(inst)

    @pytest.mark.parametrize("drift", [[[1.0, 2.0, 3.0]], [0.1, 0.1], 0.1])
    def test_drift_must_have_the_law_shape(self, drift):
        # checked at construction, so stage 0, which skips the drift, fails too
        with pytest.raises(ValidationError, match="drift"):
            ns.StackelbergInstance(leader_laws=(np.array([[0.5, 0.5]]),),
                                   payoffs=np.array([[1.0, 2.0]]), leader_drift=drift)


class TestMfg:
    def test_heat_kernel(self):
        grid = heat_grid()
        sol = ns.mfg_solve(grid, damping=1.0)
        assert sol.converged
        assert sol.residuals[-1] < 1e-5
        xs = grid.xs
        t_final = (grid.n_t - 1) * grid.dt
        var = 0.5 ** 2 + 2 * grid.sigma ** 2 * t_final
        ref = np.exp(-xs ** 2 / (2 * var))
        ref /= ref.sum() * grid.dx
        l1 = float(np.sum(np.abs(sol.density[-1] - ref)) * grid.dx)
        assert l1 < 1e-3

    def test_mass_conserved_every_slice(self):
        grid = heat_grid()
        sol = ns.mfg_solve(grid, damping=1.0)
        masses = sol.density.sum(axis=1) * grid.dx
        assert np.max(np.abs(masses - 1.0)) < 1e-6

    def test_cfl_guard(self):
        xs = np.linspace(-3, 3, 31)
        with pytest.raises(ConfigurationError):
            ns.mfg_solve(ns.MfgGrid(x_min=-3, x_max=3, n_x=31, n_t=10, dt=0.5,
                                    sigma=1.0,
                                    initial_density=gaussian_density(xs, 0.5)))

    def test_terminal_condition_honored(self):
        xs = np.linspace(-3, 3, 51)
        term = xs ** 2
        grid = ns.MfgGrid(x_min=-3, x_max=3, n_x=51, n_t=20, dt=0.001,
                          sigma=0.1, initial_density=gaussian_density(xs, 0.5),
                          terminal_value=term)
        sol = ns.mfg_solve(grid, damping=1.0)
        np.testing.assert_allclose(sol.value[-1], term, atol=1e-12)

    def test_density_validation(self):
        with pytest.raises(ValidationError):
            ns.MfgGrid(x_min=-3, x_max=3, n_x=11, n_t=5, dt=0.01, sigma=0.1,
                       initial_density=np.ones(11))

    def test_value_overflow_raises(self):
        xs = np.linspace(-3, 3, 21)
        grid = ns.MfgGrid(x_min=-3.0, x_max=3.0, n_x=21, n_t=5, dt=0.01, sigma=0.1,
                          initial_density=gaussian_density(xs, 0.5),
                          terminal_value=[1e308, -1e308] * 10 + [0.0])
        with pytest.warns(RuntimeWarning), pytest.raises(NumericError, match="NaN"):
            ns.mfg_solve(grid)

    @pytest.mark.parametrize("field,value", [
        ("terminal_value", [np.nan] * 21), ("running_cost", [0.0] * 20 + [np.inf]),
        ("mu_weight", [np.nan] * 5), ("p_bar", np.nan), ("control_max", np.inf),
        ("x_min", -np.inf)])
    def test_non_finite_field_rejected(self, field, value):
        xs = np.linspace(-3, 3, 21)
        kw = dict(x_min=-3.0, x_max=3.0, n_x=21, n_t=5, dt=0.01, sigma=0.1,
                  initial_density=gaussian_density(xs, 0.5))
        with pytest.raises(ValidationError, match="MfgGrid"):
            ns.MfgGrid(**dict(kw, **{field: value}))


def iterated_mfg(grid, tol=1e-6, max_sweeps=50, damping=0.5):
    """Reference: the fixed-point loop that recomputes the drift, the value
    field and the density field from scratch in every sweep."""
    dx, dt = grid.dx, grid.dt
    n_t = grid.n_t
    density = np.tile(grid.initial_density, (n_t, 1))
    value = np.tile(grid.terminal_value, (n_t, 1))
    residuals, drift, converged = [], 0.0, False
    for _ in range(max_sweeps):
        policy = np.zeros(n_t)
        for k in range(n_t - 1):
            active = grid.mu_weight[k] * np.gradient(value[k + 1], dx) > 0
            policy[k] = grid.control_max * float(np.mean(active))
        if np.trapezoid(grid.mu_weight, dx=dt) == 0.0:
            drift = 0.0
        else:
            t0, mu_prime, _ = ns.mean_value_reduce(policy, grid.mu_weight, dk=dt)
            drift = policy[t0] * mu_prime
        new_value = np.zeros_like(value)
        new_value[-1] = grid.terminal_value
        for k in range(n_t - 2, -1, -1):
            grad_j = np.gradient(new_value[k + 1], dx)
            ham = grid.running_cost - grid.p_bar \
                + grid.control_max * np.maximum(0.0, grid.mu_weight[k] * grad_j)
            new_value[k] = new_value[k + 1] + dt * (
                ham + grid.sigma**2 * ns._laplacian(new_value[k + 1], dx))
        new_density = np.zeros_like(density)
        new_density[0] = grid.initial_density
        for k in range(n_t - 1):
            rho = new_density[k]
            diff_flux = grid.sigma**2 * (rho[1:] - rho[:-1]) / dx
            upwind = rho[:-1] if drift >= 0 else rho[1:]
            flux = diff_flux - drift * upwind
            nxt = rho.copy()
            nxt[:-1] += dt / dx * flux
            nxt[1:] -= dt / dx * flux
            nxt = np.clip(nxt, 0.0, None)
            mass = nxt.sum() * dx
            if mass <= 0:
                raise NumericError("density mass vanished")
            new_density[k + 1] = nxt / mass
        mixed = (1 - damping) * density + damping * new_density
        residual = float(np.max(np.abs(mixed - density)))
        residuals.append(residual)
        density, value = mixed, new_value
        if residual < tol:
            converged = True
            break
    return ns.MfgSolution(value=value, density=density, residuals=residuals,
                          converged=converged, drift=drift)


def coupled_grid(seed):
    """Seed 0 is the heat grid with every field zero; other seeds draw the
    drift weight (either sign), terminal value, running cost and control
    bound, each left at zero in some grids."""
    rng = np.random.default_rng(seed)
    n_x, n_t = int(rng.integers(11, 41)), int(rng.integers(2, 30))
    xs = np.linspace(-3.0, 3.0, n_x)
    kw = {}
    if seed:
        fields = {"mu_weight": lambda: rng.normal(rng.normal(), 1.0, n_t),
                  "terminal_value": lambda: rng.normal() * xs**2 + rng.normal(size=n_x),
                  "running_cost": lambda: rng.normal(size=n_x),
                  "control_max": lambda: float(rng.uniform(0.0, 3.0))}
        kw = {name: draw() for name, draw in fields.items() if rng.uniform() < 0.8}
    return ns.MfgGrid(x_min=-3.0, x_max=3.0, n_x=n_x, n_t=n_t, dt=0.01,
                      sigma=float(rng.uniform(0.0, 0.3)), p_bar=float(rng.normal()),
                      initial_density=gaussian_density(xs, rng.uniform(0.3, 1.0)), **kw)


COUPLED_GRIDS = [coupled_grid(seed) for seed in range(40)]


class TestMfgSweeps:
    @pytest.mark.parametrize("damping", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("max_sweeps", [1, 2, 50])
    def test_matches_iterated_loop(self, damping, max_sweeps):
        for grid in COUPLED_GRIDS:
            got = ns.mfg_solve(grid, max_sweeps=max_sweeps, damping=damping)
            ref = iterated_mfg(grid, max_sweeps=max_sweeps, damping=damping)
            assert np.array_equal(got.value, ref.value)
            assert np.array_equal(got.density, ref.density)
            assert got.residuals == ref.residuals
            assert got.converged == ref.converged
            assert got.drift == ref.drift
            assert np.signbit(got.drift) == np.signbit(ref.drift)

    def test_grids_cover_both_drift_signs(self):
        drifts = [ns.mfg_solve(g).drift for g in COUPLED_GRIDS]
        assert min(drifts) < 0 < max(drifts)

    def test_one_backward_at_most_two_forward_sweeps(self, monkeypatch):
        calls = {"_backward_value": 0, "_forward_density": 0}
        for name in calls:
            def counted(*args, _inner=getattr(ns, name), _name=name):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(ns, name, counted)
        forward = {1: set(), 2: set(), 50: set()}
        for grid in COUPLED_GRIDS:
            for max_sweeps in forward:
                calls.update({name: 0 for name in calls})
                ns.mfg_solve(grid, max_sweeps=max_sweeps)
                assert calls["_backward_value"] == 1
                forward[max_sweeps].add(calls["_forward_density"])
        # one forward sweep per drift: the guess's, then the solved value's
        assert forward == {1: {1}, 2: {1, 2}, 50: {1, 2}}

    def test_max_sweeps_below_one_rejected(self):
        with pytest.raises(ValidationError):
            ns.mfg_solve(heat_grid(n_x=21, n_t=5), max_sweeps=0)

    def test_advective_courant_above_one_rejected(self):
        # a drift of 6.7e297 on dx = 0.3: the upwind sweep blows up, and
        # clipping plus renormalizing would hide that behind a unit mass
        xs = np.linspace(-3.0, 3.0, 21)
        grid = ns.MfgGrid(x_min=-3.0, x_max=3.0, n_x=21, n_t=3, dt=0.01, sigma=0.1,
                          initial_density=gaussian_density(xs, 1.0),
                          mu_weight=np.full(3, 1e300), terminal_value=xs)
        with np.errstate(over="ignore"), pytest.raises(ConfigurationError, match="drift"):
            ns.mfg_solve(grid)

    def test_courant_bound_checked_on_each_drift(self):
        grid = heat_grid(n_x=21, n_t=5)
        limit = grid.dx / grid.dt
        for drift in (0.99 * limit, -0.99 * limit):
            ns._forward_density(grid, drift)
        for drift in (1.01 * limit, -1.01 * limit, np.inf, np.nan):
            with pytest.raises(ConfigurationError):
                ns._forward_density(grid, drift)


class TestGradient:
    """`_gradient` is `np.gradient(f, dx)` bit for bit, edges included."""

    cells = st.one_of(st.floats(allow_nan=False), st.sampled_from([np.inf, -np.inf, -0.0]))
    spacings = st.one_of(st.floats(min_value=1e-300, max_value=1e300),
                         st.sampled_from([10.0 ** e for e in range(-300, 301, 20)]))

    @staticmethod
    def assert_bit_equal(got, expect):
        assert np.array_equal(got, expect, equal_nan=True)
        assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(cells, min_size=3, max_size=40), spacings)
    def test_1d_matches_np_gradient(self, f, dx):
        f = np.array(f)
        with np.errstate(all="ignore"):
            self.assert_bit_equal(ns._gradient(f, dx), np.gradient(f, dx))

    @settings(max_examples=150, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(3, 25)),
                      elements=cells), spacings)
    def test_axis_1_matches_np_gradient(self, f, dx):
        # `_drift` differentiates the value field along x, axis 1 of (n_t - 1, n_x)
        with np.errstate(all="ignore"):
            self.assert_bit_equal(ns._gradient(f, dx), np.gradient(f, dx, axis=1))

    @pytest.mark.parametrize("path", [None, "mfg_gaussian.json"])
    def test_mfg_residuals_unchanged(self, path):
        # the default payload and the shipped config, against the from-scratch
        # loop that differentiates with np.gradient
        cfg = {}
        if path is not None:
            with open(os.path.join(os.path.dirname(__file__), os.pardir, "configs", path)) as fh:
                cfg = json.load(fh)
        c = cli._parse(cli.SUBCOMMANDS["mfg"][1], cfg)
        kw = dict(tol=c["tol"], max_sweeps=c["max_sweeps"], damping=c["damping"])
        got, ref = ns.mfg_solve(c["grid"], **kw), iterated_mfg(c["grid"], **kw)
        assert got.residuals == ref.residuals and len(got.residuals) > 1
        assert np.array_equal(got.value, ref.value)
        assert np.array_equal(got.density, ref.density)


class TestMeanValueReduce:
    def test_constant_p_exact(self):
        p = np.full(11, 3.0)
        mu = np.linspace(0, 1, 11) ** 2
        t0, mu_prime, residual = ns.mean_value_reduce(p, mu, dk=0.1)
        assert mu_prime == pytest.approx(np.trapezoid(mu, dx=0.1), abs=1e-15)
        assert residual < 1e-12

    def test_linear_p_midpoint(self):
        p = np.linspace(0, 1, 101)
        mu = np.ones(101)
        t0, mu_prime, residual = ns.mean_value_reduce(p, mu, dk=0.01)
        assert abs(t0 - 50) <= 1
        assert residual < 1e-10

    def test_zero_integral_raises(self):
        with pytest.raises(DegenerateIntegralError):
            ns.mean_value_reduce(np.ones(5), np.zeros(5))

    @given(st.integers(0, 10**6))
    @settings(max_examples=30)
    def test_residual_is_minimal(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0, 1, 20)
        mu = rng.uniform(0.1, 1, 20)
        t0, mu_prime, residual = ns.mean_value_reduce(p, mu, dk=0.3)
        target = np.trapezoid(p * mu, dx=0.3)
        assert residual == pytest.approx(
            float(np.min(np.abs(p * mu_prime - target))), abs=1e-12)

