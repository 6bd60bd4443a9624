"""Non-stationarity suite: oscillators against the matrix-exponential oracle,
the coupled value/density solver against the heat kernel, the bilevel game
against brute force, and the clustering relaxation against exhaustive
boundary enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

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


class TestInputs:
    def test_random_walk_shape_and_start(self):
        inp = ns.NonstationaryInput(mu0=2.0, scale=0.1, horizon=50)
        path = ns.random_walk_mean(inp, seed=0)
        assert path.shape == (51,)
        assert path[0] == 2.0

    def test_zero_scale_constant(self):
        inp = ns.NonstationaryInput(mu0=1.5, scale=0.0, horizon=10)
        np.testing.assert_allclose(ns.random_walk_mean(inp), 1.5, atol=0)

    def test_uniform_law_and_determinism(self):
        inp = ns.NonstationaryInput(mu0=0.0, scale=1.0, horizon=100, law="uniform")
        a = ns.random_walk_mean(inp, seed=5)
        b = ns.random_walk_mean(inp, seed=5)
        np.testing.assert_array_equal(a, b)
        # uniform steps are bounded by scale * sqrt(3)
        assert np.max(np.abs(np.diff(a))) <= np.sqrt(3) + 1e-12

    def test_decompose_control_exact(self):
        basis = ns.ControlBasis(np.eye(5)[:3])
        u = np.array([1.0, -2.0, 3.0, 4.0, 0.0])
        coeffs, residual = ns.decompose_control(u, basis)
        np.testing.assert_allclose(coeffs, [1.0, -2.0, 3.0], atol=1e-12)
        assert residual == pytest.approx(4.0, abs=1e-12)

    def test_basis_must_be_orthonormal(self):
        with pytest.raises(ValidationError):
            ns.ControlBasis(np.ones((3, 4)))


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

    def test_sync_order_bounds(self):
        psi = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
        assert ns.sync_order(psi) == pytest.approx(1.0, abs=1e-12)
        ortho = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        assert ns.sync_order(ortho) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ns.LoheSystem(states=np.array([[2.0, 0.0]], dtype=complex),
                          hamiltonians=np.zeros((1, 2, 2)))
        good = np.array([[1.0, 0.0]], dtype=complex)
        bad_h = np.array([[[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(ValidationError):
            ns.LoheSystem(states=good, hamiltonians=bad_h)


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

    def test_json_round_trip(self):
        grid = heat_grid(n_x=21, n_t=5)
        back = ns.MfgGrid.from_jsonable(grid.to_jsonable())
        np.testing.assert_allclose(back.initial_density, grid.initial_density)
        assert back.n_x == grid.n_x and back.dt == grid.dt


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
                raise NumericError("density mass vanished", partial=residuals)
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


class TestKlDrift:
    def test_monotone_for_spreading_gaussian(self):
        grid = heat_grid()
        sol = ns.mfg_solve(grid, damping=1.0)
        checkpoints = [0, 20, 50, 99]
        kls, best = ns.kl_drift_profile(sol.density, checkpoints)
        assert best == 0
        assert kls[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(kls) >= -1e-10)

    def test_disjoint_support_infinite(self):
        traj = np.array([[1.0, 0.0], [0.0, 1.0]])
        kls, best = ns.kl_drift_profile(traj, [0, 1])
        assert kls[0] == 0.0 and np.isinf(kls[1])
        assert best == 0

    def test_bad_checkpoint(self):
        with pytest.raises(ValidationError):
            ns.kl_drift_profile(np.ones((3, 4)), [5])

    def test_no_checkpoints(self):
        with pytest.raises(ValidationError):
            ns.kl_drift_profile(np.ones((3, 4)), [])


class TestClustering:
    def exhaustive_oracle(self, x, V, w):
        """Best objective over every assignment of points to levels, with the
        levels refit exactly for each assignment (small instances only)."""
        n = x.size
        best = np.inf
        best_assign = None
        for assign in itertools.product(range(V), repeat=n):
            a = np.asarray(assign)
            A = np.zeros((V, V))
            b = np.zeros(V)
            for k in range(n):
                A[a[k], a[k]] += w
                b[a[k]] += w * x[k]
            for k in range(n - 1):
                i, j = a[k], a[k + 1]
                if i != j:
                    A[i, i] += 1.0
                    A[j, j] += 1.0
                    A[i, j] -= 1.0
                    A[j, i] -= 1.0
            used = np.diag(A) > 0
            levels = np.zeros(V)
            if np.any(used):
                levels[used] = np.linalg.solve(
                    A[np.ix_(used, used)] + 1e-12 * np.eye(int(used.sum())),
                    b[used])
            smoothed = levels[a]
            obj = float(np.sum(np.diff(smoothed) ** 2)
                        + w * np.sum((smoothed - x) ** 2))
            if obj < best:
                best, best_assign = obj, a
        return best, best_assign

    def test_step_path_matches_exhaustive(self):
        x = np.array([0.0, 0.0, 0.0, 5.0, 5.0, 5.0])
        res = ns.fuzzy_cluster_relax(x, 2, mode="deterministic")
        best, best_assign = self.exhaustive_oracle(x, 2, 1.0)
        assert res.objective == pytest.approx(best, abs=1e-8)
        boundary = int(np.argmax(np.diff(res.gamma.argmax(axis=1)) != 0)) + 1
        assert boundary == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_random_short_paths_match_exhaustive(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=6)
        res = ns.fuzzy_cluster_relax(x, 2, mode="deterministic")
        best, _ = self.exhaustive_oracle(x, 2, 1.0)
        assert res.objective == pytest.approx(best, abs=1e-8)

    def test_zero_data_weight_constant(self):
        x = np.array([1.0, 4.0, -2.0, 3.0])
        res = ns.fuzzy_cluster_relax(x, 3, data_weight=0.0)
        assert np.ptp(res.smoothed) == 0.0
        assert res.objective == 0.0

    def test_single_cluster(self):
        x = np.array([1.0, 2.0, 3.0])
        res = ns.fuzzy_cluster_relax(x, 1)
        np.testing.assert_allclose(res.smoothed, np.mean(x), atol=1e-12)

    def test_membership_rows_on_simplex(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=12)
        for mode in ("deterministic", "fuzzy"):
            res = ns.fuzzy_cluster_relax(x, 3, mode=mode)
            np.testing.assert_allclose(res.gamma.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(res.gamma >= 0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ns.fuzzy_cluster_relax(np.ones((2, 2)), 2)
        with pytest.raises(ValidationError):
            ns.fuzzy_cluster_relax(np.ones(3), 0)
        with pytest.raises(ValidationError):
            ns.fuzzy_cluster_relax(np.ones(3), 2, mode="hard")
