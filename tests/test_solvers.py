"""Trust-region solver and greedy twin-search tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorwyner import mirror, solvers
from mirrorwyner.errors import ValidationError
from mirrorwyner.mirror import UncertaintyModel
from mirrorwyner.prob import JointPmf2, PrivacyMapping
from mirrorwyner.solvers import (ObjectiveFn, TrustRegionConfig,
                                 trust_region_solve)

from conftest import wide_instance

RADIUS_TOL = 1e-9


def rosenbrock(x):
    return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2


def rosenbrock_grad(x):
    return np.array([
        -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
        200 * (x[1] - x[0] ** 2),
    ])


def check_radius_law(trace, cfg):
    """The exact accept/update rule, verified pairwise along the trace:
    shrink to theta1*||step|| (<= theta1*radius) on rejection, keep the radius
    on a modest accept, and either keep or theta2-expand on a strong accept."""
    for prev, cur in zip(trace.iterates, trace.iterates[1:]):
        if prev.ratio <= cfg.eta1:
            assert not prev.accepted
            assert cur.radius <= cfg.theta1 * prev.radius + RADIUS_TOL
        elif prev.ratio <= cfg.eta2:
            assert prev.accepted
            assert cur.radius == pytest.approx(prev.radius, abs=RADIUS_TOL)
        else:
            assert prev.accepted
            ok_keep = abs(cur.radius - prev.radius) <= RADIUS_TOL
            ok_grow = abs(cur.radius - cfg.theta2 * prev.radius) <= RADIUS_TOL
            assert ok_keep or ok_grow


class TestTrustRegion:
    def test_quadratic_two_iterations(self):
        f = ObjectiveFn(lambda x: float(x @ x), dim=3,
                        grad=lambda x: 2 * x)
        # initial radius wide enough to admit the full Newton step
        x, trace = trust_region_solve(f, np.array([3.0, -2.0, 1.0]),
                                      TrustRegionConfig(eps_th=1e-8, delta0=8.0))
        assert trace.converged
        assert trace.iterations <= 2
        np.testing.assert_allclose(x, 0.0, atol=1e-7)

    def test_rosenbrock_converges(self):
        cfg = TrustRegionConfig(max_iter=500, eps_th=1e-6)
        f = ObjectiveFn(rosenbrock, dim=2, grad=rosenbrock_grad)
        x, trace = trust_region_solve(f, np.array([-1.2, 1.0]), cfg)
        assert trace.converged
        assert np.linalg.norm(rosenbrock_grad(x)) < 1e-6
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-4)

    def test_rosenbrock_numeric_derivatives(self):
        cfg = TrustRegionConfig(max_iter=500, eps_th=1e-6)
        f = ObjectiveFn(rosenbrock, dim=2)
        x, trace = trust_region_solve(f, np.array([-1.2, 1.0]), cfg)
        assert np.linalg.norm(rosenbrock_grad(x)) < 1e-5

    def test_radius_law_on_rosenbrock(self):
        cfg = TrustRegionConfig(max_iter=500, eps_th=1e-6)
        f = ObjectiveFn(rosenbrock, dim=2, grad=rosenbrock_grad)
        _, trace = trust_region_solve(f, np.array([-1.2, 1.0]), cfg)
        assert trace.iterations > 5
        check_radius_law(trace, cfg)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_radius_law_on_random_quartics(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=3)

        def fn(x):
            return float(np.sum((a @ x) ** 2) + np.sum(x ** 4) + b @ x)

        cfg = TrustRegionConfig(max_iter=200)
        _, trace = trust_region_solve(ObjectiveFn(fn, dim=3),
                                      rng.normal(size=3), cfg)
        check_radius_law(trace, cfg)

    def test_gradient_hessian_fd_accuracy(self):
        f = ObjectiveFn(rosenbrock, dim=2)
        x = np.array([0.4, -0.3])
        np.testing.assert_allclose(f.gradient(x), rosenbrock_grad(x),
                                   atol=1e-6, rtol=1e-6)
        hess_exact = np.array([
            [2 - 400 * x[1] + 1200 * x[0] ** 2, -400 * x[0]],
            [-400 * x[0], 200.0],
        ])
        np.testing.assert_allclose(f.hessian(x), hess_exact, atol=1e-3, rtol=1e-5)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TrustRegionConfig(eta1=0.9, eta2=0.5)
        with pytest.raises(ValidationError):
            TrustRegionConfig(theta1=1.5)


def full_kernel_greedy(inst, relaxed, budget, seed, omega=1.0, eps=solvers.DEFAULT_EPS,
                       lam=solvers.DEFAULT_LAMBDA, proposals=6, patience=3):
    """The greedy search with every trial rescoring all Q x 7 conditions and
    each candidate's merit taken on its own: the reference for the
    slot-aware scoring of `solvers.greedy_solve`. Returns the pass records,
    whether it converged and the final rows."""
    rng = np.random.default_rng(seed)
    asg = solvers.random_assignment(inst, rng)
    orig, virt = rows = ([m.rows for m in asg.original], [m.rows for m in asg.virtual])
    vals = mirror._kernel(inst, orig, virt)
    gamma2_eff = inst.gamma2
    if relaxed:
        gamma2_eff = min(inst.gamma2, mirror.bottleneck_pair_search(inst, orig[0]))
    constraints = mirror.ConstraintSet.build(
        inst, gamma2=gamma2_eff, eps=eps if relaxed else None,
        null_mode="floored" if relaxed else "strict")

    def merit(vals):
        return float(vals[:, 2].mean() + lam * constraints.violations(vals).sum())

    current, stall, passes, converged = merit(vals), 0, [], False
    for _ in range(budget):
        improved = False
        for q in range(inst.q_count):
            refresh = mirror.boltzmann_original(inst, q, orig[q], omega)
            originals = [c for c in (refresh, solvers._nudge_rows(orig[q], 0.1, rng))
                         if c is not None]
            virtuals = [solvers._random_rows(virt[q].shape[0], inst.virtual_alphabet, rng)
                        if j % 2 == 0 else solvers._nudge_rows(virt[q], 0.15, rng)
                        for j in range(proposals)]
            for kind, cands in enumerate((originals, virtuals)):
                for cand in cands:
                    trial = [list(r) for r in rows]
                    trial[kind][q] = cand
                    trial_vals = mirror._kernel(inst, *trial)
                    trial_merit = merit(trial_vals)
                    if trial_merit < current - 1e-9:
                        rows[kind][q] = cand
                        vals, current = trial_vals, trial_merit
                        improved = True
        passes.append((float(vals[:, 2].mean()), current, improved))
        if constraints.holds(vals).all() and not improved:
            converged = True
            break
        stall = 0 if improved else stall + 1
        if stall >= patience:
            break
    return passes, converged, rows


class TestGreedy:
    def vacuous_instance(self):
        return mirror.reference_binary_instance(
            gamma0=10.0, gamma1=10.0, gamma2=0.0, gamma3=10.0)

    def test_budget_one_vacuous_converges_immediately(self):
        inst = self.vacuous_instance()
        u = UncertaintyModel(0.0)
        asg, trace = solvers.greedy_solve(inst, u, relaxed=True, budget=1, seed=0)
        assert trace.iterations == 1
        assert trace.feasible

    def test_seed_determinism(self):
        inst = mirror.reference_binary_instance()
        u = UncertaintyModel(0.5, seed=0)
        a1, t1 = solvers.greedy_solve(inst, u, relaxed=True, budget=20, seed=3)
        a2, t2 = solvers.greedy_solve(inst, u, relaxed=True, budget=20, seed=3)
        assert t1.iterations == t2.iterations
        np.testing.assert_array_equal(a1.original[0].rows, a2.original[0].rows)
        np.testing.assert_array_equal(a1.virtual[1].rows, a2.virtual[1].rows)

    def test_merit_never_increases(self):
        inst = mirror.reference_binary_instance()
        u = UncertaintyModel(0.5, seed=0)
        _, trace = solvers.greedy_solve(inst, u, relaxed=True, budget=30, seed=1)
        merits = [it.merit for it in trace.iterates]
        assert all(b <= a + 1e-12 for a, b in zip(merits, merits[1:]))

    def test_underflowing_boltzmann_candidate_is_skipped(self):
        inst = mirror.reference_binary_instance()
        u = UncertaintyModel(0.5, seed=0)
        omega = 1e7
        # the solve's start (same seed) already has no Boltzmann candidate
        asg0 = solvers.random_assignment(inst, np.random.default_rng(2))
        j3 = mirror.prob.markov_compose(inst.joints[0], asg0.original[0])
        sy = j3.margin_ac().table
        post = (sy / sy.sum(axis=0)).T
        assert mirror.boltzmann_posterior(inst.p_x[0], inst._s_given_x[0], post, omega) is None
        asg, trace = solvers.greedy_solve(inst, u, relaxed=True, budget=10, seed=2,
                                          omega=omega)
        assert len(asg.original) == inst.q_count
        assert 1 <= trace.iterations <= 10
        assert all(isinstance(it, solvers.GreedyPass) for it in trace.iterates)
        assert isinstance(trace.feasible, bool)

    def test_relaxed_typically_stops_sooner(self):
        inst = mirror.reference_binary_instance()
        u = UncertaintyModel(0.5, seed=0)
        relaxed_iters, strict_iters = [], []
        for seed in range(8):
            _, tr = solvers.greedy_solve(inst, u, relaxed=True, budget=40, seed=seed)
            relaxed_iters.append(tr.iterations)
            _, ts = solvers.greedy_solve(inst, u, relaxed=False, budget=40, seed=seed)
            strict_iters.append(ts.iterations)
        assert np.mean(relaxed_iters) < np.mean(strict_iters)

    def test_budget_validation(self):
        inst = mirror.reference_binary_instance()
        with pytest.raises(ValidationError):
            solvers.greedy_solve(inst, UncertaintyModel(0.0), relaxed=True,
                                 budget=0, seed=0)

    def test_negative_omega_rejected(self):
        inst = mirror.reference_binary_instance()
        for omega in (-1.0, float("nan")):
            with pytest.raises(ValidationError):
                solvers.greedy_solve(inst, UncertaintyModel(0.0), relaxed=True,
                                     budget=3, seed=0, omega=omega)

    def test_zero_weight_boltzmann_row_gives_no_candidate(self):
        # x = 1 never occurs with s = 0, so every posterior P(S | y) that x = 0
        # reaches is infinitely far from P(S | x = 1): the refreshed row of
        # x = 1 has no weight, and the refresh must say so without a 0/0
        j = JointPmf2(np.array([[0.5, 0.0], [0.25, 0.25]]))
        inst = mirror.MirrorGameInstance(joints=(j, j), gamma0=0.3, gamma1=1.0,
                                         gamma2=0.1, gamma3=1.5)
        start = solvers.random_assignment(inst, np.random.default_rng(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for omega in (1.0, 50.0, 1e3):
                asg, trace = solvers.greedy_solve(inst, UncertaintyModel(0.5), relaxed=True,
                                                  budget=10, seed=0, omega=omega)
                assert 1 <= trace.iterations <= 10
                for m in start.original + asg.original:
                    assert mirror.boltzmann_original(inst, 0, m.rows, omega) is None

    @pytest.mark.parametrize("relaxed", [True, False])
    @pytest.mark.parametrize("name,seeds,budget", [("reference", range(20), 60),
                                                   ("wide", range(2), 2)],
                             ids=["reference", "wide"])
    def test_same_search_path_as_full_kernel(self, name, seeds, budget, relaxed):
        inst = (mirror.reference_binary_instance() if name == "reference"
                else wide_instance(3))
        for seed in seeds:
            asg, trace = solvers.greedy_solve(inst, UncertaintyModel(0.5), relaxed=relaxed,
                                              budget=budget, seed=seed)
            passes, converged, rows = full_kernel_greedy(inst, relaxed, budget, seed)
            assert [(it.objective, it.merit, it.accepted) for it in trace.iterates] == passes
            assert trace.converged == converged
            for got, want in zip((asg.original, asg.virtual), rows):
                assert all(np.array_equal(m.rows, r) for m, r in zip(got, want))

    @pytest.mark.parametrize("relaxed", [True, False])
    def test_wide_search_path_within_rounding(self, relaxed):
        # At Q >= 3 a stacked exposure call folds the candidate's tail last,
        # an unstacked one the last Bob's, so values may differ in the last
        # bits; the search makes the same decisions
        inst = wide_instance(3)
        for seed in range(2, 6):
            asg, trace = solvers.greedy_solve(inst, UncertaintyModel(0.5), relaxed=relaxed,
                                              budget=2, seed=seed)
            passes, converged, rows = full_kernel_greedy(inst, relaxed, 2, seed)
            assert [it.accepted for it in trace.iterates] == [p[2] for p in passes]
            np.testing.assert_allclose([(it.objective, it.merit) for it in trace.iterates],
                                       [p[:2] for p in passes], rtol=0, atol=1e-12)
            assert trace.converged == converged
            for got, want in zip((asg.original, asg.virtual), rows):
                assert all(np.array_equal(m.rows, r) for m, r in zip(got, want))

    @pytest.mark.parametrize("q_count,budget", [(2, 1), (2, 20), (3, 8)])
    def test_mappings_validated_only_at_the_edges(self, monkeypatch, q_count, budget):
        # 2Q in random_assignment and 2Q at return, whatever the budget
        inst = mirror.reference_binary_instance(q_count=q_count)
        calls = []
        post_init = PrivacyMapping.__post_init__
        monkeypatch.setattr(PrivacyMapping, "__post_init__",
                            lambda self: calls.append(1) or post_init(self))
        _, trace = solvers.greedy_solve(inst, UncertaintyModel(0.5), relaxed=False,
                                        budget=budget, seed=1)
        assert trace.iterations >= min(budget, 3)
        assert len(calls) == 4 * q_count
