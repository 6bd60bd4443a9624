"""Trust-region solver and greedy twin-search tests."""

import dataclasses
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

from conftest import solve_digest, wide_instance

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

        def grad(x):
            return 2 * a.T @ (a @ x) + 4 * x ** 3 + b

        cfg = TrustRegionConfig(max_iter=200)
        _, trace = trust_region_solve(ObjectiveFn(fn, dim=3, grad=grad),
                                      rng.normal(size=3), cfg)
        check_radius_law(trace, cfg)

    def test_gradient_hessian_fd_accuracy(self):
        f = ObjectiveFn(rosenbrock, dim=2, grad=rosenbrock_grad)
        x = np.array([0.4, -0.3])
        hess_exact = np.array([
            [2 - 400 * x[1] + 1200 * x[0] ** 2, -400 * x[0]],
            [-400 * x[0], 200.0],
        ])
        np.testing.assert_allclose(f.hessian(x), hess_exact, atol=1e-3, rtol=1e-5)

    def test_hessian_differences_the_gradient_only(self):
        calls = {"fn": 0, "grad": 0}

        def fn(x):
            calls["fn"] += 1
            return float(np.sum(x ** 4))

        def grad(x):
            calls["grad"] += 1
            return 4 * x ** 3

        for dim in (2, 5):
            calls.update(fn=0, grad=0)
            f = ObjectiveFn(fn, dim=dim, grad=grad)
            assert f.hessian(np.linspace(-1, 1, dim)).shape == (dim, dim)
            assert calls == {"fn": 0, "grad": 2 * dim}

    @pytest.mark.parametrize("x", [(0.4, -0.3), (-1.2, 1.0), (1.0, 1.0)])
    def test_rosenbrock_hessian_is_symmetric_and_near_exact(self, x):
        x = np.array(x)
        hess = ObjectiveFn(rosenbrock, dim=2, grad=rosenbrock_grad).hessian(x)
        hess_exact = np.array([
            [2 - 400 * x[1] + 1200 * x[0] ** 2, -400 * x[0]],
            [-400 * x[0], 200.0],
        ])
        assert np.array_equal(hess, hess.T)
        np.testing.assert_allclose(hess, hess_exact, rtol=0, atol=1e-6)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TrustRegionConfig(eta1=0.9, eta2=0.5)
        with pytest.raises(ValidationError):
            TrustRegionConfig(theta1=1.5)


@pytest.mark.parametrize("n_out", [2, 3, 5, 8, 9, 16])
def test_random_rows_are_the_dirichlet_draws(n_out):
    # the row sum must be sequential: numpy's pairwise sum departs from the
    # dirichlet rows at 8, 9 and 16 columns
    for seed in range(10):
        for n_in in (1, 3, 5):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = solvers._random_rows(n_in, n_out, ours)
            want = theirs.dirichlet(np.ones(n_out), size=n_in)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert ours.bit_generator.state == theirs.bit_generator.state


def full_kernel_greedy(inst, relaxed, budget, seed, eps=solvers.DEFAULT_EPS):
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
    constraints = mirror.assemble_p1(inst, gamma2_eff)
    if relaxed:
        constraints = mirror.epsilon_floor(constraints, eps)

    def merit(vals):
        return float(vals[:, 2].mean() + solvers.LAMBDA * constraints.violations(vals).sum())

    current, stall, passes, converged = merit(vals), 0, [], False
    for _ in range(budget):
        improved = False
        for q in range(inst.q_count):
            refresh = mirror.boltzmann_original(inst, q, orig[q], solvers.OMEGA)
            originals = [c for c in (refresh, solvers._nudge_rows(orig[q], 0.1, rng))
                         if c is not None]
            virtuals = [solvers._random_rows(virt[q].shape[0], inst.virtual_alphabet, rng)
                        if j % 2 == 0 else solvers._nudge_rows(virt[q], 0.15, rng)
                        for j in range(solvers.PROPOSALS)]
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
        if stall >= solvers.PATIENCE:
            break
    return passes, converged, rows


# `solve_digest` prefixes of greedy solves, recorded before the walk-ordered
# exposure bound: reference seeds 0-9 at budget 60, and on the wide
# instance (generator seed 3) solve seeds 0-9 at budget 2, whose digests
# leave out the merit bits
SEARCH_PATH_PINS = {
    ("reference", True): ["1314e41d756d5985", "4621082350ba1b7e", "9d25e96634a35eda",
                          "325db60c27b64d35", "99cb7abe64c7d682", "8b32a967e7ba1621",
                          "47fea3977eaf6408", "85d5537a4ce7cfde", "47724b6fb321423a",
                          "8273892b9de9913f"],
    ("reference", False): ["28d3fb5e750c187f", "afce53e2639a8b93", "780fed24bef63f9e",
                           "4aa03bfdc611e99a", "67edaa3b56fcf3b1", "5895d56a3fcb0c5c",
                           "c850e0c5d4a272ea", "11bba5e172901def", "d8ae3c5218f67a19",
                           "ff26d62111f00536"],
    ("wide", True): ["19e5c87be5c90c3f", "bd85d2bd809eb51b", "438cdd3f146f2339",
                     "e72d9636a67e2752", "13c0bd73d9065251", "29708469b86aa11e",
                     "acab1034efce1358", "9920268d7b647ca0", "361e7ce16fd807c3",
                     "a6bc3bb18474ba81"],
    ("wide", False): ["676b93e8778f4745", "ed832754914ab221", "a82543e850558094",
                      "08374234c5ae5243", "58cc847589267e77", "dc3486b4f2702fcb",
                      "19355c7f3252d755", "1ff72e0ec8d7957a", "b60f03640d109ef5",
                      "2e964369e22235fb"],
}


@pytest.mark.parametrize("name,relaxed", list(SEARCH_PATH_PINS),
                         ids=[f"{n}-{'relaxed' if r else 'strict'}" for n, r in SEARCH_PATH_PINS])
def test_search_path_matches_pins(name, relaxed):
    inst, budget = ((mirror.reference_binary_instance(), 60) if name == "reference"
                    else (wide_instance(3), 2))
    got = [solve_digest(*solvers.greedy_solve(inst, UncertaintyModel(0.5), relaxed, budget,
                                              seed), values=name == "reference")[:16]
           for seed in range(10)]
    assert got == SEARCH_PATH_PINS[name, relaxed]


class TestGreedy:
    def vacuous_instance(self):
        return dataclasses.replace(mirror.reference_binary_instance(),
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

    def test_underflowing_boltzmann_candidate_is_skipped(self, monkeypatch):
        inst = mirror.reference_binary_instance()
        u = UncertaintyModel(0.5, seed=0)
        omega = 1e7
        monkeypatch.setattr(solvers, "OMEGA", omega)
        # the solve's start (same seed) already has no Boltzmann candidate
        asg0 = solvers.random_assignment(inst, np.random.default_rng(2))
        j3 = mirror.prob.markov_compose(inst.joints[0], asg0.original[0])
        sy = j3.margin_ac().table
        post = (sy / sy.sum(axis=0)).T
        assert mirror.boltzmann_posterior(inst.p_x[0], inst._s_given_x[0], post, omega) is None
        asg, trace = solvers.greedy_solve(inst, u, relaxed=True, budget=10, seed=2)
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
            asg, trace = solvers.greedy_solve(inst, UncertaintyModel(0.5), relaxed=True,
                                              budget=10, seed=0)
            assert 1 <= trace.iterations <= 10
            for omega in (solvers.OMEGA, 50.0, 1e3):
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
    @pytest.mark.parametrize("name", ["reference", "q3", "no_refresh"])
    def test_refresh_once_per_original_rows(self, monkeypatch, name, relaxed):
        # The refresh draws nothing, so a solve computes it once per Bob and
        # then once more after each accepted original step. The kernel sees
        # each Bob's current original rows unstacked, so the changes it sees
        # are a lower bound on the accepted original steps.
        if name == "no_refresh":   # every refresh is None
            j = JointPmf2(np.array([[0.5, 0.0], [0.25, 0.25]]))
            inst = mirror.MirrorGameInstance(joints=(j, j), gamma0=0.3, gamma1=1.0,
                                             gamma2=0.1, gamma3=1.5)
        else:
            inst = mirror.reference_binary_instance(q_count=3 if name == "q3" else 2)
        calls, refreshes, current, changes = [], [], {}, []
        refresh, kernel = mirror.boltzmann_original, mirror._kernel

        def counted(inst, q, o, omega):
            calls.append(q)
            refreshes.append(refresh(inst, q, o, omega))
            return refreshes[-1]

        def spy(inst, orig, virt, **kw):
            for p, o in enumerate(orig):
                if o.ndim == 2 and current.setdefault(p, o) is not o:
                    current[p] = o
                    changes.append(p)
            return kernel(inst, orig, virt, **kw)

        monkeypatch.setattr(mirror, "boltzmann_original", counted)
        monkeypatch.setattr(mirror, "_kernel", spy)
        bob_steps = 0
        for seed in range(4):
            calls.clear()
            changes.clear()
            current.clear()
            _, trace = solvers.greedy_solve(inst, UncertaintyModel(0.5), relaxed=relaxed,
                                            budget=30, seed=seed)
            bob_steps += inst.q_count * trace.iterations
            assert sorted(calls[:inst.q_count]) == list(range(inst.q_count))
            assert len(calls) <= inst.q_count + len(changes)
        # without the reuse there would be one refresh per Bob step
        assert len(refreshes) < bob_steps
        assert all(r is None for r in refreshes) == (name == "no_refresh")

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

    @pytest.mark.parametrize("relaxed", [True, False])
    @pytest.mark.parametrize("name", ["wide", "q3_small_blocks"])
    def test_pruned_search_path_matches_full_kernel(self, monkeypatch, name, relaxed):
        # Candidates whose exposure bound already fails the accept test get
        # no exposure tables; the search still takes the full kernel's steps.
        # The Q=3 instance runs every stack through the blocked path, over
        # enough passes to reuse held bounds after accepted steps.
        if name == "wide":
            budget, cases = 1, [(wide_instance(seed % 3), seed) for seed in range(6, 16)]
        else:
            monkeypatch.setattr(mirror, "EXPOSURE_BLOCK_CELLS", 1)
            inst = mirror.reference_binary_instance(q_count=3, virtual_alphabet=3)
            budget, cases = 4, [(inst, seed) for seed in range(4)]
        counts = {"offered": 0, "built": 0}
        kernel, exposure_stack = mirror._kernel, mirror._exposure_stack

        def kernel_spy(inst, orig, virt, **kw):
            if kw.get("slot") is not None:
                c, kind = kw["slot"]
                counts["offered"] += len((orig, virt)[kind][c]) * (inst.q_count - 1)
            return kernel(inst, orig, virt, **kw)

        def exposure_stack_spy(rows, tails, plan, h_head, work):
            # every stacked table is built by the bits of a blocked stack;
            # condition (iii): X_q's head against the other Bobs' pair
            # channels, a candidate axis on one of them
            bits = exposure_stack(rows, tails, plan, h_head, work)
            stacked = [t for t in tails if t.ndim > 2]
            if not (stacked and any(rows is r for r in inst._x_rows)
                    and stacked[0].shape[-1] == inst.x_marginal(0).alphabet_size
                    * inst.virtual_alphabet):
                return bits

            def counted(keep=None):
                counts["built"] += len(stacked[0]) if keep is None else keep.size
                return bits(keep)
            return counted

        monkeypatch.setattr(mirror, "_kernel", kernel_spy)
        monkeypatch.setattr(mirror, "_exposure_stack", exposure_stack_spy)
        for inst, seed in cases:
            asg, trace = solvers.greedy_solve(inst, UncertaintyModel(0.5), relaxed=relaxed,
                                              budget=budget, seed=seed)
            passes, converged, rows = full_kernel_greedy(inst, relaxed, budget, seed)
            assert [it.accepted for it in trace.iterates] == [p[2] for p in passes]
            np.testing.assert_allclose([(it.objective, it.merit) for it in trace.iterates],
                                       [p[:2] for p in passes], rtol=0, atol=1e-12)
            assert trace.converged == converged
            for got, want in zip((asg.original, asg.virtual), rows):
                assert all(np.array_equal(m.rows, r) for m, r in zip(got, want))
        # without the pruning every candidate would build Q - 1 tables
        assert 0 < counts["built"] < counts["offered"]

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
