"""Linear-plant tests: rank oracles built from staircase constructions with
known controllable/observable dimensions, duality, and closed-loop spectra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorwyner import plant
from mirrorwyner.errors import NumericError
from mirrorwyner.plant import LinearPlant


def companion(coeffs):
    """Companion matrix of the monic polynomial with the given coefficients."""
    n = len(coeffs)
    mat = np.zeros((n, n))
    mat[1:, :-1] = np.eye(n - 1)
    mat[:, -1] = -np.asarray(coeffs)
    return mat


def known_rank_pair(n, r, rng):
    """(A, B) whose controllability rank is exactly r by construction:
    a controllable companion block (rank r, standard result for the pair
    (companion, e_r)) padded with an unreachable block, then rotated by a
    random orthogonal similarity (rank-preserving)."""
    a = np.zeros((n, n))
    b = np.zeros((n, 1))
    if r > 0:
        a[:r, :r] = companion(rng.uniform(-0.5, 0.5, size=r))
        b[r - 1, 0] = 1.0
    if r < n:
        a[r:, r:] = rng.normal(size=(n - r, n - r))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ a @ q.T, q @ b


class TestRankOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_controllability_known_rank(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        r = int(rng.integers(0, n + 1))
        a, b = known_rank_pair(n, r, rng)
        rank, full = plant.controllability_rank(a, b)
        assert rank == r
        assert full == (r == n)

    @pytest.mark.parametrize("seed", range(20))
    def test_observability_known_rank(self, seed):
        rng = np.random.default_rng(seed + 1000)
        n = int(rng.integers(2, 7))
        r = int(rng.integers(0, n + 1))
        a, b = known_rank_pair(n, r, rng)
        rank, full = plant.observability_rank(a.T, b.T)
        assert rank == r
        assert full == (r == n)

    @given(st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_duality_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        a1 = rng.normal(size=(n, n))
        a3 = rng.normal(size=(2, n))
        assert plant.observability_rank(a1, a3) == \
            plant.controllability_rank(a1.T, a3.T)

    def test_generic_random_systems_are_full_rank(self):
        # random (A, B) is controllable with probability 1
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            rank, full = plant.controllability_rank(
                rng.normal(size=(n, n)), rng.normal(size=(n, 1)))
            assert full and rank == n


class TestSpectralRadius:
    def test_triangular_oracle(self):
        a1 = np.triu(np.array([[0.5, 1.0, 2.0],
                               [0.0, -0.8, 1.0],
                               [0.0, 0.0, 0.3]]))
        p = LinearPlant(a1, np.zeros((3, 1)), np.zeros((1, 3)), np.zeros((1, 1)))
        assert plant.closed_loop_spectral_radius(p) == pytest.approx(0.8, abs=1e-12)

    def test_power_iteration_oracle(self):
        rng = np.random.default_rng(3)
        n = 5
        p = LinearPlant(rng.normal(size=(n, n)), rng.normal(size=(n, 2)),
                        rng.normal(size=(2, n)), rng.normal(size=(2, 2)))
        closed = p.a1 + p.a2 @ p.a4 @ p.a3
        # power iteration on the closed-loop map as an independent check
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        for _ in range(3000):
            v = closed @ v
            v /= np.linalg.norm(v)
        lam = np.linalg.norm(closed @ v)
        assert plant.closed_loop_spectral_radius(p) == pytest.approx(lam, rel=1e-6)

    def test_feedback_changes_spectrum(self):
        a1 = np.array([[1.2]])
        p = LinearPlant(a1, np.array([[1.0]]), np.array([[1.0]]),
                        np.array([[-0.5]]))
        assert plant.closed_loop_spectral_radius(p) == pytest.approx(0.7, abs=1e-12)


class TestOverflow:
    """Finite matrices whose products overflow: the tests fail typed, not
    with numpy's LinAlgError."""

    def test_spectral_radius(self):
        p = LinearPlant([[0.5]], [[1e308]], [[1e308]], [[1.0]])
        with pytest.warns(RuntimeWarning), pytest.raises(NumericError, match="closed-loop"):
            plant.closed_loop_spectral_radius(p)

    def test_rank(self):
        with pytest.warns(RuntimeWarning), pytest.raises(NumericError, match="overflowed"):
            plant.controllability_rank([[1e308, 0.0], [0.0, 1.0]], [[1e308], [1.0]])

