"""Exactness and property tests for the finite-alphabet probability engine."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mirrorwyner import prob
from mirrorwyner.errors import ValidationError
from mirrorwyner.prob import JointPmf2, Pmf, PrivacyMapping

from conftest import cmi_loops, joint2, joint3, kl_or_inf, pmfs


def h2(p):
    """Binary entropy, closed form."""
    if p in (0.0, 1.0):
        return 0.0
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


def mi_brute(table):
    """Mutual information by plain double summation (independent oracle)."""
    pa = table.sum(axis=1)
    pb = table.sum(axis=0)
    total = 0.0
    for a in range(table.shape[0]):
        for b in range(table.shape[1]):
            if table[a, b] > 0:
                total += table[a, b] * np.log2(table[a, b] / (pa[a] * pb[b]))
    return total


class TestEntropy:
    def test_uniform(self):
        for n in (2, 3, 8):
            assert prob.entropy(Pmf(np.full(n, 1.0 / n))) == pytest.approx(np.log2(n), abs=1e-12)

    def test_deterministic_is_zero(self):
        assert prob.entropy(Pmf(np.array([1.0, 0.0, 0.0]))) == 0.0

    def test_bernoulli_closed_form(self):
        assert prob.entropy(Pmf.bernoulli(0.11)) == pytest.approx(h2(0.11), abs=1e-12)

    @given(pmfs())
    def test_bounds(self, p):
        h = prob.entropy(p)
        assert -1e-12 <= h <= np.log2(p.alphabet_size) + 1e-12


@st.composite
def posterior_rows(draw, n, max_rows=4):
    """1-4 pmf rows over n symbols, each with zero cells allowed."""
    cell = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    rows = [draw(st.lists(cell, min_size=n, max_size=n).filter(any))
            for _ in range(draw(st.integers(1, max_rows)))]
    return np.array([np.asarray(r) / sum(r) for r in rows])


def kl(p: Pmf, q: Pmf) -> float:
    """D(p || q) in bits, as the 1 x 1 matrix of `prob._kl_matrix`."""
    return float(prob._kl_matrix(p.probs[None], q.probs[None])[0, 0])


class TestKl:
    def test_self_divergence_zero(self):
        p = Pmf(np.array([0.2, 0.3, 0.5]))
        assert kl(p, p) == 0.0

    def test_support_violation(self):
        assert kl(Pmf(np.array([0.5, 0.5])), Pmf(np.array([1.0, 0.0]))) == np.inf

    def test_known_value(self):
        # D(Bern(1/2) || Bern(1/4)) = 0.5*log(2) + 0.5*log(2/3) in bits
        expect = 0.5 * np.log2(0.5 / 0.25) + 0.5 * np.log2(0.5 / 0.75)
        got = kl(Pmf.bernoulli(0.5), Pmf.bernoulli(0.25))
        assert got == pytest.approx(expect, abs=1e-12)

    @given(pmfs(min_size=3, max_size=3), pmfs(min_size=3, max_size=3))
    def test_nonnegative(self, p, q):
        assert kl(p, q) >= -1e-12

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 10))
    def test_matrix_matches_kl_or_inf(self, data, n):
        # the broadcast matrix against the pairwise oracle, zero cells and
        # +inf entries included; numpy's pairwise sum regroups from 8 terms,
        # so only up to 7 symbols is the match bit for bit
        p, q = data.draw(posterior_rows(n)), data.draw(posterior_rows(n))
        oracle = np.array([[kl_or_inf(a, b) for b in q] for a in p])
        got = prob._kl_matrix(p, q)
        assert got.shape == oracle.shape
        if n <= 7:
            assert np.array_equal(got, oracle)
        else:
            np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12)

    def test_matrix_support_violation_is_inf(self):
        got = prob._kl_matrix(np.array([[0.5, 0.5], [1.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert np.array_equal(got, [[np.inf], [0.0]])


class TestMutualInformation:
    def test_bsc_closed_form(self):
        # uniform input through BSC(0.1): I = 1 - h2(0.1)
        joint = JointPmf2(0.5 * PrivacyMapping.bsc(0.1).rows)
        assert prob.mutual_information(joint) == pytest.approx(1 - h2(0.1), abs=1e-12)

    def test_independent_is_zero(self):
        j = JointPmf2(np.outer(Pmf.bernoulli(0.3).probs, np.full(4, 0.25)))
        assert prob.mutual_information(j) == pytest.approx(0.0, abs=1e-12)

    @given(joint2())
    def test_matches_brute_force(self, j):
        assert prob.mutual_information(j) == pytest.approx(mi_brute(j.table), abs=1e-10)

    def test_batched_tables_with_zero_cells(self):
        # one value per leading index; zero cells, zero rows and zero columns
        # add nothing, whether or not their marginal product is zero
        rng = np.random.default_rng(0)
        tables = rng.random((3, 2, 4, 5))
        tables[0, 0, 1, :] = 0.0
        tables[1, 1, :, 2] = 0.0
        tables[2, :, 0, 0] = 0.0
        tables[2, 0, 3, 4] = 0.0
        tables /= tables.sum(axis=(-2, -1), keepdims=True)
        got = prob._mi(tables)
        assert got.shape == (3, 2)
        for idx in np.ndindex(3, 2):
            assert got[idx] == pytest.approx(mi_brute(tables[idx]), abs=1e-12)

    def test_mask_free_path_is_bit_identical(self):
        # a table with no zero cell skips the masks: the same values as an
        # all-true mask, bit for bit
        rng = np.random.default_rng(6)
        tables = rng.dirichlet(np.ones(40), size=(4, 3)).reshape(4, 3, 5, 8)
        nz = np.ones(tables.shape, dtype=bool)
        terms = tables.sum(axis=-1)[..., :, None] * tables.sum(axis=-2)[..., None, :]
        np.divide(tables, terms, out=terms, where=nz)
        np.log2(terms, out=terms, where=nz)
        terms *= tables
        assert tables.min() > 0
        assert np.array_equal(prob._mi(tables), terms.sum(axis=(-2, -1)))

    @given(joint2())
    def test_symmetry(self, j):
        assert prob.mutual_information(j) == pytest.approx(
            prob.mutual_information(JointPmf2(j.table.T)), abs=1e-12)

    @given(joint2())
    def test_nonnegative_and_bounded(self, j):
        i = prob.mutual_information(j)
        h_a = prob.entropy(j.marginal_a())
        h_b = prob.entropy(j.marginal_b())
        assert -1e-12 <= i <= min(h_a, h_b) + 1e-10


class TestConditional:
    """The conditional-MI oracle that tests of the exposure condition lean
    on, checked against `mutual_information` by the chain rule."""

    @given(joint3())
    def test_cmi_chain_rule(self, j):
        # I(A;(B,C)) = I(A;B) + I(A;C|B)
        a, b, c = j.shape
        flat = JointPmf2(j.table.reshape(a, b * c))
        i_abc = prob.mutual_information(flat)
        i_ab = prob.mutual_information(JointPmf2(j.table.sum(axis=2)))
        # reorder to (A, C, B) so the conditioning variable sits last
        assert i_ab + cmi_loops(j.table.transpose(0, 2, 1)) == pytest.approx(
            i_abc, abs=1e-10)

    @given(joint3())
    def test_cmi_nonnegative(self, j):
        assert cmi_loops(j.table) >= -1e-12


class TestMarkovCompose:
    @given(joint2(max_size=4), st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_data_processing(self, j_sx, seed):
        rng = np.random.default_rng(seed)
        mapping = PrivacyMapping(rng.dirichlet(np.ones(3), size=j_sx.shape[1]))
        j3 = prob.markov_compose(j_sx, mapping)
        i_sx = prob.mutual_information(j_sx)
        i_sy = prob.mutual_information(j3.margin_ac())
        assert i_sy <= i_sx + 1e-12

    def test_marginals(self):
        j_sx = JointPmf2(np.array([[0.3, 0.2], [0.1, 0.4]]))
        j3 = prob.markov_compose(j_sx, PrivacyMapping.bsc(0.2))
        np.testing.assert_allclose(j3.table.sum(axis=2), j_sx.table, atol=1e-15)
        # constant mapping: Y independent of (S, X)
        j3c = prob.markov_compose(j_sx, PrivacyMapping(np.array([[1.0, 0.0], [1.0, 0.0]])))
        assert prob.mutual_information(j3c.margin_ac()) == pytest.approx(0.0, abs=1e-12)

    def test_identity_preserves_information(self):
        j_sx = JointPmf2(np.array([[0.3, 0.2], [0.1, 0.4]]))
        j3 = prob.markov_compose(j_sx, PrivacyMapping(np.eye(2)))
        assert prob.mutual_information(j3.margin_ac()) == pytest.approx(
            prob.mutual_information(j_sx), abs=1e-12)


class TestValidation:
    def test_bad_sum_rejected(self):
        with pytest.raises(ValidationError):
            Pmf(np.array([0.5, 0.6]))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            JointPmf2(np.array([[1.2, -0.2], [0.0, 0.0]]))

    def test_row_sum_rejected(self):
        with pytest.raises(ValidationError):
            PrivacyMapping(np.array([[0.5, 0.6], [0.5, 0.5]]))

    @pytest.mark.parametrize("table,message", [
        ([[0.5, np.nan], [0.25, 0.25]], "JointPmf2: non-finite entries"),
        ([[0.5, -np.inf], [0.25, 0.25]], "JointPmf2: non-finite entries"),
        ([[0.5, np.inf], [0.25, 0.25]], "JointPmf2: non-finite entries"),
        ([[np.inf, -np.inf], [0.0, 0.0]], "JointPmf2: non-finite entries"),
        ([[1.25, -0.25], [0.0, 0.0]], "JointPmf2: negative entries"),
        ([[0.5, 0.25], [0.25, 0.25]], "JointPmf2: entries sum to 1.25, not 1"),
        (np.zeros((0, 2)), "JointPmf2: entries sum to 0.0, not 1"),
    ])
    def test_table_messages(self, table, message):
        # the first failing check names the fault, in this order
        with pytest.raises(ValidationError) as exc:
            JointPmf2(np.asarray(table, dtype=float))
        assert str(exc.value) == message


alternatives = st.sampled_from(["greater", "less"])


@st.composite
def equal_size_pairs(draw):
    # few distinct values, so most samples hold ties within and across the pair
    n = draw(st.integers(1, 60))
    sample = st.lists(st.integers(0, 8), min_size=n, max_size=n)
    return draw(sample), draw(sample)


@st.composite
def tied_pairs(draw):
    # up to 300 points on at most 12 values: long samples, most points tied
    n = draw(st.integers(1, 300))
    values = draw(st.integers(1, 12))
    shift = draw(st.integers(-2, 2))
    rows = st.lists(st.integers(0, values - 1), min_size=n, max_size=n)
    return np.array(draw(rows)), np.array(draw(rows)) + shift


class TestKsOneSided:
    """`ks_one_sided` against `scipy.stats.ks_2samp`: method "auto", which is
    exact up to n = 10,000, and method "exact" at every n."""

    @staticmethod
    def check(a, b, alternative, method="auto"):
        d, p = prob.ks_one_sided(a, b, alternative)
        ref = stats.ks_2samp(a, b, alternative=alternative, method=method)
        assert d == ref.statistic
        assert p == ref.pvalue
        return d, p

    @settings(max_examples=150, deadline=None)
    @given(equal_size_pairs(), alternatives)
    def test_matches_scipy_equal_sizes(self, pair, alternative):
        self.check(np.array(pair[0]), np.array(pair[1]), alternative)

    @settings(max_examples=150, deadline=None)
    @given(tied_pairs(), alternatives)
    def test_matches_scipy_exact_with_ties(self, pair, alternative):
        self.check(*pair, alternative, method="exact")

    @pytest.mark.parametrize("alternative", ["greater", "less"])
    def test_no_difference(self, alternative):
        # h == 0: identical samples, and a shift the other way
        a = np.array([1, 2, 2, 5])
        assert self.check(a, a, alternative) == (0.0, 1.0)
        other = a - 3 if alternative == "greater" else a + 3
        assert self.check(a, other, alternative) == (0.0, 1.0)

    @pytest.mark.parametrize("n", [10000, 10001, 30000])
    @pytest.mark.parametrize("alternative", ["greater", "less"])
    def test_either_side_of_exact_cutoff(self, n, alternative):
        # the closed form at every n, also past the 10,000 where scipy's
        # method "auto" turns asymptotic
        rng = np.random.default_rng(n)
        a, b = rng.integers(0, 1000, size=n), rng.integers(5, 1005, size=n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, p = self.check(a, b, alternative, method="exact")
        assert 0 < p <= 1

    @pytest.mark.parametrize("a,b,alternative", [
        ([], [1, 2], "greater"),
        ([1, 2], [], "less"),
        ([1, 2], [1, 2], "two-sided"),
        ([3], [1, 4, 4], "greater"),
    ])
    def test_rejects_bad_input(self, a, b, alternative):
        with pytest.raises(ValidationError):
            prob.ks_one_sided(np.array(a), np.array(b), alternative)
