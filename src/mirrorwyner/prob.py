"""Exact finite-alphabet probability engine.

All information measures are in bits (log base 2). Tables are dense numpy
arrays; alphabets are desk-scale. Inputs are validated on construction and
rejected (not renormalized) when probability sums are off by more than
SUM_TOL. `ks_one_sided` is the one-sided two-sample Kolmogorov-Smirnov test
that compares solver convergence samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

SUM_TOL = 1e-12


def _check_table(table: np.ndarray, name: str) -> None:
    # One min and one sum pass accept every valid table: a NaN or -inf fails
    # the min, a +inf the sum. Only a failure re-derives its message below.
    if table.size and table.min() >= 0 and abs(float(table.sum()) - 1.0) <= SUM_TOL:
        return
    if not np.all(np.isfinite(table)):
        raise ValidationError(f"{name}: non-finite entries")
    if np.any(table < 0):
        raise ValidationError(f"{name}: negative entries")
    total = float(table.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise ValidationError(f"{name}: entries sum to {total!r}, not 1")


def _plogp(p: np.ndarray) -> np.ndarray:
    # 0 * log 0 := 0 by continuity
    out = np.zeros_like(p)
    nz = p > 0
    out[nz] = p[nz] * np.log2(p[nz])
    return out


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.probs.ndim != 1 or self.probs.size < 1:
            raise ValidationError("Pmf: probs must be a non-empty 1-D array")
        _check_table(self.probs, "Pmf")

    @property
    def alphabet_size(self) -> int:
        return self.probs.size

    @classmethod
    def bernoulli(cls, p: float) -> "Pmf":
        return cls(np.array([1.0 - p, p]))


@dataclass(frozen=True)
class JointPmf2:
    """Joint distribution over a pair of finite alphabets, table[a, b]."""

    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", np.asarray(self.table, dtype=float))
        if self.table.ndim != 2:
            raise ValidationError("JointPmf2: table must be 2-D")
        _check_table(self.table, "JointPmf2")

    def marginal_a(self) -> Pmf:
        return Pmf(self.table.sum(axis=1))

    def marginal_b(self) -> Pmf:
        return Pmf(self.table.sum(axis=0))

    def to_jsonable(self):
        return [list(row) for row in self.table]


@dataclass(frozen=True)
class JointPmf3:
    """Joint distribution over a triple of finite alphabets, table[a, b, c]."""

    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", np.asarray(self.table, dtype=float))
        if self.table.ndim != 3:
            raise ValidationError("JointPmf3: table must be 3-D")
        _check_table(self.table, "JointPmf3")

    @property
    def shape(self):
        return self.table.shape

    def margin_ac(self) -> JointPmf2:
        return JointPmf2(self.table.sum(axis=1))


@dataclass(frozen=True)
class PrivacyMapping:
    """Row-stochastic conditional table: rows[x] is P(output | input=x)."""

    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=float))
        if self.rows.ndim != 2:
            raise ValidationError("PrivacyMapping: rows must be 2-D")
        if not np.all(np.isfinite(self.rows)) or np.any(self.rows < 0):
            raise ValidationError("PrivacyMapping: rows must be finite and non-negative")
        sums = self.rows.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > SUM_TOL):
            raise ValidationError("PrivacyMapping: each row must sum to 1")

    @property
    def input_size(self) -> int:
        return self.rows.shape[0]

    @property
    def output_size(self) -> int:
        return self.rows.shape[1]

    @classmethod
    def bsc(cls, flip: float) -> "PrivacyMapping":
        return cls(np.array([[1.0 - flip, flip], [flip, 1.0 - flip]]))


def entropy(p: Pmf) -> float:
    """Shannon entropy H(p) in bits."""
    return float(-_plogp(p.probs).sum())


def _kl_matrix(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(p[i] || q[j]) in bits for every row of p (m, n) against every row of
    q (k, n), as an (m, k) matrix; +inf on a support violation. One
    broadcast over (m, k, n); each entry equals a plain left-to-right sum
    bit for bit up to n = 7 (from 8 on, `np.add.reduce` sums pairwise)."""
    p, q = p[:, None, :], q[None, :, :]
    # a cell with p > 0 = q gives p * log2(inf) = +inf, and so an infinite sum
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log2(p / q), 0.0)
    return np.add.reduce(terms, -1)


def _mi(table: np.ndarray) -> np.ndarray:
    """I(A;B) in bits of unchecked joint tables (..., |A|, |B|), one value
    per leading index."""
    # prod is zero only where the joint is zero, so support is always fine.
    # One buffer goes from the product of the marginals to the terms, since
    # fresh large temporaries cost more than the arithmetic; a zero cell keeps
    # its finite marginal product and adds 0 * prod = 0.
    terms = np.add.reduce(table, -1)[..., :, None] * np.add.reduce(table, -2)[..., None, :]
    # a table with no zero (and no NaN) cell needs no mask: the same per-cell
    # operations, without building and reading one
    nz = True if table.size and np.minimum.reduce(table, None) > 0 else table > 0
    np.divide(table, terms, out=terms, where=nz)
    np.log2(terms, out=terms, where=nz)
    terms *= table
    return np.add.reduce(terms, (-2, -1))


def mutual_information(j: JointPmf2) -> float:
    """I(A;B) = D(joint || product of marginals), in bits."""
    return float(_mi(j.table))


def markov_compose(p_sx: JointPmf2, mapping: PrivacyMapping) -> JointPmf3:
    """Joint P(s, x, y) = P(s, x) P(y|x): the chain S -> X -> Y."""
    if mapping.input_size != p_sx.table.shape[1]:
        raise ValidationError("markov_compose: mapping input alphabet mismatch")
    table = p_sx.table[:, :, None] * mapping.rows[None, :, :]
    return JointPmf3(table)


# ---------------------------------------------------------------------------
# One-sided two-sample Kolmogorov-Smirnov test
# ---------------------------------------------------------------------------

def ks_one_sided(a, b, alternative: str):
    """One-sided two-sample Kolmogorov-Smirnov test: (statistic, p-value).

    "greater" takes the largest rise of a's ECDF above b's, "less" the
    largest fall below it. The samples must be non-empty and of one size n.
    The gap is counted in sample points, an integer h, so the statistic is
    h / n and the p-value is exact for every n: the closed form
    binom(2n, n - h) / binom(2n, n). This is
    `scipy.stats.ks_2samp(a, b, alternative, method="exact")` at every n,
    and its default `method="auto"` up to n = 10,000, where scipy turns to
    an asymptotic formula; it needs numpy alone.
    """
    if alternative not in ("greater", "less"):
        raise ValidationError(f"alternative: need 'greater' or 'less', got {alternative!r}")
    a, b = np.sort(a), np.sort(b)
    n = a.shape[0]
    if n == 0 or b.shape[0] != n:
        raise ValidationError(f"ks_one_sided: need two non-empty samples of one size, "
                              f"got {n} and {b.shape[0]}")
    pooled = np.concatenate([a, b])
    gaps = np.searchsorted(a, pooled, side="right") - np.searchsorted(b, pooled, side="right")
    # both counts reach n at the largest pooled value, so h >= 0
    h = int(gaps.max() if alternative == "greater" else -gaps.min())
    # binom(2n, n - h) / binom(2n, n), one ratio per factor; the empty
    # product at h = 0 is 1
    j = np.arange(h)
    return h / n, float(np.prod((n - j) / (n + j + 1.0)))
