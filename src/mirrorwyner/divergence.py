"""Conditional-MI diagnostics over a latent 4-way model: the per-slice
decomposition report, the log-ratio differentiability field, and the
equivocation-constrained conditional-MI maximization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import prob
from .errors import ValidationError
from .prob import JointPmf2, Pmf


@dataclass(frozen=True)
class LatentModel:
    """Joint table over (X, Y, Z, M) plus the inverse temperatures used by
    the Boltzmann-form ratio proxy."""

    joint: np.ndarray  # 4-way table
    theta0: float = 1.0
    theta1: float = 1.0
    theta2: float = 1.0
    theta3: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "joint", np.asarray(self.joint, dtype=float))
        if self.joint.ndim != 4:
            raise ValidationError("LatentModel: joint must be 4-way (X, Y, Z, M)")
        prob._check_table(self.joint, "LatentModel")
        if min(self.theta0, self.theta1, self.theta2, self.theta3) < 0:
            raise ValidationError("LatentModel: temperatures must be >= 0")

    def xyz_margin(self) -> np.ndarray:
        return self.joint.sum(axis=3)

    def p_z(self) -> np.ndarray:
        return self.joint.sum(axis=(0, 1, 3))

    def m_given(self, axis: int) -> np.ndarray:
        """P(M | V=v) for V the variable on the given axis (0=X, 1=Y, 2=Z)."""
        drop = tuple(a for a in range(3) if a != axis)
        table = self.joint.sum(axis=drop)  # (V, M)
        tot = table.sum(axis=1, keepdims=True)
        return np.where(tot > 0, table / np.where(tot > 0, tot, 1.0),
                        1.0 / table.shape[1])


@dataclass(frozen=True)
class AccessMask:
    """Partition of the Z alphabet into accessible and inaccessible indices."""

    accessible: tuple
    inaccessible: tuple

    def __post_init__(self):
        acc = tuple(sorted(int(i) for i in self.accessible))
        inacc = tuple(sorted(int(i) for i in self.inaccessible))
        object.__setattr__(self, "accessible", acc)
        object.__setattr__(self, "inaccessible", inacc)
        if set(acc) & set(inacc):
            raise ValidationError("AccessMask: index sets must be disjoint")
        if not acc:
            raise ValidationError("AccessMask: need at least one accessible slice")

    def check(self, n_z: int) -> None:
        if set(self.accessible) | set(self.inaccessible) != set(range(n_z)):
            raise ValidationError("AccessMask: index sets must cover the Z alphabet")


@dataclass
class CmiDecomposition:
    per_z: np.ndarray  # P(z) * D(P(X,Y|z) || P(X|z) P(Y|z)) per slice
    total: float

    def csv_lines(self):
        yield "z,contribution_bits"
        for z, c in enumerate(self.per_z):
            yield f"{z},{c:.12g}"
        yield f"total,{self.total:.12g}"


def cmi_decomposition_report(m: LatentModel) -> CmiDecomposition:
    """Per-slice contributions whose sum is the conditional mutual
    information of the (X, Y, Z) margin."""
    per_z = m.xyz_margin().sum(axis=(0, 1)) * _cmi_per_slice(m)
    return CmiDecomposition(per_z=per_z, total=float(per_z.sum()))


@dataclass
class LogRatioField:
    log_ratio: np.ndarray   # (Y, X, Z): log2 of P(y|z) / P(x|z)
    proxy: np.ndarray       # (Y, X, Z): theta1*D(M|y || M|z) / theta2*D(M|x || M|z)
    undefined: np.ndarray   # (Y, X, Z) bool: excluded cells
    intervals: list         # per z: list of (start, end, direction) runs


def log_ratio_field(m: LatentModel) -> LogRatioField:
    """Both comparison fields plus the same-direction run partition along
    each z slice (cells ordered lexicographically in (y, x))."""
    if m.theta2 <= 0:
        raise ValidationError("log_ratio_field: theta2 must be positive")
    xyz = m.xyz_margin()
    p_z = xyz.sum(axis=(0, 1))
    n_x, n_y, n_z = xyz.shape
    cond = np.where(p_z[None, None, :] > 0, xyz / np.where(p_z > 0, p_z, 1.0), 0.0)
    p_x_z = cond.sum(axis=1)  # (X, Z)
    p_y_z = cond.sum(axis=0)  # (Y, Z)
    m_x = m.m_given(0)
    m_y = m.m_given(1)
    m_z = m.m_given(2)
    log_ratio = np.full((n_y, n_x, n_z), np.nan)
    proxy = np.full((n_y, n_x, n_z), np.nan)
    undefined = np.zeros((n_y, n_x, n_z), dtype=bool)
    for z in range(n_z):
        for y in range(n_y):
            num = m.theta1 * prob.kl_or_inf(m_y[y], m_z[z])
            for x in range(n_x):
                if p_x_z[x, z] > 0 and p_y_z[y, z] > 0:
                    log_ratio[y, x, z] = np.log2(p_y_z[y, z] / p_x_z[x, z])
                else:
                    undefined[y, x, z] = True
                    continue
                den = m.theta2 * prob.kl_or_inf(m_x[x], m_z[z])
                if den == 0.0 or not np.isfinite(den) or not np.isfinite(num):
                    undefined[y, x, z] = True
                else:
                    proxy[y, x, z] = num / den
    intervals = []
    for z in range(n_z):
        lr = log_ratio[:, :, z].ravel()
        pr = proxy[:, :, z].ravel()
        ok = ~undefined[:, :, z].ravel()
        runs = []
        start = None
        direction = 0
        prev = None
        for idx in range(lr.size):
            if not ok[idx]:
                if start is not None and direction != 0:
                    runs.append((start, prev, direction))
                start, direction, prev = None, 0, None
                continue
            if prev is None:
                start, prev = idx, idx
                continue
            d_lr = lr[idx] - lr[prev]
            d_pr = pr[idx] - pr[prev]
            step = 1 if (d_lr >= 0 and d_pr >= 0) else (-1 if (d_lr <= 0 and d_pr <= 0) else 0)
            if step != 0 and (direction == 0 or step == direction):
                direction = step
            else:
                if direction != 0:
                    runs.append((start, prev, direction))
                # a mixed-direction step is excluded from both adjacent runs
                start, direction = (prev, step) if step != 0 else (idx, 0)
            prev = idx
        if start is not None and direction != 0:
            runs.append((start, prev, direction))
        intervals.append(runs)
    return LogRatioField(log_ratio, proxy, undefined, intervals)


@dataclass
class ReweightResult:
    weights: np.ndarray      # full-length Z weights (inaccessible entries frozen)
    cmi: float
    equivocation: float
    feasible: bool


def _cmi_per_slice(m: LatentModel) -> np.ndarray:
    """MI of the conditional (X, Y) slab per z slice (zero-mass slices -> 0)."""
    xyz = m.xyz_margin()
    p_z = xyz.sum(axis=(0, 1))
    out = np.zeros(xyz.shape[2])
    for z in range(xyz.shape[2]):
        if p_z[z] > 0:
            out[z] = prob.mutual_information(JointPmf2(xyz[:, :, z] / p_z[z]))
    return out


def _equivocation(m: LatentModel, mask: AccessMask) -> float:
    """E over the inaccessible slices of H(M | Z=z), bits."""
    if not mask.inaccessible:
        return 0.0
    p_z = m.p_z()
    zm = m.joint.sum(axis=(0, 1))  # (Z, M)
    w = p_z[list(mask.inaccessible)]
    if w.sum() <= 0:
        return 0.0
    w = w / w.sum()
    h = 0.0
    for wi, z in zip(w, mask.inaccessible):
        if p_z[z] > 0:
            h += wi * prob.entropy(Pmf(zm[z] / p_z[z]))
    return float(h)


def constrained_cmi_max(m: LatentModel, mask: AccessMask, g1: float, g2: float
                        ) -> ReweightResult:
    """Maximize the conditional MI over a simplex reweighting of the
    accessible z slices, the inaccessible slice weights staying frozen,
    subject to the equivocation band on the inaccessible side.

    The objective is linear in the weights, so the optimum puts all the
    accessible mass on the slice of largest per-slice MI (the first on ties).
    """
    if g1 > g2:
        raise ValidationError("constrained_cmi_max: need g1 <= g2")
    p_z = m.p_z()
    mask.check(p_z.size)
    eq = _equivocation(m, mask)
    weights = p_z.copy()
    if not (g1 - 1e-9 <= eq <= g2 + 1e-9):
        return ReweightResult(weights, float("nan"), eq, feasible=False)
    acc = list(mask.accessible)
    acc_mass = float(p_z[acc].sum())
    mi_z = _cmi_per_slice(m)
    inacc_cmi = float(sum(p_z[z] * mi_z[z] for z in mask.inaccessible))
    best = acc[int(np.argmax(mi_z[acc]))]
    weights[acc] = 0.0
    weights[best] = acc_mass
    return ReweightResult(weights, inacc_cmi + acc_mass * float(mi_z[best]), eq, feasible=True)
