"""Conditional-MI diagnostics over a latent 4-way model: the per-slice
decomposition report and the equivocation-constrained conditional-MI
maximization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import prob
from .errors import ValidationError


@dataclass(frozen=True)
class LatentModel:
    """Joint table over (X, Y, Z, M)."""

    joint: np.ndarray  # 4-way table

    def __post_init__(self):
        object.__setattr__(self, "joint", np.asarray(self.joint, dtype=float))
        if self.joint.ndim != 4:
            raise ValidationError("LatentModel: joint must be 4-way (X, Y, Z, M)")
        prob._check_table(self.joint, "LatentModel")

    def xyz_margin(self) -> np.ndarray:
        return self.joint.sum(axis=3)

    def p_z(self) -> np.ndarray:
        return self.joint.sum(axis=(0, 1, 3))


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
        if len(set(acc)) < len(acc) or len(set(inacc)) < len(inacc):
            raise ValidationError("AccessMask: an index repeats within one set")
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


def cmi_decomposition_report(m: LatentModel) -> CmiDecomposition:
    """Per-slice contributions whose sum is the conditional mutual
    information of the (X, Y, Z) margin."""
    per_z = m.xyz_margin().sum(axis=(0, 1)) * _cmi_per_slice(m)
    return CmiDecomposition(per_z=per_z, total=float(per_z.sum()))


@dataclass
class ReweightResult:
    weights: np.ndarray      # full-length Z weights (inaccessible entries frozen)
    cmi: float
    equivocation: float
    feasible: bool


def _cmi_per_slice(m: LatentModel) -> np.ndarray:
    """MI of the conditional (X, Y) slab per z slice, all slices in one
    C-contiguous (Z, X, Y) stack (a strided view sums in another order); a
    zero-mass slice is divided by 1 and gives 0."""
    xyz = m.xyz_margin()
    p_z = xyz.sum(axis=(0, 1))
    slabs = np.ascontiguousarray(np.moveaxis(xyz, 2, 0))
    return prob._mi(slabs / np.where(p_z > 0, p_z, 1.0)[:, None, None])


def _equivocation(m: LatentModel, mask: AccessMask) -> float:
    """E over the inaccessible slices of H(M | Z=z), bits."""
    if not mask.inaccessible:
        return 0.0
    inacc = list(mask.inaccessible)
    p_z = m.p_z()[inacc]
    if p_z.sum() <= 0:
        return 0.0
    rows = m.joint.sum(axis=(0, 1))[inacc] / np.where(p_z > 0, p_z, 1.0)[:, None]
    terms = p_z / p_z.sum() * -prob._plogp(rows).sum(axis=1)
    # summed slice by slice from 0.0, as a loop adds them
    return float(np.add.accumulate(np.append(0.0, terms))[-1])


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
