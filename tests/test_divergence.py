"""Latent-model diagnostics: decomposition against loop summation and the
constrained maximization against a fine simplex grid."""

from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mirrorwyner import divergence as dv
from mirrorwyner import prob
from mirrorwyner.errors import ValidationError
from mirrorwyner.prob import JointPmf2, Pmf

from conftest import cmi_loops


def random_model(seed, dims=(2, 3, 4, 2)):
    rng = np.random.default_rng(seed)
    return dv.LatentModel(rng.dirichlet(np.ones(int(np.prod(dims)))).reshape(dims))


class TestDecomposition:
    @pytest.mark.parametrize("seed", range(5))
    def test_sums_to_cmi(self, seed):
        m = random_model(seed)
        rep = dv.cmi_decomposition_report(m)
        assert rep.total == pytest.approx(cmi_loops(m.xyz_margin()), abs=1e-10)
        assert rep.total == pytest.approx(rep.per_z.sum(), abs=1e-12)

    def test_contributions_nonnegative(self):
        for seed in range(5):
            rep = dv.cmi_decomposition_report(random_model(seed))
            assert np.all(rep.per_z >= -1e-12)

    def test_independent_slices_give_zero(self):
        # P(x,y|z) product form for every z => CMI = 0
        px = np.array([0.3, 0.7])
        py = np.array([0.2, 0.5, 0.3])
        pz = np.array([0.6, 0.4])
        xyz = px[:, None, None] * py[None, :, None] * pz[None, None, :]
        joint = xyz[:, :, :, None] * np.array([0.5, 0.5])[None, None, None, :]
        rep = dv.cmi_decomposition_report(dv.LatentModel(joint))
        assert rep.total == pytest.approx(0.0, abs=1e-12)


class TestConstrainedMax:
    def grid_oracle(self, m, mask, resolution=64):
        p_z = m.p_z()
        acc = list(mask.accessible)
        acc_mass = p_z[acc].sum()
        mi_z = dv._cmi_per_slice(m)
        inacc = sum(p_z[z] * mi_z[z] for z in mask.inaccessible)
        best = -np.inf
        for combo in combinations_with_replacement(range(len(acc)), resolution):
            w = np.bincount(np.asarray(combo), minlength=len(acc)) / resolution
            best = max(best, inacc + acc_mass * float(w @ mi_z[acc]))
        return best

    @pytest.mark.parametrize("seed", range(4))
    def test_vacuous_band_matches_grid(self, seed):
        m = random_model(seed)
        mask = dv.AccessMask((0, 1, 2), (3,))
        res = dv.constrained_cmi_max(m, mask, 0.0, np.log2(2))
        assert res.feasible
        assert res.cmi == pytest.approx(self.grid_oracle(m, mask), abs=1e-9)
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-9)
        # frozen inaccessible mass
        assert res.weights[3] == pytest.approx(m.p_z()[3], abs=1e-12)

    def test_infeasible_band_typed(self):
        m = random_model(5)
        res = dv.constrained_cmi_max(m, dv.AccessMask((0, 1, 2), (3,)), 5.0, 6.0)
        assert not res.feasible
        assert np.isnan(res.cmi)
        np.testing.assert_allclose(res.weights, m.p_z(), atol=1e-12)

    def test_single_accessible_slice(self):
        m = random_model(6)
        res = dv.constrained_cmi_max(m, dv.AccessMask((2,), (0, 1, 3)), 0.0, 1.0)
        assert res.feasible
        assert res.cmi == pytest.approx(dv.cmi_decomposition_report(m).total, abs=1e-10)

    def test_deterministic_equivocation(self):
        # M a function of Z: every inaccessible slice has H(M|z) = 0
        joint = np.zeros((2, 2, 2, 2))
        joint[:, :, 0, 0] = 0.125
        joint[:, :, 1, 1] = 0.125
        m = dv.LatentModel(joint)
        res = dv.constrained_cmi_max(m, dv.AccessMask((0,), (1,)), 0.0, 0.5)
        assert res.equivocation == pytest.approx(0.0, abs=1e-12)
        assert res.feasible

    def test_band_validation(self):
        m = random_model(7)
        with pytest.raises(ValidationError):
            dv.constrained_cmi_max(m, dv.AccessMask((0, 1, 2), (3,)), 1.0, 0.5)
        with pytest.raises(ValidationError):
            dv.constrained_cmi_max(m, dv.AccessMask((0, 1), (3,)), 0.0, 1.0)


class TestMaskAndModel:
    def test_mask_validation(self):
        with pytest.raises(ValidationError):
            dv.AccessMask((0, 1), (1, 2))
        with pytest.raises(ValidationError):
            dv.AccessMask((), (0, 1))

    def test_model_validation(self):
        with pytest.raises(ValidationError):
            dv.LatentModel(np.ones((2, 2, 2)) / 8)


@st.composite
def zero_slice_models(draw):
    """A model of 1..4 letters for X, Y and M and 1..12 for Z from integer
    weights in 0..5, with a drawn set of Z slices emptied, and an
    inaccessible Z subset that leaves slice 0 accessible; eight or more
    inaccessible slices would show a pairwise sum of their terms."""
    dims = tuple(draw(st.integers(1, 12 if axis == 2 else 4)) for axis in range(4))
    counts = draw(hnp.arrays(np.int64, dims, elements=st.integers(0, 5))).astype(float)
    emptied = draw(st.lists(st.integers(0, dims[2] - 1), max_size=dims[2]))
    counts[:, :, emptied, :] = 0.0
    assume(counts.sum() > 0)
    inaccessible = draw(st.sets(st.integers(1, dims[2] - 1))) if dims[2] > 1 else set()
    accessible = [z for z in range(dims[2]) if z not in inaccessible]
    return dv.LatentModel(counts / counts.sum()), dv.AccessMask(accessible, inaccessible)


class TestSliceStackAgainstLoops:
    """The one-stack slice measures equal, float for float, a loop that
    builds one validated table per nonempty slice."""

    @given(zero_slice_models())
    @settings(max_examples=200, deadline=None)
    def test_cmi_per_slice(self, model_mask):
        m, _ = model_mask
        xyz = m.xyz_margin()
        p_z = xyz.sum(axis=(0, 1))
        loops = [prob.mutual_information(JointPmf2(xyz[:, :, z] / p_z[z])) if p_z[z] > 0
                 else 0.0 for z in range(p_z.size)]
        assert dv._cmi_per_slice(m).tolist() == loops

    @given(zero_slice_models())
    @settings(max_examples=200, deadline=None)
    def test_equivocation(self, model_mask):
        m, mask = model_mask
        p_z, zm = m.p_z(), m.joint.sum(axis=(0, 1))
        h = 0.0
        w = p_z[list(mask.inaccessible)]
        if mask.inaccessible and w.sum() > 0:
            for wi, z in zip(w / w.sum(), mask.inaccessible):
                if p_z[z] > 0:
                    h += wi * prob.entropy(Pmf(zm[z] / p_z[z]))
        # repr tells -0.0 from 0.0, as a CSV cell does
        assert repr(dv._equivocation(m, mask)) == repr(float(h))
