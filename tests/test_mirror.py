"""Mirror-game instance tests: exact condition values against exhaustive
enumeration of the full joint, the relaxation chain, and the Boltzmann
posterior."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorwyner import cli, mirror, prob, solvers
from mirrorwyner.errors import ValidationError
from mirrorwyner.mirror import (MirrorGameInstance, TwinAssignment,
                                UncertaintyModel)
from mirrorwyner.prob import JointPmf2, JointPmf3, PrivacyMapping

from conftest import cmi_loops, kl_or_inf, wide_instance


def random_instance(seed, q_count=2, n_s=2, n_x=2, n_v=2):
    rng = np.random.default_rng(seed)
    p_s = rng.dirichlet(np.ones(n_s))
    joints = []
    for _ in range(q_count):
        chan = rng.dirichlet(np.ones(n_x), size=n_s)
        joints.append(JointPmf2(p_s[:, None] * chan))
    return MirrorGameInstance(joints=tuple(joints), gamma0=0.5, gamma1=1.0,
                              gamma2=0.05, gamma3=2.0, virtual_alphabet=n_v)


def random_assignment(inst, seed):
    rng = np.random.default_rng(seed)
    orig, virt = [], []
    for q in range(inst.q_count):
        n_x = inst.x_marginal(q).alphabet_size
        orig.append(PrivacyMapping(rng.dirichlet(np.ones(2), size=n_x)))
        virt.append(PrivacyMapping(rng.dirichlet(np.ones(inst.virtual_alphabet),
                                                 size=n_x)))
    return TwinAssignment(tuple(orig), tuple(virt))


def assignment_rows(asg):
    """Each Bob's original rows and virtual rows of an assignment."""
    return [m.rows for m in asg.original], [m.rows for m in asg.virtual]


IDENTITY = PrivacyMapping(np.eye(2))
CONSTANT = PrivacyMapping(np.array([[1.0, 0.0], [1.0, 0.0]]))   # every x to y = 0


def full_joint(inst, asg):
    """Exhaustive joint over (s, x_0..x_Q-1, yo_0..yv_Q-1) by plain loops.

    The coupling model: the X_q are conditionally independent given S, and
    each Bob's outputs depend only on its own X_q.
    """
    q_count = inst.q_count
    p_s = inst.source.probs
    n_s = p_s.size
    sizes = [n_s]
    for q in range(q_count):
        sizes.append(inst.x_marginal(q).alphabet_size)
    for q in range(q_count):
        sizes.append(asg.original[q].output_size)
        sizes.append(asg.virtual[q].output_size)
    table = np.zeros(sizes)
    for idx in itertools.product(*(range(n) for n in sizes)):
        s = idx[0]
        xs = idx[1:1 + q_count]
        outs = idx[1 + q_count:]
        p = p_s[s]
        for q in range(q_count):
            p *= inst.x_given_s(q)[s, xs[q]]
            yo, yv = outs[2 * q], outs[2 * q + 1]
            p *= asg.original[q].rows[xs[q], yo] * asg.virtual[q].rows[xs[q], yv]
        table[idx] = p
    return table


def mi_of(table, axes_a, axes_b):
    """I(A;B) from a dense joint by marginalizing onto the two axis groups."""
    keep = tuple(axes_a) + tuple(axes_b)
    drop = tuple(i for i in range(table.ndim) if i not in keep)
    j = table.sum(axis=drop) if drop else table
    # bring the A axes first, flatten each group
    perm = sorted(range(len(keep)), key=lambda i: keep[i])
    j = np.transpose(j, np.argsort(perm)) if perm != list(range(len(keep))) else j
    n_a = int(np.prod([table.shape[i] for i in axes_a]))
    return prob.mutual_information(JointPmf2(j.reshape(n_a, -1)))


def axes_of(q_count):
    """Axes of `full_joint`: 0=s, then x_0..x_Q-1, then (yo_q, yv_q) pairs."""
    x = [1 + q for q in range(q_count)]
    yo = [1 + q_count + 2 * q for q in range(q_count)]
    yv = [2 + q_count + 2 * q for q in range(q_count)]
    return x, yo, yv


def superposed_mi(inst, table, q):
    """I(X_q; {Yo_q' + Yv_q'}_{q' != q}) from the exhaustive joint, each
    other Bob's pair replaced by its embedded sum value cell by cell."""
    x, yo, yv = axes_of(inst.q_count)
    others = [p for p in range(inst.q_count) if p != q]
    cells = {}
    for idx in itertools.product(*(range(n) for n in table.shape)):
        key = tuple(round(idx[yo[p]] + inst.symbol_values[p][idx[yv[p]]], 9)
                    for p in others)
        cells[idx[x[q]], key] = cells.get((idx[x[q]], key), 0.0) + table[idx]
    keys = sorted({key for _, key in cells})
    joint = np.zeros((table.shape[x[q]], len(keys)))
    for (xq, key), p in cells.items():
        joint[xq, keys.index(key)] += p
    return prob.mutual_information(JointPmf2(joint))


class TestConditionValues:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_against_exhaustive_enumeration(self, seed):
        # Q=3 puts two other Bobs into each exposure term's product
        for q_count, n_v in ((2, 2), (3, 2), (3, 3)):
            inst = random_instance(seed, q_count=q_count, n_v=n_v)
            asg = random_assignment(inst, seed + 100)
            vals = mirror.condition_values(inst, asg)
            table = full_joint(inst, asg)
            x, yo, yv = axes_of(q_count)
            for q in range(q_count):
                others = [p for p in range(q_count) if p != q]
                ov_others = tuple(a for p in others for a in (yo[p], yv[p]))
                v_others = tuple(yv[p] for p in others)
                assert vals[q, 0] == pytest.approx(mi_of(table, (x[q],), (yo[q],)), abs=1e-10)
                assert vals[q, 1] == pytest.approx(mi_of(table, (yo[q],), (0,)), abs=1e-10)
                assert vals[q, 2] == pytest.approx(mi_of(table, (x[q],), ov_others), abs=1e-10)
                assert vals[q, 4] == pytest.approx(mi_of(table, v_others, (yo[q],)), abs=1e-10)
                assert vals[q, 5] == pytest.approx(mi_of(table, v_others, (x[q],)), abs=1e-10)
                assert vals[q, 6] == pytest.approx(mi_of(table, (yv[q],), (yo[q],)), abs=1e-10)

    @pytest.mark.parametrize("name", ["reference", "q3_v3", "wide0", "wide1", "wide2"])
    def test_scratch_backed_start_matches_straight_call(self, monkeypatch, name):
        # a solve scores its start on its own scratch arrays and held
        # channels; the values are the straight call's, bit for bit
        inst = (mirror.reference_binary_instance() if name == "reference" else
                mirror.reference_binary_instance(q_count=3, virtual_alphabet=3)
                if name == "q3_v3" else wide_instance(int(name[-1])))
        asg = solvers.random_assignment(inst, np.random.default_rng(5))
        scratch, make = [], mirror._scratch
        monkeypatch.setattr(mirror, "_scratch", lambda *a: scratch.append(a[1]) or make(*a))
        want = mirror.condition_values(inst, asg)
        # without `work` every table is built on fresh arrays
        assert not scratch
        work, held = {}, {}
        got = mirror.condition_values(inst, asg, work, held)
        assert np.array_equal(got, want)
        assert held
        # an unstacked wide (iii) table fills a block: its table and logs go
        # to the scratch arrays, one pair per Bob; small tables stay straight
        assert scratch == (["table", "logs"] * 4 if name.startswith("wide") else [])
        assert np.array_equal(mirror.condition_values(inst, asg, work, held), want)

    def test_virtual_power_monte_carlo(self):
        inst = random_instance(7)
        asg = random_assignment(inst, 8)
        expect = mirror.condition_values(inst, asg)[0, 3]
        rng = np.random.default_rng(0)
        n = 200_000
        xs = rng.choice(2, size=n, p=inst.x_marginal(0).probs)
        us = rng.random(n)
        ys = (us > asg.virtual[0].rows[xs, 0]).astype(int)
        vals = inst.symbol_values[0][ys]
        assert expect == pytest.approx(float(np.mean(vals ** 2)), abs=5e-3)

    def test_identity_constant_endpoints(self):
        inst = mirror.reference_binary_instance()
        asg = TwinAssignment((IDENTITY, IDENTITY), (CONSTANT, CONSTANT))
        vals = mirror.condition_values(inst, asg)
        h_x = prob.entropy(inst.x_marginal(0))
        # identity original: utility = H(X); constant twin: no power, nulled
        assert vals[0, 0] == pytest.approx(h_x, abs=1e-12)
        assert vals[0, 3] == pytest.approx(0.0, abs=1e-12)
        assert vals[0, 4] == pytest.approx(0.0, abs=1e-12)
        assert vals[0, 6] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_chain_rule_decomposition(self, seed):
        # exposure (iii) of Bob 0 splits as I(X_0; Yo_1) + I(X_0; Yv_1 | Yo_1)
        inst = random_instance(seed)
        asg = random_assignment(inst, seed + 50)
        table = full_joint(inst, asg)
        x_yv_yo = JointPmf3(table.sum(axis=(0, 2, 3, 4)).transpose(0, 2, 1))
        i_xo = prob.mutual_information(x_yv_yo.margin_ac())
        i_xv_o = cmi_loops(x_yv_yo.table)
        assert i_xo + i_xv_o == pytest.approx(
            mirror.condition_values(inst, asg)[0, 2], abs=1e-10)

    def test_superposed_exposure_bounded_by_tuple(self):
        # the sum is a function of the tuple, so its MI can only be lower
        for q_count in (2, 3):
            for seed in range(5):
                inst = random_instance(seed, q_count=q_count)
                asg = random_assignment(inst, seed + 9)
                vals = mirror.condition_values(inst, asg)
                for q in range(q_count):
                    sup = mirror.superposed_exposure(inst, q, *assignment_rows(asg))
                    assert sup <= vals[q, 2] + 1e-10

    @pytest.mark.parametrize("q_count,n_v", [(2, 2), (3, 2), (3, 3)])
    def test_superposed_exposure_against_enumeration(self, q_count, n_v):
        inst = random_instance(q_count, q_count=q_count, n_v=n_v)
        asg = random_assignment(inst, 200 + n_v)
        table = full_joint(inst, asg)
        for q in range(q_count):
            assert mirror.superposed_exposure(inst, q, *assignment_rows(asg)) == pytest.approx(
                superposed_mi(inst, table, q), abs=1e-10)


KERNEL_INSTANCES = {
    "reference": mirror.reference_binary_instance,
    "q3_v3": lambda: mirror.reference_binary_instance(q_count=3, virtual_alphabet=3),
    "wide": lambda: wide_instance(0),
}


class TestTrialValues:
    """Each stacked candidate's values equal `condition_values` of the
    assignment with that candidate in the slot."""

    @pytest.mark.parametrize("name", sorted(KERNEL_INSTANCES))
    def test_matches_condition_values_per_trial(self, name):
        inst = KERNEL_INSTANCES[name]()
        rng = np.random.default_rng(5)
        asg = solvers.random_assignment(inst, rng)
        rows = ([m.rows for m in asg.original], [m.rows for m in asg.virtual])
        for q in range(inst.q_count):
            for kind, slots in (("original", asg.original), ("virtual", asg.virtual)):
                cands = [PrivacyMapping(rng.dirichlet(np.ones(slots[q].output_size),
                                                      size=slots[q].input_size))
                         for _ in range(3)]
                trial = [list(r) for r in rows]
                trial[kind == "virtual"][q] = np.stack([c.rows for c in cands])
                stacked = mirror._kernel(inst, *trial)
                assert stacked.shape == (3, inst.q_count, 7)
                for cand, got in zip(cands, stacked):
                    swapped = tuple(cand if p == q else m for p, m in enumerate(slots))
                    trial = (TwinAssignment(swapped, asg.virtual) if kind == "original"
                             else TwinAssignment(asg.original, swapped))
                    np.testing.assert_allclose(
                        got, mirror.condition_values(inst, trial), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(KERNEL_INSTANCES))
    def test_slot_call_equals_full_kernel(self, name):
        # recomputing only the entries that read the trial slot, the rest
        # taken from the current values, is exact for every slot
        inst = KERNEL_INSTANCES[name]()
        rng = np.random.default_rng(9)
        asg = solvers.random_assignment(inst, rng)
        rows = ([m.rows for m in asg.original], [m.rows for m in asg.virtual])
        base = mirror._kernel(inst, *rows)
        for q in range(inst.q_count):
            for kind in (0, 1):
                n_x, n_y = rows[kind][q].shape
                trial = [list(r) for r in rows]
                trial[kind][q] = rng.dirichlet(np.ones(n_y), size=(4, n_x))
                full = mirror._kernel(inst, *trial)
                assert np.array_equal(
                    mirror._kernel(inst, *trial, base=base, slot=(q, kind)), full)

    @pytest.mark.parametrize("name", sorted(KERNEL_INSTANCES))
    def test_held_values_never_go_stale(self, name):
        # a scripted walk of slot calls on one `held` dict, three sweeps over
        # every Bob's two slots: two steps in three accept a candidate, so
        # the rows change under the held values, and every third rejects all
        inst = KERNEL_INSTANCES[name]()
        rng = np.random.default_rng(11)
        asg = solvers.random_assignment(inst, rng)
        rows = ([m.rows for m in asg.original], [m.rows for m in asg.virtual])
        base = mirror._kernel(inst, *rows)
        held = {}
        for step in range(6 * inst.q_count):
            q, kind = step // 2 % inst.q_count, step % 2
            n_x, n_y = rows[kind][q].shape
            trial = [list(r) for r in rows]
            trial[kind][q] = cands = rng.dirichlet(np.ones(n_y), size=(3, n_x))
            got = mirror._kernel(inst, *trial, base=base, slot=(q, kind), held=held)
            assert np.array_equal(got, mirror._kernel(inst, *trial, base=base, slot=(q, kind)))
            if step % 3 != 2:
                j = step % 3
                rows[kind][q], base = cands[j], got[j]
        assert held
        # the walk's values are the rows' own, up to the last bits in which a
        # stacked call may differ from an unstacked one at Q >= 3
        np.testing.assert_allclose(base, mirror._kernel(inst, *rows), rtol=0, atol=1e-12)

    def test_exposure_size_guard_allocates_nothing(self):
        # Q=6 with |Yo| = |Yv| = 5: condition (iii) would need 25^5 product
        # columns per head symbol, about 49M cells, above the cap
        inst = random_instance(0, q_count=6, n_x=5, n_v=5)
        rng = np.random.default_rng(0)
        asg = TwinAssignment(
            tuple(PrivacyMapping(rng.dirichlet(np.ones(5), size=5)) for _ in range(6)),
            tuple(PrivacyMapping(rng.dirichlet(np.ones(5), size=5)) for _ in range(6)))
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="exceeds the cap"):
                mirror.condition_values(inst, asg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one stacked table at the cap would be 128 MiB
        assert peak < 2**20


def cross_mi_unblocked(p_s, head, tails, h_head=None):
    """`mirror._cross_mi` as one straight-line stack on fresh arrays: the
    reference the blocked evaluation must match bit for bit. The head's
    P(S)-weighted rows and a P(S) row fold with every tail but the last one
    with the most leading axes; `left @ last` is P(h, t) with P(t) as its
    last row block; each block's sum of x ln x is one row-dot."""
    n_s, n_h = p_s.size, head.shape[-1]
    rows = np.concatenate([np.swapaxes(head, -1, -2) * p_s,
                           np.broadcast_to(p_s, head.shape[:-2] + (1, n_s))], axis=-2)
    i_last = max(range(len(tails)), key=lambda j: (tails[j].ndim, j))
    left = rows
    for j, blk in enumerate(tails):
        if j != i_last:
            left = left[..., :, None, :] * np.swapaxes(blk, -1, -2)[..., None, :, :]
            left = left.reshape(left.shape[:-3] + (-1, n_s))
    table = left @ tails[i_last]
    logs = np.zeros_like(table)
    np.log(table, out=logs, where=table > 0)
    blocks = table.shape[:-2] + (n_h + 1,)
    ent = (table.reshape(blocks + (1, -1)) @ logs.reshape(blocks + (-1, 1)))[..., 0, 0]
    if h_head is None:
        p_h = rows[..., :-1, :].sum(axis=-1)[..., None, :]
        logs_h = np.log(np.where(p_h > 0, p_h, 1.0))
        h_head = -(p_h[..., None, :] @ logs_h[..., :, None])[..., 0, 0, 0]
    weights = np.array([[1.0]] * n_h + [[-1.0]]) / np.log(2.0)
    return (ent[..., None, :] @ weights)[..., 0, 0] + h_head / np.log(2.0)


def cross_mi_ratio(p_s, head, tails):
    """I(H; T) in bits of the explicit joint table, built by plain products
    of the tails and evaluated by the ratio form `prob._mi`."""
    acc = tails[0]
    for blk in tails[1:]:
        acc = acc[..., :, :, None] * blk[..., :, None, :]
        acc = acc.reshape(acc.shape[:-2] + (-1,))
    return prob._mi(np.swapaxes(p_s[:, None] * head, -1, -2) @ acc)


def cross_mi(p_s, head, tails, work=None, h_head=None):
    rows = mirror._head_rows(p_s, head)
    return mirror._cross_mi(rows, tails, work,
                            mirror._head_entropy(rows) if h_head is None else h_head)


def bob_channels(inst, q, rng, lead=(), n_out=None, zeros=False):
    """Bob q's per-S channels (block, Yo, Yv) for random rows with the given
    leading shape; with zeros=True every original row puts no mass on Yo=0."""
    n_x = inst.x_marginal(q).alphabet_size
    o = rng.dirichlet(np.ones(n_out or n_x), size=lead + (n_x,))
    if zeros:
        o[..., 0] = 0.0
        o /= o.sum(axis=-1, keepdims=True)
    v = rng.dirichlet(np.ones(inst.virtual_alphabet), size=lead + (n_x,))
    x_given_s = inst.x_given_s(q)
    return mirror._pair_channel(x_given_s, o, v), x_given_s @ o, x_given_s @ v


LEAD_PLACEMENTS = {"head": ((5,), (), ()), "tails": ((), (5,), ()), "both": ((5,), (), (5,)),
                   "neither": ((), (), ()), "2d": ((3, 1), (1, 4), (4,)),
                   "one_tail": ((), (5,)), "one_tail_head": ((5,), ()),
                   "one_tail_2d": ((3, 1), (4,))}


def lead_placement(where):
    """Condition (v) shapes on the q3_v3 instance: the head is Bob 0's Yo
    channel, the tails the other Bobs' Yv channels, with leading axes placed
    as LEAD_PLACEMENTS[where] says."""
    inst = mirror.reference_binary_instance(q_count=3, virtual_alphabet=3)
    rng = np.random.default_rng(3)
    leads = LEAD_PLACEMENTS[where]
    head = bob_channels(inst, 0, rng, leads[0])[1]
    tails = [bob_channels(inst, q, rng, lead)[2] for q, lead in zip((1, 2), leads[1:])]
    return inst.p_s, head, tails


def wide_exposure(k, seed=0, zeros=False):
    # condition (iii) of Bob 0 with Bob 1's original rows stacked k deep
    inst = wide_instance(0)
    rng = np.random.default_rng(seed)
    tails = [bob_channels(inst, q, rng, (k,) if q == 1 else (), zeros=zeros)[0]
             for q in (1, 2, 3)]
    return inst.p_s, inst.x_given_s(0), tails


class TestBlockedExposure:
    """`_cross_mi` over blocks of candidates, on scratch arrays, equals the
    straight-line stack exactly."""

    @pytest.mark.parametrize("k,block", [(1, 1), (2, 1), (7, 1), (7, 3)])
    def test_wide_stack_matches_unblocked(self, monkeypatch, k, block):
        # one wide table is 5 x 15,625 cells, so a block holds one table and
        # k candidates span one block, two or seven; blocks of three tables
        # leave a partial last block
        p_s, head, tails = wide_exposure(k)
        if block > 1:
            monkeypatch.setattr(mirror, "EXPOSURE_BLOCK_CELLS", block * 5 * 15625)
        work = {}
        got = cross_mi(p_s, head, tails, work)
        assert got.shape == (k,)
        assert np.array_equal(got, cross_mi_unblocked(p_s, head, tails))
        # a one-block stack runs straight through and leaves no scratch arrays
        assert bool(work) == (k > block)

    @pytest.mark.parametrize("where", list(LEAD_PLACEMENTS))
    def test_lead_placement(self, monkeypatch, where):
        # a block of one table
        p_s, head, tails = lead_placement(where)
        monkeypatch.setattr(mirror, "EXPOSURE_BLOCK_CELLS", 1)
        got = cross_mi(p_s, head, tails, {})
        want = cross_mi_unblocked(p_s, head, tails)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_zero_cells_take_the_masked_path(self, monkeypatch):
        inst = wide_instance(1)
        rng = np.random.default_rng(4)
        tails = [bob_channels(inst, q, rng, (3,) if q == 2 else (), zeros=True)[0]
                 for q in (1, 2, 3)]
        head = inst.x_given_s(0)
        mins, blocks = [], mirror._xlnx_blocks

        def spy(table, n_blocks, logs=None):
            mins.append(float(table.min()))
            return blocks(table, n_blocks, logs)

        monkeypatch.setattr(mirror, "_xlnx_blocks", spy)
        got = cross_mi(inst.p_s, head, tails, {}, inst.h_x[0])
        assert mins == [0.0] * 3
        assert np.array_equal(got, cross_mi_unblocked(inst.p_s, head, tails, inst.h_x[0]))

    def test_work_stays_within_three_blocks(self):
        # every stacked trial of a wide solve, one work dict for them all
        inst = wide_instance(2)
        rng = np.random.default_rng(7)
        asg = solvers.random_assignment(inst, rng)
        rows = ([m.rows for m in asg.original], [m.rows for m in asg.virtual])
        base = mirror._kernel(inst, *rows)
        work = {}
        for q in range(inst.q_count):
            for kind in (0, 1):
                trial = [list(r) for r in rows]
                n_x, n_y = rows[kind][q].shape
                trial[kind][q] = rng.dirichlet(np.ones(n_y), size=(6, n_x))
                assert np.array_equal(
                    mirror._kernel(inst, *trial, base=base, slot=(q, kind), work=work),
                    mirror._kernel(inst, *trial, base=base, slot=(q, kind)))
        one_table = 5 * 25 ** 3
        assert sorted(work) == ["logs", "table"]
        assert sum(buf.size for buf in work.values()) <= 3 * max(
            mirror.EXPOSURE_BLOCK_CELLS, one_table)

    def test_cap_counts_the_whole_stack(self):
        # each wide table is far below the cap, the stack of 215 is above it
        p_s, head, tails = wide_exposure(215)
        cells = 215 * 5 * 15625
        assert 5 * 15625 < mirror.EXPOSURE_CELL_CAP < cells
        work = {}
        with pytest.raises(ValidationError, match=f"a {cells}-cell table exceeds the cap"):
            cross_mi(p_s, head, tails, work)
        assert not work


def slot_stack(inst, q, kind, k, rng):
    """Start rows of every Bob and a trial with k candidates in Bob q's
    `kind` slot, and the start's (Q, 7) values."""
    rows = assignment_rows(solvers.random_assignment(inst, rng))
    trial = [list(r) for r in rows]
    n_x, n_y = rows[kind][q].shape
    trial[kind][q] = rng.dirichlet(np.ones(n_y), size=(k, n_x))
    return trial, mirror._kernel(inst, *rows)


class TestExposureBound:
    """The chain-rule bound that lets a lazy slot call skip the other Bobs'
    exposure tables of candidates the caller rejects anyway: they hold the
    bound until the caller resolves a candidate."""

    def test_cap_counts_the_whole_stack_before_pruning(self, monkeypatch):
        # a wide virtual slot: each other Bob's (iii) is a stack of 6 tables
        # of 5 x 15,625 cells; with the cap below it the call fails as it
        # does without pruning, though every candidate would be pruned
        inst = wide_instance(0)
        trial, base = slot_stack(inst, 1, 1, 6, np.random.default_rng(1))
        monkeypatch.setattr(mirror, "EXPOSURE_CELL_CAP", 6 * 5 * 15625 - 1)
        scratch = []
        monkeypatch.setattr(mirror, "_scratch", lambda *a: scratch.append(a))
        errors = []
        for lazy in (False, True):
            work = {}
            with pytest.raises(ValidationError) as err:
                mirror._kernel(inst, *trial, base=base, slot=(1, 1), work=work, held={},
                               lazy=lazy)
            errors.append(str(err.value))
            assert not work
        assert errors[0] == errors[1] == (f"exposure: a {6 * 5 * 15625}-cell table "
                                          f"exceeds the cap of {6 * 5 * 15625 - 1} cells")
        assert not scratch

    def test_rejecting_every_candidate_builds_no_exposure_table(self):
        inst = wide_instance(0)
        trial, base = slot_stack(inst, 2, 1, 6, np.random.default_rng(2))
        work = {}
        # the caller rejects every candidate, so it resolves none
        got, resolve = mirror._kernel(inst, *trial, base=base, slot=(2, 1), work=work, held={},
                                      lazy=True)
        exact = mirror._kernel(inst, *trial, base=base, slot=(2, 1))
        assert resolve is not None
        assert not work
        others = [0, 1, 3]
        assert np.all(got[:, others, 2] < exact[:, others, 2])
        got[:, others, 2] = exact[:, others, 2]
        assert np.array_equal(got, exact)

    def test_walk_resolves_only_the_candidates_it_reaches(self, monkeypatch):
        # A walk over a wide virtual slot of Bob 1 with merit (iii) summed
        # over the other Bobs plus a fixed offset per candidate. Candidate 0
        # passes and lowers the threshold to its merit; candidates 1 and 3-5
        # would pass at the old threshold but fail at the lowered one on
        # bounds alone; candidate 2 passes again and lowers it further.
        inst = wide_instance(0)
        trial, base = slot_stack(inst, 1, 1, 6, np.random.default_rng(1))
        others = [0, 2, 3]
        exact = mirror._kernel(inst, *trial, base=base, slot=(1, 1))
        lowered, _ = mirror._kernel(inst, *trial, base=base, slot=(1, 1), held={}, lazy=True)
        exposure, bound = exact[:, others, 2].sum(-1), lowered[0, others, 2].sum()
        offsets = np.array([0.0, exposure[0] - bound + 1.0, -10.0, 1e3, 1e3, 1e3])
        start = 1e9
        assert np.all(exposure + offsets < start)   # all pass at the old threshold

        def merits(vals):
            return vals[..., others, 2].sum(-1) + offsets

        setups, kept, stack = [], [], mirror._exposure_stack

        def spy(rows, tails, plan, h_head, work):
            setups.append(rows)
            bits = stack(rows, tails, plan, h_head, work)
            return lambda keep=None: kept.append(keep.tolist()) or bits(keep)

        monkeypatch.setattr(mirror, "_exposure_stack", spy)
        got, resolve = mirror._kernel(inst, *trial, base=base, slot=(1, 1), work={}, held={},
                                      lazy=True)
        # the walk of `solvers.greedy_solve`: a candidate that passes at its
        # bounds is resolved and tested again at its exact values
        threshold = start
        for j, merit in enumerate(merits(got).tolist()):
            if not merit >= threshold:
                resolve(j)
                merit = float(merits(got)[j])
            if merit < threshold:
                threshold = merit
        # one set-up per deferred Bob and call, and one table per deferred
        # Bob for each candidate the walk reaches
        assert [next(q for q in others if r is inst._x_rows[q]) for r in setups] == others
        assert kept == [[0]] * 3 + [[2]] * 3
        assert np.array_equal(got[[0, 2]], exact[[0, 2]])
        skipped = [1, 3, 4, 5]
        assert np.all(got[skipped][:, others, 2] == lowered[skipped][:, others, 2])
        assert np.all(got[skipped][:, others, 2] < exact[skipped][:, others, 2])
        got[:, others, 2] = exact[:, others, 2]
        assert np.array_equal(got, exact)

    @pytest.mark.parametrize("relaxed,eager,walk", [(True, 444, 339), (False, 402, 273)],
                             ids=["True-444", "False-402"])
    def test_walk_builds_fewer_tables_than_the_eager_kernel(self, monkeypatch, relaxed, eager,
                                                             walk):
        # `eager` is the count of candidate (iii) tables of these solves when
        # every candidate that passed the accept test before the walk got
        # them; the walk-ordered bound builds fewer, on the same search path,
        # and exactly `walk`, the count of the kernel's own walk before the
        # solver took the walk over
        built, stack = [0], mirror._exposure_stack

        def spy(rows, tails, plan, h_head, work):
            bits = stack(rows, tails, plan, h_head, work)
            if all(t.ndim == 2 for t in tails):
                return bits
            return lambda keep=None: built.__setitem__(0, built[0] + keep.size) or bits(keep)

        monkeypatch.setattr(mirror, "_exposure_stack", spy)
        for seed in range(6, 16):
            solvers.greedy_solve(wide_instance(seed % 3), UncertaintyModel(0.5), relaxed, 1, seed)
        assert 0 < built[0] < eager
        assert built[0] == walk

    @settings(max_examples=30, deadline=None)
    @given(q_count=st.integers(3, 4), n_s=st.integers(2, 5), n_x=st.integers(2, 5),
           n_v=st.integers(2, 5), kind=st.integers(0, 1), k=st.integers(2, 5),
           seed=st.integers(0, 2**16), uninformed=st.lists(st.booleans(), min_size=5,
                                                           max_size=5),
           zero_cells=st.booleans())
    def test_bound_is_below_the_computed_value(self, q_count, n_s, n_x, n_v, kind, k, seed,
                                               uninformed, zero_cells):
        # Q=4 with alphabets of 5 is the wide instance's size; every stack
        # goes through the blocked path
        inst = random_instance(seed, q_count=q_count, n_s=n_s, n_x=n_x, n_v=n_v)
        rng = np.random.default_rng(seed)
        c = int(rng.integers(q_count))
        rows = [[rng.dirichlet(np.ones(n), size=n_x) for _ in range(q_count)]
                for n in (n_x, n_v)]
        # uninformed candidates have equal rows; uninformed[0] also gives
        # Bob c's other slot equal rows, and then an uninformed candidate's
        # pair channel is the same for every s
        if uninformed[0]:
            rows[1 - kind][c][:] = rows[1 - kind][c][0]
        n_y = rows[kind][c].shape[1]
        cands = rng.dirichlet(np.ones(n_y), size=(k, n_x))
        for j in range(k):
            if uninformed[j]:
                cands[j] = cands[j, 0]
        if zero_cells:
            cands[::2, :, 0] = 0.0
            cands /= cands.sum(axis=-1, keepdims=True)
        trial = [list(r) for r in rows]
        trial[kind][c] = cands
        base = mirror._kernel(inst, *rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mirror, "EXPOSURE_BLOCK_CELLS", 1)
            exact = mirror._kernel(inst, *trial, base=base, slot=(c, kind))
            held = {}
            kept, resolve = mirror._kernel(inst, *trial, base=base, slot=(c, kind), held=held,
                                           lazy=True)
            for j in range(k):
                resolve(j)
            pruned, _ = mirror._kernel(inst, *trial, base=base, slot=(c, kind), held=held,
                                       lazy=True)
        assert np.array_equal(kept, exact)
        others = [q for q in range(q_count) if q != c]
        bound = pruned[:, others, 2] + 1e-6
        # the computed value may fall below the computed bound only by
        # rounding, a small fraction of the 1e-6 margin
        assert np.all(exact[:, others, 2] >= bound - 1e-9)
        both = np.array(uninformed[:k]) & uninformed[0]
        np.testing.assert_allclose(exact[both][:, others, 2], bound[both], rtol=0, atol=1e-12)
        pruned[:, others, 2] = exact[:, others, 2]
        assert np.array_equal(pruned, exact)


class TestFactoredExposure:
    """The factored evaluation of `_cross_mi` against the ratio form of the
    same MI on the explicit joint table."""

    @pytest.mark.parametrize("case", ["wide_stack", "wide_zero_cells", "q2", "q2_stacked_head",
                                      *(f"lead_{w}" for w in LEAD_PLACEMENTS)])
    def test_matches_ratio_form(self, monkeypatch, case):
        if case.startswith("wide"):
            # blocked: each of the 4 candidates is a table of its own
            p_s, head, tails = wide_exposure(4, seed=5, zeros=case == "wide_zero_cells")
        elif case.startswith("q2"):
            inst = mirror.reference_binary_instance()
            rng = np.random.default_rng(6)
            head = (inst.x_given_s(0) if case == "q2"
                    else bob_channels(inst, 0, rng, (8,))[1])
            p_s, tails = inst.p_s, [bob_channels(inst, 1, rng, (8,))[0]]
        else:
            p_s, head, tails = lead_placement(case[len("lead_"):])
            monkeypatch.setattr(mirror, "EXPOSURE_BLOCK_CELLS", 1)
        got = cross_mi(p_s, head, tails, {})
        want = cross_mi_ratio(p_s, head, tails)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_instance_entropy_matches_computed_head(self):
        # the hoisted H(X_q) gives the value the head's own P(h) gives
        p_s, head, tails = wide_exposure(3, seed=8)
        inst = wide_instance(0)
        np.testing.assert_allclose(cross_mi(p_s, head, tails, {}, inst.h_x[0]),
                                   cross_mi(p_s, head, tails, {}), rtol=0, atol=1e-14)

    def test_warm_blocked_call_allocates_no_table(self):
        p_s, head, tails = wide_exposure(6)
        inst = wide_instance(0)
        rows, work = inst._x_rows[0], {}
        want = mirror._cross_mi(rows, tails, work, inst.h_x[0])
        assert sorted(work) == ["logs", "table"]
        tracemalloc.start()
        try:
            got = mirror._cross_mi(rows, tails, work, inst.h_x[0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        # one wide table is (|X| + 1) x 15,625 cells of 8 bytes
        assert peak < 5 * 15625 * 8 / 2


class TestUncertainty:
    def test_zero_magnitude_is_identity(self):
        rng = np.random.default_rng(0)
        post = rng.dirichlet(np.ones(3), size=4)
        out = mirror.perturb_posterior(post, 0.0, rng)
        np.testing.assert_allclose(out, post, atol=1e-15)

    @given(st.integers(0, 10**6), st.floats(0.05, 0.9))
    @settings(max_examples=50)
    def test_rows_stay_normalized(self, seed, mag):
        rng = np.random.default_rng(seed)
        post = rng.dirichlet(np.ones(3), size=4)
        out = mirror.perturb_posterior(post, mag, rng)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out >= 0)

    def test_sample_leakage_zero_magnitude_matches_exact(self):
        inst = random_instance(1)
        asg = random_assignment(inst, 2)
        rng = np.random.default_rng(0)
        draw = mirror.sample_leakage(inst, 0, asg.original[0].rows, 0.0, rng)
        exact = mirror.condition_values(inst, asg)[0, 1]
        assert draw == pytest.approx(exact, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValidationError):
            UncertaintyModel(magnitude=-0.1)

    @pytest.mark.parametrize("mag", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("name", ["reference", "q3_v3"])
    def test_batched_draws_match_single_draws(self, name, mag):
        if name == "reference":
            inst = mirror.reference_binary_instance()
        else:
            inst = random_instance(5, q_count=3, n_s=3, n_x=3, n_v=3)
        asg = random_assignment(inst, 6)
        q = inst.q_count - 1
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        o = asg.original[q].rows
        batched = mirror.sample_leakage(inst, q, o, mag, rng_a, n=64)
        single = np.concatenate([mirror.sample_leakage(inst, q, o, mag, rng_b)
                                 for _ in range(64)])
        assert batched.shape == (64,)
        assert np.array_equal(batched, single)
        assert rng_a.uniform() == rng_b.uniform()

    def test_perturb_stack_matches_slabs(self):
        post = np.random.default_rng(1).dirichlet(np.ones(3), size=(5, 4))
        rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
        stacked = mirror.perturb_posterior(post, 0.7, rng_a)
        slabs = np.stack([mirror.perturb_posterior(p, 0.7, rng_b) for p in post])
        assert np.array_equal(stacked, slabs)

    @pytest.mark.parametrize("mag,n", [(1.5, 4), (-0.1, 4), (np.nan, 4), (0.5, 0)])
    def test_sample_leakage_rejects_bad_input(self, mag, n):
        inst = mirror.reference_binary_instance()
        asg = random_assignment(inst, 2)
        with pytest.raises(ValidationError):
            mirror.sample_leakage(inst, 0, asg.original[0].rows, mag,
                                  np.random.default_rng(0), n)


class TestRelaxationChain:
    def test_epsilon_floor_requires_positive(self):
        inst = mirror.reference_binary_instance()
        ccp = mirror.chance_relax(mirror.assemble_p1(inst), UncertaintyModel(0.5))
        with pytest.raises(ValidationError):
            mirror.epsilon_floor(ccp, (0.0, 0.01, 0.01))

    def test_floored_mode_flips_null_condition(self):
        inst = mirror.reference_binary_instance()
        strict = mirror.chance_relax(mirror.assemble_p1(inst), UncertaintyModel(0.0))
        floored = mirror.epsilon_floor(strict, (0.01, 0.01, 0.01))
        vals = np.zeros((2, 7))
        vals[:, 6] = 0.05  # clearly non-null twin correlation
        vals[:, 0] = 1.0
        assert floored.constraint_holds(vals, 0, 6)
        assert not strict.constraint_holds(vals, 0, 6)

    def test_chance_relax_keeps_the_problem(self):
        # only the leakage feels the uncertainty, and sample_leakage
        # estimates its chance; the form's bounds are P1's
        p1 = mirror.assemble_p1(mirror.reference_binary_instance())
        assert mirror.chance_relax(p1, UncertaintyModel(0.5)) is p1

    def test_floor_soundness_conditions_v_vi(self):
        # eps-floored pass implies strict pass for (v) and (vi): the floor
        # only tightens. Checked over a coarse virtual-mapping grid.
        inst = mirror.reference_binary_instance()
        ccp = mirror.chance_relax(mirror.assemble_p1(inst), UncertaintyModel(0.0))
        floored = mirror.epsilon_floor(ccp, (0.01, 0.01, 0.01))
        ticks = np.linspace(0, 1, 9)
        for a in ticks:
            for b in ticks:
                v = PrivacyMapping(np.array([[a, 1 - a], [b, 1 - b]]))
                asg = TwinAssignment((IDENTITY, IDENTITY), (v, v))
                vals = mirror.condition_values(inst, asg)
                for q in range(2):
                    for i in (4, 5):
                        if floored.constraint_holds(vals, q, i):
                            assert ccp.constraint_holds(vals, q, i)

    def test_floors_keep_every_other_bound(self):
        # a lowered utility floor and every bound outside (v)-(vii) survive
        # the floors byte for byte, and P1 is left as it was
        p1 = mirror.assemble_p1(random_instance(3, q_count=3), 0.05)
        before = p1.lo.tobytes() + p1.hi.tobytes()
        floored = mirror.epsilon_floor(p1, (0.01, 0.02, 0.03))
        assert np.all(floored.lo[:, 0] == 0.05)
        for side in ("lo", "hi"):
            assert getattr(floored, side)[:, :4].tobytes() == getattr(p1, side)[:, :4].tobytes()
        assert floored.lo[:, 4:7].tolist() == [[0.01, 0.02, 0.03]] * 3
        assert p1.lo.tobytes() + p1.hi.tobytes() == before

    @pytest.mark.parametrize("name", ["reference", "q3"])
    def test_tables_match_hand_written_bounds(self, name):
        tol, inf = mirror.NULL_TOL, np.inf
        if name == "reference":
            inst = mirror.reference_binary_instance()
            g0, g1 = [0.3, 0.3], [1.0, 1.0]
        else:
            g0, g1 = [0.3, 0.25, 0.2], [1.0, 2.0, 0.5]
            inst = MirrorGameInstance(joints=mirror.reference_binary_instance(3).joints,
                                      gamma0=g0, gamma1=g1, gamma2=0.1, gamma3=1.5)
        p1 = mirror.assemble_p1(inst)
        floored = mirror.epsilon_floor(p1, (0.01, 0.02, 0.03))
        assert p1.lo.tolist() == [[0.1, -inf, -inf, -inf, tol, tol, -inf]] * len(g0)
        assert p1.hi.tolist() == [[inf, a, 1.5, b, inf, inf, tol] for a, b in zip(g0, g1)]
        assert floored.lo.tolist() == [[0.1, -inf, -inf, -inf, 0.01, 0.02, 0.03]] * len(g0)
        assert floored.hi.tolist() == [[inf, a, 1.5, b, inf, inf, inf]
                                       for a, b in zip(g0, g1)]

    @pytest.mark.parametrize("relaxed,calls", [(True, 1), (False, 0)])
    def test_greedy_floors_only_a_relaxed_solve(self, monkeypatch, relaxed, calls):
        floor, seen = mirror.epsilon_floor, []
        monkeypatch.setattr(mirror, "epsilon_floor",
                            lambda p, eps: seen.append(eps) or floor(p, eps))
        solvers.greedy_solve(mirror.reference_binary_instance(), UncertaintyModel(0.5),
                             relaxed=relaxed, budget=2, seed=0, eps=(0.01, 0.02, 0.03))
        assert seen == [(0.01, 0.02, 0.03)] * calls


CS_INST = MirrorGameInstance(
    joints=mirror.reference_binary_instance().joints, gamma0=[0.3, 0.25],
    gamma1=[1.0, 2.0], gamma2=0.1, gamma3=1.5)
CS_EPS = (0.01, 0.02, 0.03)
CS_GAMMA2_EFF = 0.07   # a utility floor below the instance's, as the relaxed solver uses
CS_ZERO_INST = MirrorGameInstance(
    joints=mirror.reference_binary_instance().joints, gamma0=0.0, gamma1=0.0, gamma2=0.0,
    gamma3=0.0)


def constraint_edges():
    """Every threshold the seven comparisons meet (NULL_TOL, the eps floors,
    each gamma bound and the bound +-NULL_TOL) and one ulp either side."""
    tol = mirror.NULL_TOL
    gammas = [CS_INST.gamma2, CS_GAMMA2_EFF, CS_INST.gamma3, *CS_INST.gamma0, *CS_INST.gamma1]
    bases = [0.0, tol, *CS_EPS] + [g + d for g in gammas for d in (-tol, 0.0, tol)]
    return [float(np.nextafter(b, to)) for b in bases for to in (-np.inf, b, np.inf)]


def chain_bounds(inst, gamma2, eps):
    """The bounds a solve builds: P1 at the utility floor gamma2 (the
    instance's when None), floored when eps is given."""
    cs = mirror.assemble_p1(inst, gamma2)
    return cs if eps is None else mirror.epsilon_floor(cs, eps)


class TestConstraintSet:
    """The one bounds table against the seven comparisons and the merit's
    violation formula, both written out literally."""

    # (eps floors, the reading of (vii)): no floors and (vii) at most
    # NULL_TOL, or the floors and (vii) at least eps3
    MODES = ((None, "strict"), (CS_EPS, "floored"))

    @staticmethod
    def literal_passes(inst, vals, g2, eps, reading):
        tol = mirror.NULL_TOL
        e1, e2, e3 = (tol, tol, None) if eps is None else eps
        passed = np.zeros_like(vals, dtype=bool)
        passed[:, 0] = vals[:, 0] >= g2 - tol
        passed[:, 1] = vals[:, 1] <= inst.gamma0 + tol
        passed[:, 2] = vals[:, 2] <= inst.gamma3 + tol
        passed[:, 3] = vals[:, 3] <= inst.gamma1 + tol
        passed[:, 4] = vals[:, 4] > e1
        passed[:, 5] = vals[:, 5] > e2
        if reading == "floored":
            passed[:, 6] = vals[:, 6] >= e3
        else:
            passed[:, 6] = vals[:, 6] <= tol
        return passed

    @staticmethod
    def literal_violations(inst, vals, g2, eps, reading):
        tol = mirror.NULL_TOL
        e1, e2, e3 = (tol, tol, None) if eps is None else eps
        v = np.zeros_like(vals)
        v[:, 0] = np.maximum(0.0, g2 - vals[:, 0])
        v[:, 1] = np.maximum(0.0, vals[:, 1] - inst.gamma0)
        v[:, 2] = np.maximum(0.0, vals[:, 2] - inst.gamma3)
        v[:, 3] = np.maximum(0.0, vals[:, 3] - inst.gamma1)
        v[:, 4] = np.maximum(0.0, e1 - vals[:, 4])
        v[:, 5] = np.maximum(0.0, e2 - vals[:, 5])
        if reading == "floored":
            v[:, 6] = np.maximum(0.0, e3 - vals[:, 6])
        else:
            v[:, 6] = np.maximum(0.0, vals[:, 6] - tol)
        return v

    def check(self, vals, eps, reading, gamma2):
        inst = CS_INST
        g2 = inst.gamma2 if gamma2 is None else gamma2
        cs = chain_bounds(inst, gamma2, eps)
        expected = self.literal_passes(inst, vals, g2, eps, reading)
        np.testing.assert_array_equal(cs.holds(vals), expected)
        for q in range(2):
            for i in range(7):
                assert bool(cs.holds(vals[q, i], q, i)) == expected[q, i]
        v = self.literal_violations(inst, vals, g2, eps, reading)
        assert np.array_equal(cs.violations(vals), v)
        assert cs.violations(vals).sum() == v.sum()

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("gamma2", (None, CS_GAMMA2_EFF))
    def test_every_edge_in_every_cell(self, mode, gamma2):
        for edge in constraint_edges():
            self.check(np.full((2, 7), edge), *mode, gamma2)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(constraint_edges()), st.floats(0.0, 3.0)),
                    min_size=14, max_size=14),
           st.sampled_from(MODES), st.sampled_from((None, CS_GAMMA2_EFF)))
    def test_mixed_values(self, cells, mode, gamma2):
        self.check(np.array(cells).reshape(2, 7), *mode, gamma2)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(constraint_edges()), st.floats(0.0, 3.0)),
                    min_size=14, max_size=14),
           st.sampled_from(MODES))
    def test_relaxation_chain_carries_the_set(self, cells, mode):
        eps, reading = mode
        vals = np.array(cells).reshape(2, 7)
        ccp = mirror.chance_relax(mirror.assemble_p1(CS_INST), UncertaintyModel(0.0))
        if eps is not None:
            ccp = mirror.epsilon_floor(ccp, eps)
        expected = self.literal_passes(CS_INST, vals, CS_INST.gamma2, eps, reading)
        for q in range(2):
            for i in range(7):
                assert ccp.constraint_holds(vals, q, i) == expected[q, i]


    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("gamma2", (None, CS_GAMMA2_EFF, 0.0))
    def test_violations_equal_the_two_sided_sum_bitwise(self, mode, gamma2):
        # violations takes the larger side once; the merit was written as the
        # sum of both sides, and the two agree bit for bit, sign of zero and
        # NaN included, because every entry has exactly one finite bound.
        # Zero thresholds put -0.0 values on a +0.0 bound too.
        for inst in (CS_INST, CS_ZERO_INST):
            cs = chain_bounds(inst, gamma2, mode[0])
            cells = constraint_edges() + [0.0, -0.0, 5e-324, -5e-324, 2.5, -1.0, np.nan,
                                          np.inf, -np.inf]
            bounds = np.where(np.isfinite(cs.lo), cs.lo, cs.hi)
            vals = np.concatenate([np.broadcast_to(np.array(cells)[:, None, None],
                                                   (len(cells), 2, 7)), bounds[None]])
            with np.errstate(invalid="ignore"):
                two_sided = np.maximum(0.0, cs.lo - vals) + np.maximum(0.0, vals - cs.hi)
                got = cs.violations(vals)
            assert got.tobytes() == two_sided.tobytes()
            # on the bound, a zero bound met by either sign of zero
            for v in (bounds, np.where(bounds == 0.0, -0.0, bounds)):
                assert cs.violations(v).tobytes() == np.zeros((2, 7)).tobytes()


class TestBoltzmann:
    def test_clip_at_zero_is_maximum_bitwise(self):
        # boltzmann_original clips its refreshed rows with np.maximum(rows, 0.0),
        # which np.clip(rows, 0.0, None) calls too, on every edge value
        rows = np.array([[0.0, -0.0, 5e-324, -5e-324, 0.3],
                         [np.nan, np.inf, -np.inf, -2.0, 1.0]])
        assert np.maximum(rows, 0.0).tobytes() == np.clip(rows, 0.0, None).tobytes()

    def test_omega_zero_gives_prior(self):
        inst = random_instance(5)
        p_x, s_given_x = inst.p_x[0], inst._s_given_x[0]
        post = mirror.boltzmann_posterior(p_x, s_given_x, s_given_x, 0.0)
        np.testing.assert_allclose(post, np.tile(p_x, (2, 1)), atol=1e-12)

    def test_matches_direct_formula(self):
        inst = random_instance(6)
        p_x, s_given_x = inst.p_x[0], inst._s_given_x[0]
        rng = np.random.default_rng(1)
        s_given_y = rng.dirichlet(np.ones(2), size=3)
        omega = 2.5
        post = mirror.boltzmann_posterior(p_x, s_given_x, s_given_y, omega)
        for y in range(3):
            w = np.array([p_x[x] * np.exp(-omega * kl_or_inf(s_given_y[y], s_given_x[x]))
                          for x in range(2)])
            np.testing.assert_allclose(post[y], w / w.sum(), atol=1e-12)

    def test_underflow_returns_none(self):
        p_x = np.array([0.5, 0.5])
        s_given_x = np.array([[0.9, 0.1], [0.8, 0.2]])
        s_given_y = np.array([[0.1, 0.9]])
        assert mirror.boltzmann_posterior(p_x, s_given_x, s_given_y, 1e7) is None


class TestBottleneck:
    def test_identity_reaches_entropy(self):
        inst = mirror.reference_binary_instance()
        floor = mirror.bottleneck_pair_search(inst, IDENTITY.rows)
        assert floor == pytest.approx(prob.entropy(inst.x_marginal(0)), abs=1e-9)

    def test_constant_mapping_gives_zero(self):
        inst = mirror.reference_binary_instance()
        assert mirror.bottleneck_pair_search(inst, CONSTANT.rows) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_floor_is_largest_grid_point_below_utility(self, seed):
        inst = random_instance(seed, n_x=3)
        o = np.random.default_rng(seed).dirichlet(np.ones(3), size=3)
        utility = prob.mutual_information(JointPmf2(inst.p_x[0][:, None] * o))
        step = prob.entropy(inst.x_marginal(0)) / 63
        floor = mirror.bottleneck_pair_search(inst, o)
        assert floor <= utility + mirror.NULL_TOL
        assert floor + step > utility + mirror.NULL_TOL
        assert floor / step == pytest.approx(round(floor / step), abs=1e-9)


class TestInstance:
    def test_source_marginal_mismatch_rejected(self):
        j1 = JointPmf2(np.array([[0.4, 0.1], [0.2, 0.3]]))
        j2 = JointPmf2(np.array([[0.1, 0.1], [0.4, 0.4]]))
        with pytest.raises(ValidationError):
            MirrorGameInstance(joints=(j1, j2), gamma0=0.5, gamma1=1.0,
                               gamma2=0.1, gamma3=1.0)

    def test_single_bob_rejected(self):
        j1 = JointPmf2(np.array([[0.4, 0.1], [0.2, 0.3]]))
        with pytest.raises(ValidationError):
            MirrorGameInstance(joints=(j1,), gamma0=0.5, gamma1=1.0,
                               gamma2=0.1, gamma3=1.0)

    def test_json_round_trip(self):
        # `to_jsonable` writes the CLI's `instance` format, read by `cli._read_instance`
        inst = mirror.reference_binary_instance(q_count=3, virtual_alphabet=3)
        back = cli._read_instance("instance", inst.to_jsonable())
        for a, b in zip(back.joints, inst.joints, strict=True):
            np.testing.assert_array_equal(a.table, b.table)
        for name in ("gamma0", "gamma1", "theta_levels", "symbol_values"):
            np.testing.assert_array_equal(getattr(back, name), getattr(inst, name))
        assert (back.gamma2, back.gamma3, back.virtual_alphabet) == \
            (inst.gamma2, inst.gamma3, inst.virtual_alphabet)
