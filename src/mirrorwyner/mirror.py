"""Virtual-twin mirror game: feasibility conditions, the base optimization
problem, and its relaxation chain (chance constraints, epsilon floors,
Boltzmann posteriors, bottleneck pair search).

Multi-Bob coupling model: the per-Bob non-private sources X_q are
conditionally independent given the shared private source S, and all
released messages are generated from their own X_q through row-stochastic
mappings. Every information measure below is computed exactly from that
factorization. So the exposures (iii), (v) and (vi) and the superposed
exposure are one quantity, `_cross_mi`: the MI between one Bob's variable
and the product of the other Bobs' per-S channels.

Inputs are validated once, by the `PrivacyMapping`, `JointPmf2` and
`MirrorGameInstance` constructors; the kernels below work on raw rows. Each
relaxation-chain step has one implementation, which the solver and the
sweeps call by its public name. The chain is the one source of the bounds:
`assemble_p1` and `epsilon_floor` build every `ConstraintSet`.

On the hot path (the kernel and its helpers, `prob._mi`, the Boltzmann
refresh, the greedy solver's candidate draws and merit) sums and minima
call `np.add.reduce` and `np.minimum.reduce` directly, never `ndarray.sum`,
`ndarray.min` or `np.sum`. Those reach the same ufunc reduction with the
same arguments, so the bits are the same, but through numpy's Python
wrappers, which cost more than the reduction itself on a 2x2 table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import prob
from .errors import ValidationError
from .prob import JointPmf2, Pmf, PrivacyMapping

# conditions (v)-(vii) use this as "numerically zero" without eps floors
NULL_TOL = 1e-9


@dataclass(frozen=True)
class UncertaintyModel:
    """Multiplicative perturbation of the posterior P(S | Yo_q).

    Each posterior entry is scaled by (1 + magnitude * u), u ~ Uniform(-1, 1)
    i.i.d., then renormalized per observed symbol.
    """

    magnitude: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.magnitude <= 1.0:
            raise ValidationError("UncertaintyModel: magnitude must be in [0, 1]")


@dataclass(frozen=True)
class MirrorGameInstance:
    """The multi-Bob problem data: per-Bob joints P(S, X_q) and thresholds."""

    joints: tuple          # per-Bob JointPmf2 over (S, X_q)
    gamma0: np.ndarray     # per-Bob leakage ceiling, bits
    gamma1: np.ndarray     # per-Bob virtual power ceiling, squared symbol units
    gamma2: float          # utility floor, bits
    gamma3: float          # exposure ceiling, bits
    theta_levels: np.ndarray = field(default=None)  # chance targets, 7 entries in [0,1]
    symbol_values: tuple = None  # per-Bob embedding of the virtual alphabet
    virtual_alphabet: int = 2
    # Read-only arrays derived from the joints once, for the kernels: P(S),
    # and per Bob P(X_q), H(X_q) in nats, P(X_q | S), P(S | X_q) and the
    # exposure head rows [P(S, X_q), P(S)] of `_head_rows`, so the (iii) and
    # (vi) terms, whose head is X_q, build no head.
    p_s: np.ndarray = field(init=False, repr=False, compare=False)
    p_x: tuple = field(init=False, repr=False, compare=False)
    h_x: tuple = field(init=False, repr=False, compare=False)
    _x_given_s: tuple = field(init=False, repr=False, compare=False)
    _x_rows: tuple = field(init=False, repr=False, compare=False)
    _s_given_x: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        joints = tuple(self.joints)
        object.__setattr__(self, "joints", joints)
        if len(joints) < 2:
            raise ValidationError("MirrorGameInstance: need at least 2 Bobs")
        s_ref = joints[0].marginal_a().probs
        for j in joints[1:]:
            if j.table.shape[0] != s_ref.size:
                raise ValidationError("MirrorGameInstance: S alphabet mismatch across Bobs")
            if np.max(np.abs(j.marginal_a().probs - s_ref)) > 1e-9:
                raise ValidationError("MirrorGameInstance: S marginal differs across Bobs")
        for name in ("gamma0", "gamma1"):
            g = np.asarray(getattr(self, name), dtype=float)
            if g.shape not in ((), (1,), (len(joints),)):
                raise ValidationError(f"MirrorGameInstance: {name} needs 1 or q_count values")
            object.__setattr__(self, name, np.broadcast_to(g, (len(joints),)).copy())
        if np.any(self.gamma0 < 0) or np.any(self.gamma1 < 0) or self.gamma2 < 0 or self.gamma3 < 0:
            raise ValidationError("MirrorGameInstance: thresholds must be non-negative")
        theta = self.theta_levels
        theta = np.full(7, 0.9) if theta is None else np.asarray(theta, dtype=float)
        if theta.shape != (7,) or np.any(theta < 0) or np.any(theta > 1):
            raise ValidationError("MirrorGameInstance: theta_levels must be 7 reals in [0,1]")
        object.__setattr__(self, "theta_levels", theta)
        if self.virtual_alphabet < 2:
            raise ValidationError("MirrorGameInstance: virtual alphabet must have >= 2 symbols")
        if self.symbol_values is None:
            vals = tuple(np.arange(self.virtual_alphabet, dtype=float)
                         for _ in joints)
        else:
            vals = tuple(np.asarray(v, dtype=float) for v in self.symbol_values)
            if len(vals) != len(joints) or any(v.size != self.virtual_alphabet for v in vals):
                raise ValidationError("MirrorGameInstance: symbol_values need one row of "
                                      "virtual_alphabet values per Bob")
        object.__setattr__(self, "symbol_values", vals)
        object.__setattr__(self, "p_s", _read_only(joints[0].table.sum(axis=1)))
        object.__setattr__(self, "p_x", tuple(_read_only(j.table.sum(axis=0)) for j in joints))
        object.__setattr__(self, "h_x", tuple(
            float(-p @ np.log(np.where(p > 0, p, 1.0))) for p in self.p_x))
        object.__setattr__(self, "_x_given_s",
                           tuple(_read_only(_conditional(j.table)) for j in joints))
        object.__setattr__(self, "_s_given_x",
                           tuple(_read_only(_conditional(j.table.T)) for j in joints))
        object.__setattr__(self, "_x_rows", tuple(_read_only(_head_rows(self.p_s, x))
                                                  for x in self._x_given_s))

    @property
    def q_count(self) -> int:
        return len(self.joints)

    @property
    def source(self) -> Pmf:
        return self.joints[0].marginal_a()

    def x_marginal(self, q: int) -> Pmf:
        return self.joints[q].marginal_b()

    def x_given_s(self, q: int) -> np.ndarray:
        """P(X_q = x | S = s) as a read-only (|S|, |X_q|) matrix (rows of
        zero-mass s are uniform)."""
        return self._x_given_s[q]

    def to_jsonable(self):
        return {
            "joints": [j.to_jsonable() for j in self.joints],
            "gamma0": list(self.gamma0),
            "gamma1": list(self.gamma1),
            "gamma2": self.gamma2,
            "gamma3": self.gamma3,
            "theta_levels": list(self.theta_levels),
            "symbol_values": [list(v) for v in self.symbol_values],
            "virtual_alphabet": self.virtual_alphabet,
        }


@dataclass(frozen=True)
class TwinAssignment:
    """Candidate solution: per-Bob original and virtual mappings from X_q."""

    original: tuple  # per-Bob PrivacyMapping P(Yo_q | X_q)
    virtual: tuple   # per-Bob PrivacyMapping P(Yv_q | X_q)

    def __post_init__(self):
        object.__setattr__(self, "original", tuple(self.original))
        object.__setattr__(self, "virtual", tuple(self.virtual))
        if len(self.original) != len(self.virtual):
            raise ValidationError("TwinAssignment: original/virtual count mismatch")


def _check_consistent(inst: MirrorGameInstance, asg: TwinAssignment) -> None:
    if len(asg.original) != inst.q_count:
        raise ValidationError("assignment does not match instance Bob count")
    for q in range(inst.q_count):
        nx = inst.joints[q].table.shape[1]
        if asg.original[q].input_size != nx or asg.virtual[q].input_size != nx:
            raise ValidationError(f"Bob {q}: mapping input alphabet mismatch")
        if asg.virtual[q].output_size != inst.virtual_alphabet:
            raise ValidationError(f"Bob {q}: virtual alphabet mismatch")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _conditional(joint: np.ndarray) -> np.ndarray:
    """P(B | A) of a joint table[a, b] as (|A|, |B|) rows; rows of zero-mass a are uniform."""
    p_a = joint.sum(axis=1, keepdims=True)
    return np.where(p_a > 0, joint / np.where(p_a > 0, p_a, 1.0), 1.0 / joint.shape[1])


def _s_yo(p_sx: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Joint P(S, Yo) of original rows o (..., X, Yo) applied to P(S, X),
    as (..., |S|, |Yo|), summed over X as in `prob.markov_compose`."""
    return np.add.reduce(p_sx[:, :, None] * o[..., None, :, :], -2)


def _pair_channel(x_given_s: np.ndarray, o: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One Bob's per-S channel P(Yo, Yv | S = s) from its original rows o
    (..., X, Yo) and virtual rows v (..., X, Yv), with (Yo, Yv) flattened:
    (..., |S|, |Yo| |Yv|)."""
    ov = o[..., :, :, None] * v[..., :, None, :]
    return x_given_s @ ov.reshape(ov.shape[:-2] + (-1,))


# Largest stacked exposure table the kernel builds, in cells of
# (candidates, max(|S|, |head|), product columns). The columns grow as
# (|Yo| |Yv|)^(Q-1), so the cap stops a large instance before it allocates.
EXPOSURE_CELL_CAP = 2 ** 24

# A stack larger than this many cells is evaluated a block of candidates at a
# time, on scratch arrays that a caller's `work` dict keeps between calls.
# This is for the page faults, not the arithmetic: the allocator maps a
# multi-MB temporary afresh and returns it to the OS when freed, so every
# call would fault in each page it touches again.
EXPOSURE_BLOCK_CELLS = 2 ** 17

_LN2 = math.log(2.0)


def _scratch(work: dict, key: str, shape) -> np.ndarray:
    """A `shape` view of work[key], which grows to the largest size asked for."""
    size = math.prod(shape)
    buf = work.get(key)
    if buf is None or buf.size < size:
        buf = work[key] = np.empty(size)
    return buf[:size].reshape(shape)


def _head_rows(p_s: np.ndarray, head: np.ndarray) -> np.ndarray:
    """The head of `_cross_mi` from a channel P(H | s) (..., |S|, |H|): the
    rows P(s, h) for each h, then one more row equal to P(s), as
    (..., |H| + 1, |S|)."""
    rows = np.empty(head.shape[:-2] + (head.shape[-1] + 1, p_s.size))
    np.multiply(head.swapaxes(-1, -2), p_s, out=rows[..., :-1, :])
    rows[..., -1, :] = p_s
    return rows


@functools.lru_cache(maxsize=None)
def _block_weights(n_h: int) -> np.ndarray:
    """1 / ln 2 for each of the n_h joint row blocks of a `_cross_mi` table
    and -1 / ln 2 for its P(t) block, as an (n_h + 1, 1) column: its block
    sums in nats to bits."""
    return _read_only(np.array([[1.0]] * n_h + [[-1.0]]) / _LN2)


def _xlnx_blocks(table: np.ndarray, n_blocks: int, logs: np.ndarray = None) -> np.ndarray:
    """Sum of x ln x (0 ln 0 = 0) over each of the n_blocks row blocks of
    tables (..., n_blocks m, n), as (..., n_blocks): one log pass into `logs`
    (a fresh array if None) and one batched row-dot. Zero cells are masked
    only when the table's smallest cell is not positive."""
    if table.size and np.minimum.reduce(table, None) > 0:
        logs = np.log(table, out=logs)
    else:
        logs = np.empty_like(table) if logs is None else logs
        logs.fill(0.0)
        np.log(table, out=logs, where=table > 0)
    lead = table.shape[:-2] + (n_blocks,)
    return (table.reshape(lead + (1, -1)) @ logs.reshape(lead + (-1, 1)))[..., 0, 0]


def _exposure_plan(rows: np.ndarray, tails):
    """The stack that `_cross_mi` builds: its broadcast leading shape and
    its number of candidates, the index of the tail that goes last, and how
    many candidates' tables make one block (the stack is computed in blocks
    when it has more). Raises
    ValidationError when the whole stack is above EXPOSURE_CELL_CAP."""
    # at most one stacked operand needs no np.broadcast_shapes, which costs
    # more than a whole Q=2 table; one tail (every exposure term of a Q=2
    # slot call) needs none of the general bookkeeping either
    if len(tails) == 1:
        i_last, last = 0, tails[0]
        lead = (np.broadcast_shapes(rows.shape[:-2], last.shape[:-2])
                if rows.ndim > 2 and last.ndim > 2 else rows.shape[:-2] or last.shape[:-2])
        n_cols = last.shape[-1]
    else:
        leads = [c.shape[:-2] for c in (rows, *tails)]
        stacked = [d for d in leads if d]
        lead = stacked[0] if len(stacked) == 1 else np.broadcast_shapes(*leads)
        n_cols = math.prod(t.shape[-1] for t in tails)
        i_last = max(range(len(tails)), key=lambda j: (tails[j].ndim, j))
    per_table = max(rows.shape[-1], rows.shape[-2] - 1) * n_cols
    n_lead = math.prod(lead)
    if n_lead * per_table > EXPOSURE_CELL_CAP:
        raise ValidationError(f"exposure: a {n_lead * per_table}-cell table exceeds the cap "
                              f"of {EXPOSURE_CELL_CAP} cells")
    return lead, n_lead, i_last, max(1, EXPOSURE_BLOCK_CELLS // per_table)


def _cross_mi(rows: np.ndarray, tails, work: dict, h_head) -> np.ndarray:
    """I(H; T_1, ..., T_k) in bits for variables conditionally independent
    given S, from the head's `_head_rows` (..., |H| + 1, |S|) and the tails'
    per-S channels P(T_j | s) (..., |S|, n_j); one value per broadcast
    leading index. `h_head` is H(H) in nats, which every caller holds.

    A tail with the most leading axes goes last: in slot rescoring, the one
    tail with a candidate axis. The head's rows and the columns of every
    other tail fold into `left`, ((|H| + 1) n_left, |S|), once per call. Then
    `left @ last` is the joint table P(h, t) over all tails, and its extra
    block of rows is P(t). So I = [sum P(h,t) ln P(h,t) - sum P(t) ln P(t)
    + H(H)] / ln 2 takes one log pass and no pass for marginals.

    A stack of more than EXPOSURE_BLOCK_CELLS cells is computed in blocks of
    candidates (see `_exposure_stack`), with the table and its logs written
    into the scratch arrays of `work` (a fresh dict if None), which a caller
    may keep across calls. So is an unstacked table (no leading axes) that
    fills a block of its own, such as one wide table, when the caller passes
    `work`; without it, it is built on fresh arrays. The cap counts the
    whole stack, before anything is built. Blocked or not, each cell gets
    the same floating-point operations, so the values are bit-identical.

    At Q >= 3 a stacked call folds the candidate's tail last and an
    unstacked call the last Bob's, so one candidate's values may differ
    between the two in the last bits; the greedy search takes the same
    steps either way
    (`tests/test_solvers.py::TestGreedy::test_wide_search_path_within_rounding`)."""
    plan = _exposure_plan(rows, tails)
    lead, n_lead, i_last, block = plan
    n_h = rows.shape[-2] - 1
    if block < n_lead or not lead and block == 1 and work is not None:
        return _exposure_stack(rows, tails, plan, h_head, {} if work is None else work)()
    left = rows if len(tails) == 1 else _fold_head(rows, tails, i_last)
    ent = _xlnx_blocks(left @ tails[i_last], n_h + 1)
    # each candidate's block sums reduce as one row of their own, so a
    # candidate gets the same bits stacked or alone
    return (ent[..., None, :] @ _block_weights(n_h))[..., 0, 0] + h_head / _LN2


def _fold_head(rows: np.ndarray, tails, i_last: int) -> np.ndarray:
    """`left` of `_cross_mi`: the head's rows with the columns of every tail
    but tails[i_last] folded in, as (..., (|H| + 1) n_left, |S|)."""
    left, n_s = rows, rows.shape[-1]
    for j, blk in enumerate(tails):
        if j != i_last:
            left = left[..., :, None, :] * np.swapaxes(blk, -1, -2)[..., None, :, :]
            left = left.reshape(left.shape[:-3] + (-1, n_s))
    return left


def _exposure_stack(rows: np.ndarray, tails, plan, h_head, work: dict):
    """The blocked path of `_cross_mi`, set up once: from its `_exposure_plan`
    `plan` (the cap already checked on the whole stack), the fold of the
    head with every tail but the last and the operands broadcast over the
    flat leading axis. Returns `bits(keep)`, the exposures in bits of the
    candidates at flat indices `keep` (ascending; None for the whole stack,
    shaped like its leading axes), whose tables alone are built, a block of
    candidates at a time, into the scratch arrays of `work`. With `keep`,
    the head must have no candidate axis. So a caller that learns one
    candidate at a time which ones it needs pays the set-up once."""
    lead, n_lead, i_last, block = plan
    n_h = rows.shape[-2] - 1
    left = rows if len(tails) == 1 else _fold_head(rows, tails, i_last)
    # an operand without leading axes is shared by every candidate and
    # broadcasts in the matmul, so it is neither copied nor indexed
    left, last = (c if c.ndim == 2 else np.broadcast_to(c, lead + c.shape[-2:]).reshape(
        (n_lead,) + c.shape[-2:]) for c in (left, tails[i_last]))
    weights, h_bits = _block_weights(n_h), h_head / _LN2

    def bits(keep: np.ndarray = None) -> np.ndarray:
        n_out = n_lead if keep is None else keep.size
        ent = np.empty((n_out, n_h + 1))
        for a in range(0, n_out, block):
            b = min(a + block, n_out)
            pick = slice(a, b) if keep is None else keep[a:b]
            table = np.matmul(*(c if c.ndim == 2 else c[pick] for c in (left, last)), out=_scratch(
                work, "table", (b - a, left.shape[-2], last.shape[-1])))
            ent[a:b] = _xlnx_blocks(table, n_h + 1, _scratch(work, "logs", table.shape))
        # as on the straight path, each candidate's block sums are a row of their own
        out = (ent[:, None, :] @ weights)[:, 0, 0]
        return (out if keep is not None else out.reshape(lead)) + h_bits
    return bits


# The conditions that read one slot of Bob c, by kind (0 for the original
# rows, 1 for the virtual): Bob c's own entries, then every other Bob's.
_SLOT_READS = (((0, 1, 4, 6), (2,)),
               ((3, 6), (2, 4, 5)))


@functools.lru_cache(maxsize=None)
def _slot_plan(q_count: int, slot) -> tuple:
    """A `_kernel` call's entries per Bob for this slot (or None), and per Bob
    whether another Bob reads its pair channel (iii) or its twin channel (v, vi).
    They depend only on Q and the slot, so each plan is worked out once."""
    reads = ((range(7),) * q_count if slot is None else
             tuple(_SLOT_READS[slot[1]][q != slot[0]] for q in range(q_count)))
    wanted = [{i for q in range(q_count) if q != p for i in reads[q]} for p in range(q_count)]
    return reads, tuple(2 in w for w in wanted), tuple(not w.isdisjoint((4, 5)) for w in wanted)


def _held(held: dict, key, make, *args):
    """make(*args), or the value that held[key] keeps from an earlier call on
    the very same unstacked arrays. An entry keeps a reference to its
    arguments, so their identity stands for their contents; it is replaced
    when they are other objects. Stacked rows (a candidate axis) are new on
    every call and are not held. An accepted step puts new row objects in
    place, so the next call that reads them recomputes the entry
    (`tests/test_mirror.py::TestTrialValues::test_held_values_never_go_stale`)."""
    if held is None:
        return make(*args)
    for a in args:
        if a.ndim > 2:
            return make(*args)
    entry = held.get(key)
    if entry is not None:
        for a, b in zip(entry[0], args):
            if a is not b:
                break
        else:
            return entry[1]
    entry = held[key] = (args, make(*args))
    return entry[1]


def _head_entropy(rows: np.ndarray):
    """H(H) in nats of a `_head_rows` head, from P(h) = sum_s P(s, h)."""
    return -_xlnx_blocks(np.add.reduce(rows[..., :-1, :], -1)[..., None, :], 1)[..., 0]


def _original_head(p_s: np.ndarray, x_given_s: np.ndarray, o: np.ndarray):
    """Condition (v)'s head from original rows o (..., X, Yo): the
    `_head_rows` of P(Yo | s) and H(Yo) in nats."""
    rows = _head_rows(p_s, x_given_s @ o)
    return rows, _head_entropy(rows)


def _kernel(inst: MirrorGameInstance, orig, virt, base=None, slot=None,
            work: dict = None, held: dict = None, lazy: bool = False):
    """Conditions (i)-(vii) from each Bob's original rows orig[q] (..., X_q, Yo)
    and virtual rows virt[q] (..., X_q, Yv), as a (..., Q, 7) array over the
    broadcast leading candidate axes. A term that no stacked rows reach keeps
    no candidate axis and is computed once.

    With slot=(c, kind) and base the (Q, 7) values of the same rows outside
    Bob c's `kind` slot (0 original, 1 virtual), only the entries that read
    that slot are computed; the others are taken from base.

    `work` is passed on to `_cross_mi`, so a caller that evaluates many
    stacks (one greedy solve) keeps one set of scratch arrays for them all.
    `held` (a dict, or None) keeps what the unstacked rows give between
    calls: each Bob's twin and pair channels, and condition (v)'s head rows
    with H(Yo_q). An entry is reused only while its rows are the same
    objects (see `_held`), and it holds the arrays the call would compute,
    so the values are the same with or without it.

    `lazy` (slot calls only) lets a caller skip the other Bobs' exposure
    tables of candidates it will reject anyway; the call then returns
    (vals, resolve). By the chain rule, Bob q's (iii) is at least
    B_q = I(X_q; the pairs of the Bobs outside {q, c}), which has no
    candidate axis and is held like the channels. At Q >= 3 (at Q = 2 no Bob
    is outside {q, c} and B_q is 0), where Bob q's stack goes through
    `_cross_mi`'s blocked path (a property of the shapes; the cap is checked
    on the whole stack first), its (iii) holds B_q - 1e-6. resolve(j) writes
    the exact (iii) of flat (C order) candidate j into `vals` for every such
    deferred Bob; each Bob's stack is set up once per call, at the first
    candidate resolved. resolve is None when no Bob was deferred, as in
    every Q = 2 call.

    The 1e-6 bits cover rounding, so that the lowered bound is below the
    computed value and not only the true one. A computed (iii) sums x ln x
    over row blocks of L cells, L the product columns; by the standard
    summation bound its error is below L u (ln(|H| L) + ln L) / ln 2 bits
    (u = 2**-53), and the other roundings (the table cells, the logs, H(X_q))
    add terms of order u (Q + |S|) ln L. A blocked stack holds at least two
    candidates, so under the cap L <= 2**23 and |H| L <= 2**23: each of
    the value and the bound is off by less than 4.3e-8 bits, and the value
    falls below the bound by less than 8.6e-8. On the Q=4 benchmark instance
    (L = 15,625) that is 1e-10 (`tests/test_mirror.py::TestExposureBound`)."""
    p_s, x_given_s, q_count = inst.p_s, inst._x_given_s, inst.q_count
    stacked = [a.shape[:-2] for a in (*orig, *virt) if a.ndim > 2]
    lead = np.broadcast_shapes(*stacked) if len(stacked) > 1 else stacked[0] if stacked else ()
    reads, pair_bobs, twin_bobs = _slot_plan(q_count, slot)
    if slot is None:
        vals = np.zeros(lead + (q_count, 7))
    else:
        vals = np.empty(lead + base.shape)
        vals[...] = base
    # Bob p's (Yo, Yv) channel feeds the other Bobs' (iii), its Yv channel
    # their (v) and (vi); only the channels some other Bob reads are built
    pairs = [_held(held, ("pair", p), _pair_channel, x_given_s[p], orig[p], virt[p])
             if need else None for p, need in enumerate(pair_bobs)]
    twins = [_held(held, ("twin", p), np.matmul, x_given_s[p], virt[p])
             if need else None for p, need in enumerate(twin_bobs)]
    deferred = []   # Bobs whose (iii) waits for resolve
    for q, todo in enumerate(reads):
        p_x = inst.p_x[q]
        o, v = orig[q], virt[q]
        if 0 in todo:   # (i) utility
            vals[..., q, 0] = _utility(p_x, o)
        if 1 in todo:   # (ii) leakage
            vals[..., q, 1] = prob._mi(_s_yo(inst.joints[q].table, o))
        if 2 in todo:   # (iii) exposure of X_q to everything the other Bobs receive
            tails = pairs[:q] + pairs[q + 1:]
            # the plan checks the cap on the whole stack, before any pruning
            plan = (_exposure_plan(inst._x_rows[q], tails)
                    if lazy and q_count > 2 else None)
            if plan is not None and plan[1] > plan[3]:   # blocked: more candidates than a block
                deferred.append((q, tails, plan))
            else:
                vals[..., q, 2] = _cross_mi(inst._x_rows[q], tails, work, inst.h_x[q])
        if 3 in todo:   # (iv) virtual power
            vals[..., q, 3] = _virtual_power(p_x, v, inst.symbol_values[q])
        if 4 in todo:   # (v) other Bobs' twins vs this Bob's original message
            rows, h_head = _held(held, ("head", q), _original_head, p_s, x_given_s[q], o)
            vals[..., q, 4] = _cross_mi(rows, twins[:q] + twins[q + 1:], work, h_head)
        if 5 in todo:   # (vi) other Bobs' twins vs this Bob's source
            vals[..., q, 5] = _cross_mi(inst._x_rows[q], twins[:q] + twins[q + 1:], work,
                                        inst.h_x[q])
        if 6 in todo:   # (vii) own twin vs own original message
            vals[..., q, 6] = prob._mi(np.einsum("x,...xo,...xv->...ov", p_x, o, v))
    if not deferred:
        return (vals, None) if lazy else vals
    # chain rule: I(X_q; all other pairs) >= I(X_q; the pairs outside Bob
    # c's), which has no candidate axis and is held between calls; less 1e-6
    # bits, it is below the computed value too (see docstring)
    flat, c = vals.reshape((-1,) + base.shape), slot[0]
    for q, _, _ in deferred:
        rest = [pairs[p] for p in range(q_count) if p not in (q, c)]
        flat[:, q, 2] = _held(held, ("bound", q, c), lambda *t: _cross_mi(
            inst._x_rows[q], t, None, inst.h_x[q]), *rest) - 1e-6
    stacks, work = [], {} if work is None else work

    def resolve(j: int):
        if not stacks:
            stacks.extend((q, _exposure_stack(inst._x_rows[q], tails, plan, inst.h_x[q], work))
                          for q, tails, plan in deferred)
        for q, bits in stacks:
            flat[j, q, 2] = bits(np.array([j]))[0]
    return vals, resolve


def condition_values(inst: MirrorGameInstance, asg: TwinAssignment, work: dict = None,
                     held: dict = None) -> np.ndarray:
    """Exact values of conditions (i)-(vii) for every Bob, as a (Q, 7) array.
    `work` and `held` are `_kernel`'s: a caller that goes on to score
    candidates against these rows (one greedy solve) passes its own, so an
    unstacked table as large as a block is written into its scratch arrays
    and the channels are built once; the values are the same without them."""
    _check_consistent(inst, asg)
    return _kernel(inst, [m.rows for m in asg.original], [m.rows for m in asg.virtual],
                   work=work, held=held)


def _utility(p_x: np.ndarray, o: np.ndarray):
    """Condition (i), I(X; Yo), of original rows o (..., X, Yo) driven by
    P(X) = p_x; one value per leading index."""
    return prob._mi(p_x[:, None] * o)


def _virtual_power(p_x: np.ndarray, v: np.ndarray, symbol_values: np.ndarray):
    """E{||Yv||^2} for virtual rows v (..., X, Yv) driven by P(X) = p_x."""
    return np.add.reduce((p_x @ v) * symbol_values ** 2, -1)


# The pass test meets the instance thresholds of (i)-(iv) within NULL_TOL and
# compares (v)-(vii) with their floors exactly; (v) and (vi) must exceed
# their lower bound strictly.
_PASS_SLACK = np.array([NULL_TOL] * 4 + [0.0] * 3)
_STRICT_LOWER = np.array([False] * 4 + [True] * 2 + [False])


@dataclass(frozen=True)
class ConstraintSet:
    """Bounds of conditions (i)-(vii) per (Bob, condition), as built by the
    relaxation chain (`assemble_p1`, `epsilon_floor`). Every entry has one
    bound; the other side is open (-inf or +inf)."""

    lo: np.ndarray   # (Q, 7) lower bounds
    hi: np.ndarray   # (Q, 7) upper bounds

    def violations(self, vals: np.ndarray) -> np.ndarray:
        """How far each value lies outside its bound, (Q, 7); zero inside.

        One maximum of the two sides equals their sum bit for bit: every
        entry has one finite bound, so the open side's difference is -inf
        (or NaN, as in the sum). `np.maximum` returns its second argument
        on a tie, so 0.0 goes last: a value on a zero bound gives +0.0, as
        the sum does, where `np.maximum(0.0, -0.0)` would give -0.0
        (`tests/test_mirror.py::TestConstraintSet::test_violations_equal_the_two_sided_sum_bitwise`).
        """
        return np.maximum(np.maximum(self.lo - vals, vals - self.hi), 0.0)

    def holds(self, vals, q=slice(None), i=slice(None)) -> np.ndarray:
        """Pass flags of `vals` against the bounds at [q, i], all (Q, 7) by
        default; `vals` broadcasts against the selected bounds."""
        lo = self.lo[q, i] - _PASS_SLACK[i]
        hi = self.hi[q, i] + _PASS_SLACK[i]
        above = np.where(_STRICT_LOWER[i], vals > lo, vals >= lo)
        return above & (vals <= hi)

    def constraint_holds(self, vals: np.ndarray, q: int, i: int) -> bool:
        """Constraint i for Bob q on precomputed (Q, 7) values."""
        return bool(self.holds(vals[q, i], q, i))


def assemble_p1(inst: MirrorGameInstance, gamma2: float = None) -> ConstraintSet:
    """The base problem P1: minimize the mean exposure (iii) subject to the
    instance thresholds on (i)-(iv), with (v) and (vi) above NULL_TOL and
    (vii) at most NULL_TOL. `gamma2` replaces the instance's utility floor
    (i); the relaxed solve passes its bottleneck floor here."""
    lo = np.full((inst.q_count, 7), -np.inf)
    hi = np.full((inst.q_count, 7), np.inf)
    lo[:, 0] = inst.gamma2 if gamma2 is None else gamma2
    hi[:, 1] = inst.gamma0
    hi[:, 2] = inst.gamma3
    hi[:, 3] = inst.gamma1
    lo[:, 4:6] = NULL_TOL
    hi[:, 6] = NULL_TOL
    return ConstraintSet(lo, hi)


def perturb_posterior(posterior: np.ndarray, magnitude: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Scale each entry by (1 + magnitude * Uniform(-1,1)), renormalize rows
    over the last axis. A stack (..., |Yo|, |S|) takes its noise in one draw,
    the same stream in C order as one draw per slab."""
    noise = 1.0 + magnitude * rng.uniform(-1.0, 1.0, size=posterior.shape)
    out = posterior * noise
    sums = out.sum(axis=-1, keepdims=True)
    # a whole row can only vanish if the posterior row was all-zero already
    return np.where(sums > 0, out / np.where(sums > 0, sums, 1.0), posterior)


def _s_given_yo(p_sx: np.ndarray, o: np.ndarray):
    """P(Yo) and the posterior P(S | Yo) of original rows o (X, Yo) applied
    to P(S, X), as a (|Yo|, |S|) matrix whose rows for unobserved symbols are zero."""
    sy = _s_yo(p_sx, o)
    p_y = np.add.reduce(sy, 0)
    return p_y, np.where(p_y[None, :] > 0, sy / np.where(p_y > 0, p_y, 1.0), 0.0).T


def sample_leakage(inst: MirrorGameInstance, q: int, o: np.ndarray, magnitude: float,
                   rng: np.random.Generator, n: int = 1) -> np.ndarray:
    """n draws of I(Yo_q; S) under the perturbed posterior P(S | Yo_q) of Bob
    q's original rows o (X, Yo), as an (n,) array. The posterior is built
    once and its n perturbations take one noise draw, so values and
    generator state match n single draws."""
    if not 0.0 <= magnitude <= 1.0:
        raise ValidationError(f"sample_leakage: magnitude {magnitude!r} is outside [0, 1]")
    if n < 1:
        raise ValidationError(f"sample_leakage: need n >= 1 draws, got {n!r}")
    p_y, post = _s_given_yo(inst.joints[q].table, o)
    post = perturb_posterior(np.broadcast_to(post, (n,) + post.shape), magnitude, rng)
    return prob._mi(np.swapaxes(p_y[:, None] * post, -1, -2))


def chance_relax(p1: ConstraintSet, u: UncertaintyModel) -> ConstraintSet:
    """The chance-constrained form of p1: each constraint must hold with
    probability at least theta_i under the uncertainty u. Only the leakage
    (ii) feels the uncertainty, through the perturbed posterior, and
    `sample_leakage` estimates that chance; every other condition is
    deterministic, so its chance is 0 or 1 and its bound is unchanged. The
    form is p1 itself, and `u` is not read, as in `solvers.greedy_solve`."""
    return p1


def epsilon_floor(p: ConstraintSet, eps) -> ConstraintSet:
    """Replace the strict/equality constraints (v)-(vii) of `p` with the eps
    floors (eps1, eps2, eps3), three positive reals; every other bound of
    `p` is kept.

    (v) and (vi) tighten monotonically (I > eps implies I > 0). For (vii) the
    relaxed form flips the equality I = 0 into I >= eps3.
    """
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (3,) or not np.all(eps > 0):
        raise ValidationError(f"eps: need three positive floors, got {eps.tolist()}")
    lo, hi = p.lo.copy(), p.hi.copy()
    lo[:, 4:7] = eps
    hi[:, 6] = np.inf
    return ConstraintSet(lo, hi)


def boltzmann_posterior(p_x: np.ndarray, s_given_x: np.ndarray, s_given_y: np.ndarray,
                        omega: float):
    """P(x | y) proportional to P(x) exp(-omega D(P(S|y) || P(S|x))), from
    P(X) and the rows of P(S | X) and P(S | Y), as rows indexed by y; None
    when a row loses all weight (omega too large for the instance).
    Divergences are in bits. An infinite divergence zeroes the weight at
    omega > 0; at omega = 0 it leaves a NaN row."""
    with np.errstate(over="ignore", invalid="ignore"):
        w = p_x[None, :] * np.exp(-omega * prob._kl_matrix(s_given_y, s_given_x))
    sums = np.add.reduce(w, 1, keepdims=True)
    return None if (sums <= 0).any() else w / sums


def boltzmann_original(inst: MirrorGameInstance, q: int, o: np.ndarray, omega: float):
    """Bob q's original rows o (X, Yo) refreshed through the Boltzmann
    posterior at the current P(S | Yo_q), as new rows; None when there is no
    candidate: a Yo symbol has no mass, a posterior or refreshed row loses all
    weight (omega too large for the posterior), or a refreshed row is not finite."""
    p_y, post = _s_given_yo(inst.joints[q].table, o)
    p_x = inst.p_x[q][:, None]
    x_given_y = boltzmann_posterior(inst.p_x[q], inst._s_given_x[q], post, omega) \
        if (p_y > 0).all() else None
    if x_given_y is None:
        return None
    with np.errstate(over="ignore"):
        rows = np.where(p_x > 0, (x_given_y * p_y[:, None]).T / np.where(p_x > 0, p_x, 1.0),
                        1.0 / o.shape[1])
    rows = np.maximum(rows, 0.0)
    sums = np.add.reduce(rows, 1, keepdims=True)
    return rows / sums if np.isfinite(rows).all() and (sums > 0).all() else None


def bottleneck_pair_search(inst: MirrorGameInstance, o: np.ndarray) -> float:
    """The relaxed utility floor of Bob 0's original rows o (X, Yo): the
    largest point of a 64-point grid over [0, H(X_0)] at or below
    I(X_0; Yo_0) + NULL_TOL. The utility does not depend on the perturbed
    posterior, so its chance of meeting any grid floor is 0 or 1."""
    p_x = inst.p_x[0]
    grid = np.linspace(0.0, float(-prob._plogp(p_x).sum()), 64)
    return float(grid[grid <= _utility(p_x, o) + NULL_TOL][-1])


def _sum_channel(inst: MirrorGameInstance, q: int, o: np.ndarray, v: np.ndarray) -> np.ndarray:
    """P(Yo_q + Yv_q | S = s) of Bob q's original rows o (..., X, Yo) and
    virtual rows v (..., X, Yv), with outputs embedded as real symbol values
    (index values for the original alphabet, symbol_values for the virtual),
    as an (..., |S|, n_sums) array over the sorted sum values."""
    blk = _pair_channel(inst.x_given_s(q), o, v)                     # (..., S, Yo*Yv)
    sums = np.round(np.arange(o.shape[-1])[:, None] + inst.symbol_values[q][None, :], 9).ravel()
    values = np.unique(sums)
    chan = np.zeros(blk.shape[:-1] + (values.size,))
    for k, val in enumerate(values):
        chan[..., k] = blk[..., sums == val].sum(axis=-1)
    return chan


def superposed_exposure(inst: MirrorGameInstance, q: int, orig, virt) -> np.ndarray:
    """I(X_q; {Yo_q' + Yv_q'}_{q' != q}) from each Bob's original rows
    orig[p] (..., X, Yo) and virtual rows virt[p] (..., X, Yv), one value
    per leading index: the exposure when every other Bob's pair is observed
    as a superposed sum rather than a separate tuple, the physical-layer
    reading of the total signal. Here the virtual twin really can mask the
    original, so the value falls as virtual power grows."""
    return _cross_mi(inst._x_rows[q],
                     [_sum_channel(inst, p, orig[p], virt[p])
                      for p in range(inst.q_count) if p != q], None, inst.h_x[q])


def reference_binary_instance(q_count: int = 2, virtual_alphabet: int = 2) -> MirrorGameInstance:
    """Small instance used by the batch experiments: a uniform binary S seen
    by every Bob through a binary symmetric channel of flip 0.15, with
    thresholds gamma0 = 0.3, gamma1 = 1.0, gamma2 = 0.1 and gamma3 = 1.5."""
    p_s = Pmf.bernoulli(0.5)
    bsc = PrivacyMapping.bsc(0.15)
    joint = JointPmf2(p_s.probs[:, None] * bsc.rows)
    return MirrorGameInstance(
        joints=tuple(joint for _ in range(q_count)),
        gamma0=np.full(q_count, 0.3),
        gamma1=np.full(q_count, 1.0),
        gamma2=0.1,
        gamma3=1.5,
        virtual_alphabet=virtual_alphabet,
    )
