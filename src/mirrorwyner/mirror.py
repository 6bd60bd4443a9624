"""Virtual-twin mirror game: feasibility conditions, the base optimization
problem, and its relaxation chain (chance constraints, epsilon floors,
Boltzmann posteriors, bottleneck pair search).

Multi-Bob coupling model: the per-Bob non-private sources X_q are
conditionally independent given the shared private source S, and all
released messages are generated from their own X_q through row-stochastic
mappings. Every information measure below is computed exactly from that
factorization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import prob
from .errors import ValidationError
from .prob import JointPmf2, Pmf, PrivacyMapping

# conditions (v)-(vii) use this as "numerically zero" in strict mode
NULL_TOL = 1e-9

CONDITION_NAMES = (
    "utility",        # (i)   I(X_q; Yo_q)
    "leakage",        # (ii)  I(Yo_q; S)
    "exposure",       # (iii) I(X_q; {Ytot_q'}), q' != q
    "virtual_power",  # (iv)  E{||Yv_q||^2}
    "twin_vs_other_original",  # (v)  I({Yv_q'}; Yo_q)
    "twin_vs_other_source",    # (vi) I({Yv_q'}; X_q)
    "twin_nulled",    # (vii) I({Yv_q}; Yo_q)
)


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
    # exposure head rows [P(S, X_q), P(S)] of `_head_rows`.
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
    return (p_sx[:, :, None] * o[..., None, :, :]).sum(axis=-2)


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
# time, on scratch arrays that a caller's `work` dict keeps between calls: a
# fresh multi-MB temporary is mapped anew and faults in every page it touches.
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
    np.multiply(np.swapaxes(head, -1, -2), p_s, out=rows[..., :-1, :])
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
    if table.size and table.min() > 0:
        logs = np.log(table, out=logs)
    else:
        logs = np.empty_like(table) if logs is None else logs
        logs.fill(0.0)
        np.log(table, out=logs, where=table > 0)
    lead = table.shape[:-2] + (n_blocks,)
    return (table.reshape(lead + (1, -1)) @ logs.reshape(lead + (-1, 1)))[..., 0, 0]


def _cross_mi(rows: np.ndarray, tails, work: dict = None, h_head=None) -> np.ndarray:
    """I(H; T_1, ..., T_k) in bits for variables conditionally independent
    given S, from the head's `_head_rows` (..., |H| + 1, |S|) and the tails'
    per-S channels P(T_j | s) (..., |S|, n_j); one value per broadcast
    leading index. `h_head` is H(H) in nats if the caller has it; otherwise
    it is computed from P(h) = sum_s P(s, h).

    A tail with the most leading axes goes last: in slot rescoring, the one
    tail with a candidate axis. The head's rows and the columns of every
    other tail fold into `left`, ((|H| + 1) n_left, |S|), once per call. Then
    `left @ last` is the joint table P(h, t) over all tails, and its extra
    block of rows is P(t). So I = [sum P(h,t) ln P(h,t) - sum P(t) ln P(t)
    + H(H)] / ln 2 takes one log pass and no pass for marginals.

    A stack of more than EXPOSURE_BLOCK_CELLS cells is computed in blocks of
    candidates, with the table and its logs written into the scratch arrays
    of `work` (a fresh dict if None), which a caller may keep across calls."""
    # at most one stacked operand needs no np.broadcast_shapes, which costs
    # more than a whole Q=2 table
    leads = [c.shape[:-2] for c in (rows, *tails)]
    stacked = [d for d in leads if d]
    lead = stacked[0] if len(stacked) == 1 else np.broadcast_shapes(*leads)
    n_lead, n_h, n_s = math.prod(lead), rows.shape[-2] - 1, rows.shape[-1]
    n_cols = math.prod(t.shape[-1] for t in tails)
    per_table = max(n_s, n_h) * n_cols
    cells = n_lead * per_table
    if cells > EXPOSURE_CELL_CAP:
        raise ValidationError(f"exposure: a {cells}-cell table exceeds the cap of "
                              f"{EXPOSURE_CELL_CAP} cells")
    i_last = max(range(len(tails)), key=lambda j: (tails[j].ndim, j))
    left, last = rows, tails[i_last]
    for j, blk in enumerate(tails):
        if j != i_last:
            left = left[..., :, None, :] * np.swapaxes(blk, -1, -2)[..., None, :, :]
            left = left.reshape(left.shape[:-3] + (-1, n_s))
    block = max(1, EXPOSURE_BLOCK_CELLS // per_table)
    if block >= n_lead:
        ent = _xlnx_blocks(left @ last, n_h + 1)
    else:
        work = {} if work is None else work
        left, last = (np.broadcast_to(c, lead + c.shape[-2:]).reshape((n_lead,) + c.shape[-2:])
                      for c in (left, last))
        ent = np.empty((n_lead, n_h + 1))
        for a in range(0, n_lead, block):
            b = min(a + block, n_lead)
            table = np.matmul(left[a:b], last[a:b], out=_scratch(
                work, "table", (b - a, left.shape[-2], last.shape[-1])))
            ent[a:b] = _xlnx_blocks(table, n_h + 1, _scratch(work, "logs", table.shape))
        ent = ent.reshape(lead + (n_h + 1,))
    if h_head is None:
        h_head = -_xlnx_blocks(rows[..., :-1, :].sum(axis=-1)[..., None, :], 1)[..., 0]
    # each candidate's block sums reduce as one row of their own, so a
    # candidate gets the same bits stacked or alone
    return (ent[..., None, :] @ _block_weights(n_h))[..., 0, 0] + h_head / _LN2


# The conditions that read one slot of Bob c, by kind (0 for the original
# rows, 1 for the virtual): Bob c's own entries, then every other Bob's.
_SLOT_READS = (((0, 1, 4, 6), (2,)),
               ((3, 6), (2, 4, 5)))


def _kernel(inst: MirrorGameInstance, orig, virt, base=None, slot=None,
            work: dict = None) -> np.ndarray:
    """Conditions (i)-(vii) from each Bob's original rows orig[q] (..., X_q, Yo)
    and virtual rows virt[q] (..., X_q, Yv), as a (..., Q, 7) array over the
    broadcast leading candidate axes. A term that no stacked rows reach keeps
    no candidate axis and is computed once.

    With slot=(c, kind) and base the (Q, 7) values of the same rows outside
    Bob c's `kind` slot (0 original, 1 virtual), only the entries that read
    that slot are computed; the others are taken from base.

    `work` is passed on to `_cross_mi`, so a caller that evaluates many
    stacks (one greedy solve) keeps one set of scratch arrays for them all."""
    p_s, x_given_s, q_count = inst.p_s, inst._x_given_s, inst.q_count
    lead = np.broadcast_shapes(*(a.shape[:-2] for a in (*orig, *virt)))
    if slot is None:
        reads = [range(7)] * q_count
        vals = np.zeros(lead + (q_count, 7))
    else:
        c, kind = slot
        own, other = _SLOT_READS[kind]
        reads = [own if q == c else other for q in range(q_count)]
        vals = np.empty(lead + base.shape)
        vals[...] = base
    # Bob p's (Yo, Yv) channel feeds the other Bobs' (iii), its Yv channel
    # their (v) and (vi); only the channels some other Bob reads are built
    pairs, twins = [None] * q_count, [None] * q_count
    for p in range(q_count):
        wanted = {i for q in range(q_count) if q != p for i in reads[q]}
        if 2 in wanted:
            pairs[p] = _pair_channel(x_given_s[p], orig[p], virt[p])
        if 4 in wanted or 5 in wanted:
            twins[p] = x_given_s[p] @ virt[p]
    for q in range(q_count):
        todo = reads[q]
        p_x = inst.p_x[q]
        o, v = orig[q], virt[q]
        if 0 in todo:   # (i) utility
            vals[..., q, 0] = _utility(p_x, o)
        if 1 in todo:   # (ii) leakage
            vals[..., q, 1] = prob._mi(_s_yo(inst.joints[q].table, o))
        if 2 in todo:   # (iii) exposure of X_q to everything the other Bobs receive
            vals[..., q, 2] = _cross_mi(inst._x_rows[q], pairs[:q] + pairs[q + 1:], work,
                                        inst.h_x[q])
        if 3 in todo:   # (iv) virtual power
            vals[..., q, 3] = _virtual_power(p_x, v, inst.symbol_values[q])
        if 4 in todo:   # (v) other Bobs' twins vs this Bob's original message
            vals[..., q, 4] = _cross_mi(_head_rows(p_s, x_given_s[q] @ o),
                                        twins[:q] + twins[q + 1:], work)
        if 5 in todo:   # (vi) other Bobs' twins vs this Bob's source
            vals[..., q, 5] = _cross_mi(inst._x_rows[q], twins[:q] + twins[q + 1:], work,
                                        inst.h_x[q])
        if 6 in todo:   # (vii) own twin vs own original message
            vals[..., q, 6] = prob._mi(np.einsum("x,...xo,...xv->...ov", p_x, o, v))
    return vals


def condition_values(inst: MirrorGameInstance, asg: TwinAssignment) -> np.ndarray:
    """Exact values of conditions (i)-(vii) for every Bob, as a (Q, 7) array."""
    _check_consistent(inst, asg)
    return _kernel(inst, [m.rows for m in asg.original], [m.rows for m in asg.virtual])


def _utility(p_x: np.ndarray, o: np.ndarray):
    """Condition (i), I(X; Yo), of original rows o (..., X, Yo) driven by
    P(X) = p_x; one value per leading index."""
    return prob._mi(p_x[:, None] * o)


def _virtual_power(p_x: np.ndarray, v: np.ndarray, symbol_values: np.ndarray):
    """E{||Yv||^2} for virtual rows v (..., X, Yv) driven by P(X) = p_x."""
    return np.sum((p_x @ v) * symbol_values ** 2, axis=-1)


# The pass test meets the instance thresholds of (i)-(iv) within NULL_TOL and
# compares (v)-(vii) with their floors exactly; (v) and (vi) must exceed
# their lower bound strictly.
_PASS_SLACK = np.array([NULL_TOL] * 4 + [0.0] * 3)
_STRICT_LOWER = np.array([False] * 4 + [True] * 2 + [False])


@dataclass(frozen=True)
class ConstraintSet:
    """Bounds of conditions (i)-(vii) per (Bob, condition). Every entry has
    one bound; the other side is open (-inf or +inf).

    Without eps floors, (v) and (vi) must exceed NULL_TOL and (vii) stay at
    most NULL_TOL. With floors (eps1, eps2, eps3), (v) and (vi) must exceed
    eps1 and eps2, and (vii) is at least eps3 in "floored" null mode or stays
    at most NULL_TOL in "strict" null mode.
    """

    lo: np.ndarray   # (Q, 7) lower bounds
    hi: np.ndarray   # (Q, 7) upper bounds

    @classmethod
    def build(cls, inst: MirrorGameInstance, gamma2: float = None, eps=None,
              null_mode: str = "strict") -> "ConstraintSet":
        """Bounds from the instance thresholds, the utility floor (the
        instance's gamma2 by default) and the eps floors, if any: three
        positive reals."""
        if null_mode not in ("strict", "floored"):
            raise ValidationError("null_mode must be 'strict' or 'floored'")
        if eps is None and null_mode == "floored":
            raise ValidationError("null_mode 'floored' needs eps floors")
        if eps is not None:
            eps = np.asarray(eps, dtype=float)
            if eps.shape != (3,) or not np.all(eps > 0):
                raise ValidationError(f"eps: need three positive floors, got {eps.tolist()}")
        e1, e2, e3 = (NULL_TOL, NULL_TOL, None) if eps is None else eps
        lo = np.full((inst.q_count, 7), -np.inf)
        hi = np.full((inst.q_count, 7), np.inf)
        lo[:, 0] = inst.gamma2 if gamma2 is None else gamma2
        hi[:, 1] = inst.gamma0
        hi[:, 2] = inst.gamma3
        hi[:, 3] = inst.gamma1
        lo[:, 4] = e1
        lo[:, 5] = e2
        if null_mode == "floored":
            lo[:, 6] = e3
        else:
            hi[:, 6] = NULL_TOL
        return cls(lo, hi)

    def violations(self, vals: np.ndarray) -> np.ndarray:
        """How far each value lies outside its bound, (Q, 7); zero inside."""
        return np.maximum(0.0, self.lo - vals) + np.maximum(0.0, vals - self.hi)

    def holds(self, vals, q=slice(None), i=slice(None)) -> np.ndarray:
        """Pass flags of `vals` against the bounds at [q, i], all (Q, 7) by
        default; `vals` broadcasts against the selected bounds."""
        lo = self.lo[q, i] - _PASS_SLACK[i]
        hi = self.hi[q, i] + _PASS_SLACK[i]
        above = np.where(_STRICT_LOWER[i], vals > lo, vals >= lo)
        return above & (vals <= hi)


@dataclass(frozen=True)
class OptimizationProblem:
    """The base problem: minimize the mean exposure (iii) subject to the
    conditions, all bounds taken from the instance thresholds."""

    instance: MirrorGameInstance
    constraints: ConstraintSet


def assemble_p1(inst: MirrorGameInstance) -> OptimizationProblem:
    return OptimizationProblem(inst, ConstraintSet.build(inst))


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
    p_y = sy.sum(axis=0)
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


@dataclass(frozen=True)
class ChanceConstrainedProblem:
    """Chance-constrained form: every constraint becomes Pr{holds under the
    uncertainty} >= theta_i, and the objective is to push the theta vector up.

    Only the leakage constraint actually feels the uncertainty (it is the one
    whose posterior is perturbed); the others evaluate deterministically.
    """

    instance: MirrorGameInstance
    uncertainty: UncertaintyModel
    constraints: ConstraintSet

    def constraint_holds(self, vals: np.ndarray, q: int, i: int) -> bool:
        """Deterministic part of constraint i for Bob q on precomputed values."""
        return bool(self.constraints.holds(vals[q, i], q, i))


def chance_relax(p1: OptimizationProblem, u: UncertaintyModel) -> ChanceConstrainedProblem:
    return ChanceConstrainedProblem(p1.instance, u, p1.constraints)


def epsilon_floor(ccp: ChanceConstrainedProblem, eps, null_mode: str = "floored"
                  ) -> ChanceConstrainedProblem:
    """Replace the strict/equality constraints (v)-(vii) with eps floors.

    (v) and (vi) tighten monotonically (I > eps implies I > 0). For (vii) the
    relaxed form flips the equality into I >= eps3; the strict band is kept
    available via null_mode="strict" since the two readings contradict.
    """
    return replace(ccp, constraints=ConstraintSet.build(ccp.instance, eps=eps,
                                                        null_mode=null_mode))


def boltzmann_posterior(p_x: np.ndarray, s_given_x: np.ndarray, s_given_y: np.ndarray,
                        omega: float):
    """P(x | y) proportional to P(x) exp(-omega D(P(S|y) || P(S|x))), from
    P(X) and the rows of P(S | X) and P(S | Y), as rows indexed by y; None
    when a row loses all weight (omega too large for the instance).
    Divergences are in bits. An infinite divergence zeroes the weight at
    omega > 0; at omega = 0 it leaves a NaN row."""
    with np.errstate(over="ignore", invalid="ignore"):
        w = p_x[None, :] * np.exp(-omega * prob._kl_matrix(s_given_y, s_given_x))
    sums = w.sum(axis=1, keepdims=True)
    return None if np.any(sums <= 0) else w / sums


def boltzmann_original(inst: MirrorGameInstance, q: int, o: np.ndarray, omega: float):
    """Bob q's original rows o (X, Yo) refreshed through the Boltzmann
    posterior at the current P(S | Yo_q), as new rows; None when there is no
    candidate: a Yo symbol has no mass, a posterior or refreshed row loses all
    weight (omega too large for the posterior), or a refreshed row is not finite."""
    p_y, post = _s_given_yo(inst.joints[q].table, o)
    p_x = inst.p_x[q][:, None]
    x_given_y = boltzmann_posterior(inst.p_x[q], inst._s_given_x[q], post, omega) \
        if np.all(p_y > 0) else None
    if x_given_y is None:
        return None
    with np.errstate(over="ignore"):
        rows = np.where(p_x > 0, (x_given_y * p_y[:, None]).T / np.where(p_x > 0, p_x, 1.0),
                        1.0 / o.shape[1])
    rows = np.clip(rows, 0.0, None)
    sums = rows.sum(axis=1, keepdims=True)
    return rows / sums if np.all(np.isfinite(rows)) and np.all(sums > 0) else None


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
                      for p in range(inst.q_count) if p != q], h_head=inst.h_x[q])


def reference_binary_instance(q_count: int = 2, source_p: float = 0.5,
                              channel_flip: float = 0.15,
                              gamma0: float = 0.3, gamma1: float = 1.0,
                              gamma2: float = 0.1, gamma3: float = 1.5,
                              virtual_alphabet: int = 2) -> MirrorGameInstance:
    """Small Bernoulli-source instance used by the batch experiments."""
    p_s = Pmf.bernoulli(source_p)
    bsc = PrivacyMapping.bsc(channel_flip)
    joint = JointPmf2(p_s.probs[:, None] * bsc.rows)
    return MirrorGameInstance(
        joints=tuple(joint for _ in range(q_count)),
        gamma0=np.full(q_count, gamma0),
        gamma1=np.full(q_count, gamma1),
        gamma2=gamma2,
        gamma3=gamma3,
        virtual_alphabet=virtual_alphabet,
    )
