"""Span tracing from outside the program: the public functions of each layer
are rebound to wrappers that record a span (name, start, end, parent) in
memory. A span's self time is its duration minus the durations of the
wrapped calls it made. Nothing here changes what the wrapped functions
compute.
"""

from __future__ import annotations

import os
import time
from array import array

import numpy as np

perf = time.perf_counter

# (metric name, module, attribute). Names shared by several functions are
# summed into one layer figure.
FUNCTIONS = (
    ("solvers.greedy_solve", "solvers", "greedy_solve"),
    ("solvers.trust_region_solve", "solvers", "trust_region_solve"),
    ("mirror.condition_values", "mirror", "condition_values"),
    ("mirror.boltzmann_posterior", "mirror", "boltzmann_posterior"),
    ("mirror.bottleneck_pair_search", "mirror", "bottleneck_pair_search"),
    ("mirror.sample_leakage", "mirror", "sample_leakage"),
    ("mirror.superposed_exposure", "mirror", "superposed_exposure"),
    ("prob.mutual_information", "prob", "mutual_information"),
    ("prob.markov_compose", "prob", "markov_compose"),
    ("nonstationary.mfg_solve", "nonstationary", "mfg_solve"),
    ("nonstationary.lohe_integrate", "nonstationary", "lohe_integrate"),
    ("divergence.constrained_cmi_max", "divergence", "constrained_cmi_max"),
    ("divergence.cmi_decomposition_report", "divergence", "cmi_decomposition_report"),
    ("equilibrium.best_response_dynamics", "equilibrium", "best_response_dynamics"),
    ("equilibrium.verify_nash", "equilibrium", "verify_nash"),
    ("plant", "plant", "controllability_rank"),
    ("plant", "plant", "observability_rank"),
    ("plant", "plant", "closed_loop_spectral_radius"),
)
# Constructors validate their tables; every module that imported a class by
# name holds the same class object, so its __init__ is patched in place.
CONSTRUCTORS = ("Pmf", "JointPmf2", "JointPmf3", "PrivacyMapping")

def exposure_columns(asg) -> int:
    """Flattened other-Bob columns that `condition_values` builds for
    conditions (iii), (v) and (vi), computed from the mapping shapes."""
    q_count = len(asg.original)
    total = 0
    for q in range(q_count):
        ov, v = 1, 1
        for p in range(q_count):
            if p != q:
                ov *= asg.original[p].output_size * asg.virtual[p].output_size
                v *= asg.virtual[p].output_size
        total += ov + 2 * v
    return total


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.kernel_charges = []   # (innermost open span or -1, kernel seconds)
        self.counters = {"solvers.greedy_solve.passes": 0,
                         "solvers.improving_passes": 0,
                         "mirror.exposure_columns": 0,
                         "mirror.boltzmann_posterior.raised": 0,
                         "nonstationary.mfg_solve.sweeps": 0,
                         "nonstationary.lohe_integrate.steps": 0}
        self._restore = []

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name, fn, after=None):
        """A wrapper recording one span per call; `after(args, kwargs,
        result)` updates counters from the call."""
        nid = self._name_id(name)
        raised_key = name + ".raised"

        def wrapper(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self.stack[-1] if self.stack else -1)
            self.span_end.append(0.0)
            self.span_start.append(perf())
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if raised_key in self.counters:
                    self.counters[raised_key] += 1
                raise
            finally:
                self.span_end[idx] = perf()
                self.stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def charge_kernel(self, seconds):
        """Record calibration-kernel time run from a timer signal against the
        innermost open span. It appends to no span array, so a signal that
        lands inside a wrapper cannot misalign them."""
        self.kernel_charges.append((self.stack[-1] if self.stack else -1, seconds))

    def _after_greedy(self, args, kwargs, result):
        trace = result[1]
        self.counters["solvers.greedy_solve.passes"] += trace.iterations
        self.counters["solvers.improving_passes"] += sum(it.accepted for it in trace.iterates)

    def _after_condition_values(self, args, kwargs, result):
        asg = args[1] if len(args) > 1 else kwargs["asg"]
        self.counters["mirror.exposure_columns"] += exposure_columns(asg)

    def _after_mfg(self, args, kwargs, result):
        self.counters["nonstationary.mfg_solve.sweeps"] += len(result.residuals)

    def _after_lohe(self, args, kwargs, result):
        self.counters["nonstationary.lohe_integrate.steps"] += result.shape[0] - 1

    def install(self, modules):
        """Rebind the traced functions and constructors; `modules` maps the
        short module names in FUNCTIONS to the imported modules."""
        after = {"solvers.greedy_solve": self._after_greedy,
                 "mirror.condition_values": self._after_condition_values,
                 "nonstationary.mfg_solve": self._after_mfg,
                 "nonstationary.lohe_integrate": self._after_lohe}
        for name, mod_name, attr in FUNCTIONS:
            mod = modules[mod_name]
            orig = getattr(mod, attr)
            setattr(mod, attr, self.wrap(name, orig, after.get(name)))
            self._restore.append((mod, attr, orig))
        for cls_name in CONSTRUCTORS:
            cls = getattr(modules["prob"], cls_name)
            orig = cls.__init__
            cls.__init__ = self.wrap("prob.construct", orig)
            self._restore.append((cls, "__init__", orig))

    def uninstall(self):
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    def aggregate(self):
        """Per-name call counts and self times, and the number of
        condition_values calls made directly by greedy_solve."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=float) - np.frombuffer(self.span_start, dtype=float)
        covered = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        # calibration-kernel time leaves the span it interrupted and the
        # totals of that span's ancestors
        kernel_self, kernel_total = np.zeros(len(dur)), np.zeros(len(dur))
        for idx, seconds in self.kernel_charges:
            if idx >= 0:
                kernel_self[idx] += seconds
            while idx >= 0:
                kernel_total[idx] += seconds
                idx = parents[idx]
        self_t = dur - covered - kernel_self
        total = dur - kernel_total
        out = {}
        for name, nid in self.name_ids.items():
            sel = names == nid
            out[name] = {"calls": int(sel.sum()), "self_s": float(self_t[sel].sum()),
                         "total_s": float(total[sel].sum())}
        cond_under_greedy = 0
        if "mirror.condition_values" in self.name_ids and "solvers.greedy_solve" in self.name_ids:
            cond = names == self.name_ids["mirror.condition_values"]
            par = parents[cond]
            par = par[par >= 0]
            cond_under_greedy = int(np.sum(names[par] == self.name_ids["solvers.greedy_solve"]))
        return out, cond_under_greedy

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.span_name, dtype=np.int32),
                            parent=np.frombuffer(self.span_parent, dtype=np.int32),
                            start=np.frombuffer(self.span_start, dtype=float),
                            end=np.frombuffer(self.span_end, dtype=float))
