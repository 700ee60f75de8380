"""In-memory span recorder that times hyperfill's public functions.

Tracing never edits the library.  `Tracer.install` rebinds each listed
function, in every ``hyperfill`` module namespace (or class) that binds
it, to a timing wrapper, so calls made inside the library are caught as
well as the benchmark's own.  `Tracer.remove` puts the originals back.

A span is a list ``[label, parent, t0, t1, count, busy, children]``.
Consecutive calls of the same leaf function under the same parent are
merged into one record (``count`` calls, ``busy`` seconds in total), which
keeps a 500,000-iteration solver loop to a few thousand records.  A
span's self time is its duration minus the busy time of its children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LABEL, PARENT, T0, T1, COUNT, BUSY, CHILDREN = range(7)

# (label, module, attribute).  An attribute "Class.method" is rebound on
# the class.  Several functions may share one label.
TARGETS = [
    ("space.setup", "hyperfill.space", "unit_cube_space"),
    ("space.setup", "hyperfill.space", "cantor_mask"),
    ("space.dist_to_subset", "hyperfill.space", "dist_to_subset"),
    ("space.porosity", "hyperfill.space", "porosity_scan"),
    ("kernels.greedy", "hyperfill._kernels", "greedy_separated_subset"),
    ("kernels.sweep", "hyperfill._kernels", "pdhg_sweep"),
    ("kernels.lift", "hyperfill._kernels", "pair_max_lift"),
    ("filling.build", "hyperfill.filling", "build_filling"),
    ("filling.build", "hyperfill.filling", "build_nested_filling"),
    ("filling.edge_membership", "hyperfill.filling",
     "Filling.edge_membership"),
    ("filling.audit", "hyperfill.filling", "audit_filling"),
    ("filling.audit", "hyperfill.filling", "audit_nested"),
    ("calculus.partition", "hyperfill.calculus", "build_partition"),
    ("calculus.blend", "hyperfill.calculus", "level_blend"),
    ("calculus.blend", "hyperfill.calculus", "edge_blend"),
    ("calculus.blend", "hyperfill.calculus", "telescoping_integral"),
    ("calculus.lift", "hyperfill.calculus", "poisson_extension"),
    ("calculus.lift", "hyperfill.calculus", "discrete_derivative"),
    ("norms.seq", "hyperfill.norms", "besov_seq_norm"),
    ("norms.seq", "hyperfill.norms", "triebel_seq_norm"),
    ("norms.seq", "hyperfill.norms", "lp_norm"),
    ("norms.fn", "hyperfill.norms", "besov_fn_norm"),
    ("norms.fn", "hyperfill.norms", "triebel_fn_norm"),
    ("norms.fn", "hyperfill.norms", "nonhom_norm"),
    ("norms.substitute", "hyperfill.norms", "half_ball_substitute"),
    ("trace.op", "hyperfill.trace", "trace_besov"),
    ("trace.op", "hyperfill.trace", "extend_besov"),
    ("trace.op", "hyperfill.trace", "trace_triebel"),
    ("trace.op", "hyperfill.trace", "extend_sobolev"),
    ("trace.op", "hyperfill.trace", "nonhom_trace"),
    ("trace.op", "hyperfill.trace", "nonhom_extend"),
    ("trace.band", "hyperfill.trace", "codim_mass_band"),
    ("hajlasz.solve", "hyperfill.hajlasz", "hajlasz_norm"),
    ("verify.audit", "hyperfill.verify", "audit_norm_variants"),
    ("jsonio.dumps", "hyperfill._jsonio", "canonical_dumps"),
]


def _partition_hit(args, kwargs):
    """Whether a build_partition call will be served from the cache."""
    filling = args[0] if args else kwargs.get("filling")
    level = args[1] if len(args) > 1 else kwargs.get("level")
    return level in getattr(filling, "_partition_cache", {})


class Tracer:
    """Records nested spans of wrapped calls; see the module docstring."""

    def __init__(self):
        self.records = []
        self.stack = []
        self.partition_hits = 0
        self._restore = []

    def _wrap(self, label, fn):
        records, stack, clock = self.records, self.stack, time.perf_counter
        pre = _partition_hit if label == "calculus.partition" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None and pre(args, kwargs):
                self.partition_hits += 1
            parent = stack[-1] if stack else -1
            if parent >= 0:
                records[parent][CHILDREN] += 1
            idx = len(records)
            rec = [label, parent, 0.0, 0.0, 1, 0.0, 0]
            records.append(rec)
            stack.append(idx)
            rec[T0] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec[T1] = t1
                rec[BUSY] = t1 - rec[T0]
                if rec[CHILDREN] == 0 and idx == len(records) - 1 and idx:
                    prev = records[idx - 1]
                    if (prev[LABEL] == label and prev[PARENT] == parent
                            and prev[CHILDREN] == 0):
                        prev[T1] = t1
                        prev[COUNT] += 1
                        prev[BUSY] += rec[BUSY]
                        records.pop()
                        if parent >= 0:
                            records[parent][CHILDREN] -= 1

        return traced

    def install(self):
        """Rebind every target in every loaded hyperfill namespace."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hyperfill"
                                         or name.startswith("hyperfill."))]
        for label, modname, attr in TARGETS:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(label, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(label, orig)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, name, orig))
                        setattr(mod, name, wrapped)

    def remove(self):
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- reductions -----------------------------------------------------------

    def self_times(self):
        """Per-record self time: busy time minus the children's busy time."""
        own = [rec[BUSY] for rec in self.records]
        for rec in self.records:
            if rec[PARENT] >= 0:
                own[rec[PARENT]] -= rec[BUSY]
        return own

    def summary(self):
        """Per label: inclusive seconds, self seconds and call count.

        Inclusive time counts only outermost spans of a label, so a
        labelled function calling another of the same label is not
        counted twice.
        """
        own = self.self_times()
        out = {}
        for i, rec in enumerate(self.records):
            row = out.setdefault(rec[LABEL], {"incl_s": 0.0, "self_s": 0.0,
                                              "calls": 0})
            row["self_s"] += own[i]
            row["calls"] += rec[COUNT]
            if not self._inside_same_label(i):
                row["incl_s"] += rec[BUSY]
        return out

    def _inside_same_label(self, i):
        label = self.records[i][LABEL]
        p = self.records[i][PARENT]
        while p >= 0:
            if self.records[p][LABEL] == label:
                return True
            p = self.records[p][PARENT]
        return False

    def count_under(self, label, ancestor):
        """Calls of `label` made (at any depth) inside `ancestor` spans."""
        total = 0
        for rec in self.records:
            if rec[LABEL] != label:
                continue
            p = rec[PARENT]
            while p >= 0 and self.records[p][LABEL] != ancestor:
                p = self.records[p][PARENT]
            if p >= 0:
                total += rec[COUNT]
        return total

    def nesting_errors(self):
        """Spans that are open, end before they start, or leave their parent."""
        bad = []
        for i, rec in enumerate(self.records):
            if rec[T1] < rec[T0]:
                bad.append(i)
                continue
            p = rec[PARENT]
            if p >= 0:
                par = self.records[p]
                if rec[T0] < par[T0] or rec[T1] > par[T1]:
                    bad.append(i)
        return bad

    def dump(self, origin=0.0):
        """Spans as plain rows, times relative to `origin`."""
        return [{"label": r[LABEL], "parent": r[PARENT],
                 "t0": r[T0] - origin, "t1": r[T1] - origin,
                 "count": r[COUNT], "busy_s": r[BUSY]}
                for r in self.records]
