"""Spans around the public functions of each mpxmbo layer, from outside.

`Tracer.install()` swaps module attributes for timing wrappers and
`uninstall()` puts the originals back, so the package source is never
touched.  A wrapper records a span (name, parent, start, end) unless a
span of the same name is already open on its thread: the outermost call
is the one that counts, so a nested operator apply or
basis_for_method -> largest_eigenpairs is not counted twice.  Spans live
in memory until `command_metrics` turns one command's spans into the
per-layer metrics.
"""

from __future__ import annotations

import itertools
import threading
import time
import tracemalloc
from collections import Counter

# (span name, [(module, attribute), ...]) -- every reference a call can go
# through.  cli imports names directly, so its copies are patched too.
TARGETS = [
    ("network.load", [("cli", "load_network")]),
    ("network.degrees", [("cli", "compute_degrees")]),
    ("network.load_partition", [("cli", "load_partition")]),
    ("network.load_labels", [("cli", "load_labels")]),
    ("network.save_partition", [("cli", "save_partition")]),
    ("network.onehot", [("network.Partition", "one_hot")]),
    ("eigensolver.solve", [("cli", "basis_for_method"), ("mbo", "basis_for_method"),
                           ("eigensolver", "largest_eigenpairs")]),  # fmt: skip
    ("eigensolver.basis_load", [("cli", "load_basis")]),
    ("eigensolver.basis_save", [("cli", "save_basis")]),
    ("operators.apply", [("operators.LinearOperator", "apply")]),
    ("kernels.csr_matvec", [("_kernels", "csr_matvec")]),
    ("kernels.label_edge_sums", [("_kernels", "label_edge_sums")]),
    ("kernels.enumerate", [("_kernels", "enumerate_partitions")]),
    ("mbo.detect", [("cli", "detect")]),
    ("mbo.run", [("mbo", "mbo_run")]),
    ("mbo.diffusion", [("mbo", "diffusion_step")]),
    ("mbo.threshold", [("mbo", "threshold")]),
    ("metrics.modularity", [("metrics", "multiplex_modularity")]),
    ("metrics.nmi", [("metrics", "nmi")]),
    ("metrics.accuracy", [("metrics", "matched_accuracy")]),
    ("metrics.oracle", [("cli", "oracle_max_modularity")]),
]

# per-layer metric name -> span name whose durations it sums
SPAN_METRICS = {
    "operators.matvec_s": "operators.apply",
    "kernels.csr_matvec_s": "kernels.csr_matvec",
    "network.load_s": "network.load",
    "network.degrees_s": "network.degrees",
    "network.load_partition_s": "network.load_partition",
    "network.load_labels_s": "network.load_labels",
    "network.save_partition_s": "network.save_partition",
    "mbo.diffusion_s": "mbo.diffusion",
    "mbo.threshold_s": "mbo.threshold",
    "network.onehot_s": "network.onehot",
    "metrics.modularity_s": "metrics.modularity",
    "kernels.label_edge_sums_s": "kernels.label_edge_sums",
    "metrics.nmi_s": "metrics.nmi",
    "metrics.accuracy_s": "metrics.accuracy",
    "metrics.oracle_s": "metrics.oracle",
    "kernels.enumerate_s": "kernels.enumerate",
    "eigensolver.basis_load_s": "eigensolver.basis_load",
}

# per-layer metric name -> counter bumped by that span's hook
COUNT_METRICS = {
    "operators.matvecs": "operators.apply",
    "kernels.csr_matvec_calls": "kernels.csr_matvec",
    "mbo.sweeps": "mbo.diffusion",
    "metrics.modularity_calls": "metrics.modularity",
}


def _resolve(mpxmbo, dotted):
    obj = mpxmbo
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _union(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Tracer:
    def __init__(self, mpxmbo):
        import mpxmbo.cli  # noqa: F401  (makes every submodule an attribute)

        self._pkg = mpxmbo
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._saved = []
        self.spans = []  # (id, name, parent id, start, end)
        self.counts = Counter()
        self.hooks = {}  # span name -> fn(args, result), called on outermost calls
        self.last_basis = None  # result of the latest outermost solve

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span unless one of the same name is open."""
        stack = self._stack()
        if any(s[1] == name for s in stack):
            return fn(*args, **kwargs)
        rec = [next(self._ids), name, stack[-1][0] if stack else None, 0.0, 0.0]
        stack.append(rec)
        rec[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(tuple(rec))
        hook = self.hooks.get(name)
        if hook is not None:
            hook(args, result)
        return result

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        self.hooks = {
            "operators.apply": self._count_columns,
            "kernels.csr_matvec": lambda args, res: self._bump("kernels.csr_matvec"),
            "mbo.diffusion": lambda args, res: self._bump("mbo.diffusion"),
            "metrics.modularity": lambda args, res: self._bump("metrics.modularity"),
            "mbo.run": self._count_run,
            "network.load": self._count_entries,
            "eigensolver.solve": self._keep_basis,
        }
        for name, refs in TARGETS:
            for owner, attr in refs:
                target = _resolve(self._pkg, owner)
                original = getattr(target, attr)
                self._saved.append((target, attr, original))
                if name == "kernels.enumerate":
                    setattr(target, attr, self._peak_wrap(name, original))
                else:
                    setattr(target, attr, self._wrap(name, original))

    def uninstall(self):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved = []

    def _peak_wrap(self, name, fn):
        """Span plus the peak of memory allocated during the call."""

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.counts["kernels.enumerate_peak_bytes"] = max(
                    self.counts["kernels.enumerate_peak_bytes"], peak
                )

        return self._wrap(name, measured)

    def _bump(self, key, by=1):
        with self._lock:
            self.counts[key] += by

    def _count_columns(self, args, result):
        x = args[1]
        self._bump("operators.apply", 1 if x.ndim == 1 else x.shape[1])

    def _count_run(self, args, result):
        self._bump("mbo.runs")
        self._bump("mbo.converged", int(result.converged))

    def _count_entries(self, args, net):
        self._bump("network.stored_entries", sum(a.nnz for a in net.intra))
        self.counts["network.nL"] = net.nL

    def _keep_basis(self, args, basis):
        self.last_basis = basis

    # ------------------------------------------------------------------
    # turning one command's spans into per-layer numbers

    def _total(self, name):
        return sum(s[4] - s[3] for s in self.spans if s[1] == name)

    def _children(self, parent_name, child_names=None):
        """Union of child intervals within each span of one name, summed."""
        total = 0.0
        for parent in (s for s in self.spans if s[1] == parent_name):
            kids = [
                (s[3], s[4])
                for s in self.spans
                if s[2] == parent[0] and (child_names is None or s[1] in child_names)
            ]
            total += _union(kids)
        return total

    def command_metrics(self):
        """Per-layer metrics of the spans and counts since the last reset."""
        m = {key: self._total(name) for key, name in SPAN_METRICS.items()}
        m.update({key: self.counts[name] for key, name in COUNT_METRICS.items()})
        solve = self._total("eigensolver.solve")
        m["eigensolver.solve_s"] = solve
        m["eigensolver.self_s"] = solve - self._children("eigensolver.solve")
        m["mbo.detect_s"] = self._total("mbo.detect") - self._children(
            "mbo.detect", {"eigensolver.solve"}
        )
        runs = self.counts["mbo.runs"]
        m["mbo.converged_frac"] = self.counts["mbo.converged"] / runs if runs else 0.0
        m["network.stored_entries"] = self.counts["network.stored_entries"]
        # computed, not measured: per matvec every stored entry reads its
        # value, row index, column index and x[col] (4 x 8 B), and every
        # node-layer pair reads x and writes y (2 x 8 B)
        m["operators.matvec_bytes"] = m["operators.matvecs"] * (
            32 * m["network.stored_entries"] + 16 * self.counts["network.nL"]
        )
        m["kernels.enumerate_peak_mb"] = self.counts["kernels.enumerate_peak_bytes"] / 2**20
        m["cli.self_s"] = self._total("cli.main") - self._children("cli.main")
        return m
