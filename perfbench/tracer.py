"""In-memory span tracer for rigidlab's public functions.

The tracer wraps each function named in TARGETS at every module binding
inside the rigidlab package, not only in its home module, because
several modules import these names directly (``invert`` is bound in
linalg, pins, admissibility and verify).  Each call records one span:
name, start, end, parent span, verdict id, whether it raised, and a
work count (rows x cols for ``rank``).  Spans stay in memory in flat
arrays and are written out once, at the end.

Self time is a span's duration minus the durations of its direct child
spans.  Calls are single-threaded, so children nest inside their parent
and never overlap.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _rank_cells(args, kwargs) -> int:
    return np.size(args[0] if args else kwargs["m"])


def _check_label(args, kwargs) -> str:
    return "verify." + (args[0] if args else kwargs["name"])


PACKAGE = "rigidlab"

# (home module, attribute path, span name or None for "<module>.<attr>",
#  work counter, dynamic label).  Methods are traced once on their class;
# free functions at every binding that holds the same object.
TARGETS = (
    ("linalg", "rank", None, _rank_cells, None),
    # Exact elimination: under rank, solve, invert, nullspace_rows and
    # Subspace, and called directly by rigidity's implied-pair test.
    ("linalg", "_rref_exact", None, None, None),
    ("linalg", "nullspace_rows", None, None, None),
    ("linalg", "solve", None, None, None),
    ("linalg", "invert", None, None, None),
    ("linalg", "sherman_morrison_inverse", None, None, None),
    ("linalg", "Subspace.from_spanning", "linalg.Subspace", None, None),
    ("linalg", "Subspace.contains", "linalg.Subspace", None, None),
    ("linalg", "Subspace.contains_subspace", "linalg.Subspace", None, None),
    ("linalg", "Subspace.intersection", "linalg.Subspace", None, None),
    ("linalg", "Subspace.join", "linalg.Subspace", None, None),
    ("linalg", "Subspace.equals", "linalg.Subspace", None, None),
    ("rigidity", "analyze", None, None, None),
    ("rigidity", "rigidity_matrix", None, None, None),
    ("rigidity", "flex_space", None, None, None),
    ("rigidity", "implied_pairs", None, None, None),
    ("rigidity", "is_implied_edge", None, None, None),
    ("rigidity", "is_generically_rigid", None, None, None),
    ("rigidity", "find_implied_k4", None, None, None),
    ("rigidity", "henneberg_extend", None, None, None),
    ("motions", "trivial_motion_space", None, None, None),
    ("motions", "p_equivalent", None, None, None),
    ("motions", "linear_motion_matrix", None, None, None),
    ("motions", "affine_motion_parts", None, None, None),
    ("motions", "restricts_to_isometry", None, None, None),
    ("motions", "is_infinitesimal_isometry", None, None, None),
    ("pins", "PinContext.__init__", "pins.PinContext", None, None),
    ("pins", "pin_velocity", None, None, None),
    ("pins", "limit_velocity", None, None, None),
    ("admissibility", "check_admissibility", None, None, None),
    ("admissibility", "pin_mismatch_map", None, None, None),
    ("admissibility", "classify_admissible", None, None, None),
    ("admissibility", "construct_admissible_family", None, None, None),
    ("admissibility", "stress_matched_linear_space", None, None, None),
    ("admissibility", "sufficient_check", None, None, None),
    ("admissibility", "one_dim_space_inadmissible", None, None, None),
    ("admissibility", "projected_limit_mismatch", None, None, None),
    ("applications", "two_extension_report", None, None, None),
    ("applications", "edge_conic_space", None, None, None),
    ("affinepoly", "affine_poly_dependence", None, None, None),
    ("affinepoly", "quadratic_value", None, None, None),
    ("sampling", "random_config", None, None, None),
    ("sampling", "random_general_config", None, None, None),
    ("verify", "run_check", None, None, _check_label),
)


class Tracer:
    """Span store plus the bindings it patched; use as a context manager."""

    def __init__(self):
        self.verdict = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.verdict_id = array("i")
        self.raised = array("b")
        self.work = array("q")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name: str, work, label):
        intern = self._intern
        stack = self._stack
        clock = time.perf_counter
        fixed = intern(name)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(intern(label(args, kwargs)) if label else fixed)
            self.parent.append(stack[-1] if stack else -1)
            self.verdict_id.append(self.verdict)
            self.work.append(work(args, kwargs) if work else 0)
            self.raised.append(1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
                self.raised[idx] = 0
                return out
            finally:
                self.end[idx] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    # -- patching --------------------------------------------------------

    @staticmethod
    def _modules():
        return [mod for key, mod in list(sys.modules.items())
                if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for home, path, span, work, label in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{home}"]
            name = span or f"{home}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, work, label))
                else:
                    new = self._wrap(raw, name, work, label)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(owner, path)
            wrapped = self._wrap(original, name, work, label)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading ---------------------------------------------------------

    def summary(self) -> "Summary":
        return Summary(self)

    def write(self, path) -> None:
        """One tab-separated line per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span\tname\tstart_s\tend_s\tparent\tverdict\traised\twork\n")
            t0 = self.start[0] if len(self) else 0.0
            for i in range(len(self)):
                out.write(f"{i}\t{self.names[self.name_id[i]]}\t"
                          f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t"
                          f"{self.parent[i]}\t{self.verdict_id[i]}\t"
                          f"{self.raised[i]}\t{self.work[i]}\n")


class Summary:
    """Per-name totals derived from a tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        n = len(tracer)
        child = [0.0] * n
        for i in range(n):
            par = tracer.parent[i]
            if par >= 0:
                child[par] += tracer.end[i] - tracer.start[i]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        # Self time of spans inside a verdict (verdict id >= 0), leaving
        # out input building.
        self.verdict_self_s: dict[str, float] = defaultdict(float)
        self.work: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = tracer.names[tracer.name_id[i]]
            duration = tracer.end[i] - tracer.start[i]
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - child[i]
            if tracer.verdict_id[i] >= 0:
                self.verdict_self_s[name] += duration - child[i]
            self.work[name] += tracer.work[i]

    def self_with_prefix(self, prefix: str, in_verdicts: bool = False) -> float:
        times = self.verdict_self_s if in_verdicts else self.self_s
        return sum(v for k, v in times.items() if k.startswith(prefix))

    def count_under(self, name: str, ancestor: str, direct: bool = False,
                    raised: bool = False) -> int:
        """Spans called `name` with a span called `ancestor` above them (as
        their parent, when direct), counting only those that raised when
        `raised` is set."""
        tr = self.tracer
        want = tr._name_ids.get(name)
        above = tr._name_ids.get(ancestor)
        if want is None or above is None:
            return 0
        total = 0
        for i in range(len(tr)):
            if tr.name_id[i] != want or (raised and not tr.raised[i]):
                continue
            par = tr.parent[i]
            while par >= 0:
                if tr.name_id[par] == above:
                    total += 1
                    break
                if direct:
                    break
                par = tr.parent[par]
        return total
