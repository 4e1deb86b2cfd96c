"""Span tracer for the bks33 layers, installed from outside the package.

``Tracer.install`` replaces each public function of the seven layer modules
with a wrapper, in every ``bks33`` module namespace that holds it, so that
calls between modules (``proportional`` inside ``orthograph``, ``propagate``
inside ``kscolor``) are caught as well as the benchmark's own.  A wrapper
records one of:

* a span: name, start, end, parent span and pass id, kept in flat arrays
  in memory and written out by ``write_spans``.  Spans are recorded where a
  call crosses from one layer into another, and always for the functions in
  ``ALWAYS_SPAN``, whose own self time is a metric;
* a count, for every other call: exact-scalar operations, and calls from a
  layer into itself (``inner`` from ``overlap2``, ``unit_dot`` from
  ``overlap2_closed_form``).  The time of such a call stays in the calling
  span's self time, which belongs to the same layer; for ``scalar`` it is
  in the self time of whichever layer did the arithmetic.

Hooks on a few spans read work counts off the return value (search nodes,
forced steps, dead ends, matched images).  Self time is a span's duration
minus the time its direct child spans cover.
"""

from __future__ import annotations

import gzip
import inspect
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter

from bks33 import scalar

LAYERS = ("scalar", "rays", "catalog", "majorana", "orthograph", "kscolor", "cli")

#: Functions spanned on every call, also from inside their own layer.
ALWAYS_SPAN = frozenset({
    "orthograph.build_graph", "orthograph.decompose", "orthograph.induced_permutation",
    "kscolor.search", "kscolor.propagate", "kscolor.verify_symmetry_reduction",
    "kscolor.criticality_audit", "catalog.recovered_penrose_mpairs", "cli.main",
})

#: Exact-scalar methods counted under one operation name, on QRoot2 and ExactComplex.
SCALAR_OPS = {
    "__mul__": "exact_mul", "__rmul__": "exact_mul",
    "__add__": "exact_add", "__radd__": "exact_add",
    "__sub__": "exact_add", "__rsub__": "exact_add", "__neg__": "exact_add",
    "__truediv__": "exact_div", "__rtruediv__": "exact_div",
    "sqrt": "exact_sqrt",
    "__eq__": "exact_cmp", "__lt__": "exact_cmp", "__le__": "exact_cmp",
    "__gt__": "exact_cmp", "__ge__": "exact_cmp", "__bool__": "exact_cmp",
}


def _hook_search(result, counts):
    counts["kscolor.search.nodes"] += result.nodes


def _hook_propagate(result, counts):
    counts["kscolor.propagate.forced_steps"] += len(result.steps)
    if result.contradiction is not None:
        counts["kscolor.propagate.dead_ends"] += 1


def _hook_induced_permutation(result, counts):
    counts["orthograph.images_matched"] += len(result)


#: Hooked functions are all in ALWAYS_SPAN, so every call reaches its hook.
HOOKS = {
    "kscolor.search": _hook_search,
    "kscolor.propagate": _hook_propagate,
    "orthograph.induced_permutation": _hook_induced_permutation,
}

#: Private candidate test of ``induced_permutation`` on M-pairs; counted so
#: that the match ratio covers both catalog kinds.
PRIVATE_COUNTS = {"orthograph._pairs_same": "orthograph.pair_match_tests"}


class Tracer:
    """Span and count recorder; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("I")
        self.pass_ids = array("I")
        self.pass_no = 0
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.pass_counts: list[dict[str, int]] = []
        self._stack = [-1]
        self._layers = [""]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        starts, ends, parents = self.starts, self.ends, self.parents
        name_ids, pass_ids, stack, counts = self.name_ids, self.pass_ids, self._stack, self.counts
        layers = self._layers
        layer = name.split(".", 1)[0]
        same_layer_counts = name not in ALWAYS_SPAN and not name.startswith("case.")
        calls_key = f"{name}.calls"
        tracer = self

        def traced(*args, **kwargs):
            if same_layer_counts and layers[-1] == layer:
                counts[calls_key] += 1
                return fn(*args, **kwargs)
            idx = len(starts)
            parents.append(stack[-1])
            name_ids.append(nid)
            pass_ids.append(tracer.pass_no)
            ends.append(0.0)
            stack.append(idx)
            layers.append(layer)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                layers.pop()
            if hook is not None:
                hook(result, counts)
            return result

        return traced

    def _count_wrapper(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def case(self, label: str, fn, *args):
        """Call ``fn`` inside a span named ``case.<label>``."""
        return self._span_wrapper(f"case.{label}", fn)(*args)

    def end_pass(self) -> float:
        """Close the current pass: snapshot its counts and start the next.

        Returns 0: tracing time stays in the pass, as the overhead measured.
        """
        self.pass_counts.append(dict(self.counts))
        self.counts.clear()
        self.pass_no += 1
        return 0.0

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "bks33" or n.startswith("bks33.")]
        for layer in LAYERS:
            module = sys.modules[f"bks33.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                if layer == "scalar":
                    wrapper = self._count_wrapper(f"{name}.calls", fn)
                else:
                    wrapper = self._span_wrapper(name, fn, HOOKS.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, wrapper)
        for dotted, key in PRIVATE_COUNTS.items():
            mod_name, attr = dotted.rsplit(".", 1)
            module = sys.modules[f"bks33.{mod_name}"]
            self._patch(module, attr, self._count_wrapper(key, getattr(module, attr)))
        for cls in (scalar.QRoot2, scalar.ExactComplex):
            for method, op in SCALAR_OPS.items():
                if method in vars(cls):
                    self._patch(cls, method, self._count_wrapper(f"scalar.{op}", vars(cls)[method]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time covered by its direct children."""
        selfs = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                selfs[parent] -= self.ends[idx] - self.starts[idx]
        return selfs

    def pass_metrics(self) -> list[dict[str, float]]:
        """Per traced pass: span calls, self times by function and by layer,
        child-call counts, plus the pass's counts."""
        selfs = self.self_times()
        per_pass: list[dict[str, float]] = [
            defaultdict(float, counts) for counts in self.pass_counts
        ]
        names = self.names
        for idx, nid in enumerate(self.name_ids):
            m = per_pass[self.pass_ids[idx]]
            name = names[nid]
            m[f"{name}.calls"] += 1
            m[f"{name}.self_s"] += selfs[idx]
            m[f"{name.split('.', 1)[0]}.self_s"] += selfs[idx]
            parent = self.parents[idx]
            if parent >= 0:
                m[f"{names[self.name_ids[parent]]}>{name}"] += 1
        return per_pass

    def median_durations(self) -> dict[str, float]:
        """Median inclusive duration of one call, by span name."""
        by_name: defaultdict[str, list[float]] = defaultdict(list)
        for s, e, n in zip(self.starts, self.ends, self.name_ids):
            by_name[self.names[n]].append(e - s)
        return {name: statistics.median(d) for name, d in by_name.items()}

    def write_spans(self, path) -> None:
        """Write every span as a tab-separated line, gzip-compressed."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tpass\tname\tstart_s\tend_s\n")
            for idx, (s, e, p, n, k) in enumerate(zip(
                self.starts, self.ends, self.parents, self.name_ids, self.pass_ids
            )):
                fh.write(f"{idx}\t{p}\t{k}\t{self.names[n]}\t{s - t0:.9f}\t{e - t0:.9f}\n")
