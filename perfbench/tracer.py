"""Per-layer spans around the public functions of `crystallograph`.

The tracer wraps each traced function and rebinds the wrapper under every
name that holds the original in any loaded `crystallograph.*` module.  The
package uses `from .x import y` throughout, so patching only the defining
module would miss callers such as `oracle.is_crystallograph` or the
function-local imports in `oracle.pair_failures` (those read the defining
module's attribute at call time, so they see the wrapper too).  Methods and
`ColouredGraph.__init__` are patched on their class, which covers every
binding of the class at once.

Spans are not stored one by one: the 2^20 scan makes millions of calls.
Each finished span adds to a counter keyed by (layer, parent layer):
calls, inclusive seconds and self seconds, where self time is the span's
duration minus the durations of its child spans.  `uninstall` puts every
binding back as it was; `to_json` gives the aggregate for writing out.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "crystallograph"


# ---------------------------------------------------------------------------
# hooks: extra counters a layer records besides calls and time


def _count_accepted(tracer, layer, args, result):
    tracer.counts[layer, "accept_calls"] += 1
    if result:
        tracer.counts[layer, "accepted"] += 1


def _record_distinct(tracer, layer, args, result):
    tracer.distinct[layer].add(args)


def _cases_from_result(tracer, layer, args, result):
    tracer.counts[layer, "cases"] += result[0]


def _cases_per_call(tracer, layer, args, result):
    tracer.counts[layer, "cases"] += 1


def _cases_from_samples(tracer, layer, args, result):
    tracer.counts[layer, "cases"] += args[1]


# (layer, targets, post-hook, count the items of the first argument as cases)
# A target is "module:function" or "module:Class.method".
LAYERS = [
    ("graphs.construct", ["graphs:ColouredGraph.__init__"], None, False),
    ("graphs.roots", ["graphs:roots_from_graph", "graphs:graph_from_roots"], None, False),
    ("graphs.weyl_act", ["graphs:weyl_act_graph"], None, False),
    ("graphs.json", ["graphs:graph_to_json", "graphs:graph_from_json"], None, False),
    (
        "crystal.predicates",
        ["crystal:is_crystallograph", "crystal:is_quasi_crystallograph", "crystal:is_projective_crystallograph"],
        _count_accepted,
        False,
    ),
    ("crystal.classify", ["crystal:classify_components", "crystal:classify_projective_components"], None, False),
    ("crystal.normalize", ["crystal:bipartite_normalize"], None, False),
    ("oracle.tables", ["oracle:LineTables.is_subsystem"], _count_accepted, False),
    ("oracle.tables", ["oracle:LineTables.closure"], None, False),
    ("oracle.suite.bijection_sweep", ["oracle:bijection_sweep"], _cases_from_result, False),
    ("oracle.suite.classification_failures", ["oracle:classification_failures"], None, True),
    ("oracle.suite.kernel_failures", ["oracle:kernel_failures"], None, True),
    ("oracle.suite.pair_failures", ["oracle:pair_failures"], None, True),
    ("oracle.suite.random_nested_pair", ["oracle:random_nested_pair"], _cases_per_call, False),
    ("oracle.suite.weyl_commutation_failures", ["oracle:weyl_commutation_failures"], _cases_from_samples, False),
    ("quotient.quotient_graph", ["quotient:quotient_graph"], _record_distinct, False),
    ("quotient.restricted_system", ["quotient:restricted_system"], None, False),
    ("quotient.kernel", ["quotient:kernel_basis", "quotient:orthogonal_projection"], None, False),
    ("arrange.projectify", ["arrange:projectify"], None, False),
    ("arrange.quotient_projective", ["arrange:quotient_projective"], None, False),
    ("arrange.classify_restricted", ["arrange:classify_restricted_arrangement"], None, False),
    ("linalg.rref", ["linalg:rref", "linalg:nullspace_basis", "linalg:span_equal", "linalg:rank"], None, False),
    ("linalg.mat_mul", ["linalg:mat_mul"], None, False),
    ("rootsys.weyl_apply", ["rootsys:weyl_apply"], None, False),
]

# Spans of LineTables construction: their time is reported as oracle.tables.build_s.
BUILD_LAYER = "oracle.tables.build"
BUILD_TARGET = "oracle:LineTables.__init__"
# A generator: each element it yields is one span, counted as "elements".
GENERATOR_LAYER = "rootsys.weyl_group"
GENERATOR_TARGET = "rootsys:weyl_group"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # frames: [layer, start, child seconds]
        self.spans: dict[tuple[str, str], list] = {}  # (layer, parent) -> [calls, total_s, self_s]
        self.counts: defaultdict = defaultdict(int)  # (layer, counter) -> value
        self.distinct: defaultdict = defaultdict(set)
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, layer: str) -> None:
        self.stack.append([layer, self.clock(), 0.0])

    def exit(self) -> float:
        layer, start, child = self.stack.pop()
        duration = self.clock() - start
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            key = (layer, parent[0])
        else:
            key = (layer, "")
        entry = self.spans.get(key)
        if entry is None:
            self.spans[key] = [1, duration, duration - child]
        else:
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child
        return duration

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn, layer: str, hook=None, count_items: bool = False):
        enter, exit_ = self.enter, self.exit
        counts = self.counts

        def counted(items):
            for item in items:
                counts[layer, "cases"] += 1
                yield item

        def traced(*args, **kwargs):
            if count_items:
                items = args[0]
                if hasattr(items, "__len__"):
                    counts[layer, "cases"] += len(items)
                else:
                    args = (counted(items),) + args[1:]
            enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if hook is not None:
                hook(self, layer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_build(self, fn):
        enter, exit_ = self.enter, self.exit
        counts = self.counts

        def traced(*args, **kwargs):
            enter(BUILD_LAYER)
            try:
                return fn(*args, **kwargs)
            finally:
                counts["oracle.tables", "build_s"] += exit_()

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, layer: str):
        enter, exit_ = self.enter, self.exit
        counts = self.counts

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                enter(layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    exit_()
                counts[layer, "elements"] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------------

    def _rebind(self, target: str, make_wrapper) -> None:
        modname, qualname = target.split(":")
        owner = importlib.import_module(f"{PACKAGE}.{modname}")
        if "." in qualname:
            clsname, attr = qualname.split(".")
            cls = getattr(owner, clsname)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, make_wrapper(original))
            return
        original = getattr(owner, qualname)
        wrapper = make_wrapper(original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function; imports the whole package first."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        importlib.import_module(f"{PACKAGE}.cli")
        for layer, targets, hook, count_items in LAYERS:
            for target in targets:
                self._rebind(target, lambda fn, l=layer, h=hook, c=count_items: self.wrap(fn, l, h, c))
        self._rebind(BUILD_TARGET, self.wrap_build)
        self._rebind(GENERATOR_TARGET, lambda fn: self.wrap_generator(fn, GENERATOR_LAYER))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- output --------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "spans": [
                {"layer": layer, "parent": parent, "calls": c, "total_s": t, "self_s": s}
                for (layer, parent), (c, t, s) in sorted(self.spans.items())
            ],
            "counts": {f"{layer}|{name}": value for (layer, name), value in sorted(self.counts.items())},
            "distinct": {layer: len(keys) for layer, keys in sorted(self.distinct.items())},
        }
