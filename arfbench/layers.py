"""Per-layer spans and counters, taken from outside the package.

`install()` replaces the public callables of each arfcurves module with
wrappers that time every call and count calls, in every module namespace
that holds the same object, and on the classes for methods.  Calls made
inside a module go through its globals, so the wrappers see those too.
`uninstall()` puts the originals back.

A span's self time is its duration minus that of the wrapped calls made
directly inside it; a layer's self time is the sum over its spans, which
is the time during which the innermost wrapped call belongs to the layer.
Inclusive times per callable count only the outermost call of each name.
"""

import inspect
import sys
import time
from collections import defaultdict

# Series accessors such as order() and is_zero() are left unwrapped: they
# run far more often than the arithmetic, and a wrapper would cost more than
# their body; their time stays with the caller's layer.
SERIES_METHODS = ("__add__", "__sub__", "__mul__", "__truediv__", "scale")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.coef_products = 0
        self.grid_cells = 0
        self._stack = []
        self._depth = defaultdict(int)
        self._restore = []

    def reset(self):
        self.calls.clear()
        self.inclusive.clear()
        self.self_time.clear()
        self.coef_products = 0
        self.grid_cells = 0

    def wrap(self, layer, name, fn):
        stack, depth = self._stack, self._depth
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        clock = time.perf_counter
        key = "%s.%s" % (layer, name)
        if key == "series.TruncatedSeries.__mul__":
            def hook(args):
                self.coef_products += len(args[0].coefficients) * len(args[1].coefficients)
        elif layer == "kernels":
            def hook(args):
                self.grid_cells += int(args[1].size)
        else:
            hook = None

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            outer = depth[key]
            depth[key] = outer + 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self_time[layer] += elapsed - frame[0]
                depth[key] = outer
                if not outer:
                    inclusive[key] += elapsed
                calls[key] += 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        import arfcurves  # noqa: F401  (loads every module)
        from arfcurves import (branch_ring, char_vectors, good_semigroup, kernels,
                               mult_tree, numerical, series)
        modules = {"series": series, "branch_ring": branch_ring, "mult_tree": mult_tree,
                   "good_semigroup": good_semigroup, "kernels": kernels,
                   "char_vectors": char_vectors, "numerical": numerical}
        namespaces = [m for n, m in sys.modules.items()
                      if n == "arfcurves" or n.startswith("arfcurves.")]
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    if layer == "kernels" and not name.startswith("first_"):
                        continue
                    wrapped = self.wrap(layer, name, obj)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._set(ns, attr, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(layer, obj)

    def _wrap_class(self, layer, cls):
        if layer == "series":
            names = SERIES_METHODS
        else:
            names = ["__init__"] + [n for n, v in vars(cls).items()
                                    if not n.startswith("_") and isinstance(v, classmethod)]
        for name in names:
            raw = vars(cls).get(name)
            if raw is None:
                continue
            label = "%s.%s" % (cls.__name__, name)
            if isinstance(raw, classmethod):
                self._set(cls, name, classmethod(self.wrap(layer, label, raw.__func__)))
            else:
                self._set(cls, name, self.wrap(layer, label, raw))

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr) if not inspect.isclass(owner)
                              else vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def counts(self):
        """The counters that must repeat exactly between identical rounds."""
        c = self.calls
        return {
            "series.mul_calls": c["series.TruncatedSeries.__mul__"],
            "series.div_calls": c["series.TruncatedSeries.__truediv__"],
            "series.coef_products": self.coef_products,
            "branch_ring.is_local_ring_calls": c["branch_ring.is_local_ring"],
            "branch_ring.blowup_calls": c["branch_ring.blowup"],
            "mult_tree.tree_to_semigroup_calls": c["mult_tree.tree_to_semigroup"],
            "kernels.calls": sum(v for k, v in c.items() if k.startswith("kernels.")),
            "kernels.grid_cells": self.grid_cells,
            "char_vectors.closure_calls": c["char_vectors.smallest_arf_containing"],
            "numerical.arf_closure_calls": c["numerical.arf_closure"],
        }

    def times(self):
        i, s = self.inclusive, self.self_time
        return {
            "series.self_s": s["series"],
            "branch_ring.locality_s": i["branch_ring.is_local_ring"],
            "branch_ring.blowup_s": i["branch_ring.blowup"],
            "branch_ring.value_set_s": i["branch_ring.value_set"],
            "branch_ring.self_s": s["branch_ring"],
            "mult_tree.tree_to_semigroup_s": i["mult_tree.tree_to_semigroup"],
            "mult_tree.semigroup_to_tree_s": i["mult_tree.semigroup_to_tree"],
            "mult_tree.canonical_form_s": i["mult_tree.canonical_form"],
            "mult_tree.self_s": s["mult_tree"],
            "kernels.min_s": i["kernels.first_min_violation"],
            "kernels.sum_s": i["kernels.first_sum_violation"],
            "kernels.lift_s": i["kernels.first_lift_violation"],
            "good_semigroup.is_good_s": i["good_semigroup.is_good"],
            "good_semigroup.is_arf_good_s": i["good_semigroup.is_arf_good"],
            "good_semigroup.self_s": s["good_semigroup"],
            "char_vectors.build_s": i["char_vectors.build_character_vectors"],
            "char_vectors.reduce_s": i["char_vectors.reduce_characters"],
            "char_vectors.closure_s": i["char_vectors.smallest_arf_containing"],
            "numerical.self_s": s["numerical"],
        }
