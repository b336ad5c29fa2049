"""Per-layer tracing of `wberg` from outside the package.

`Tracer` wraps every public function of the layer modules, plus a few hot
methods, and rebinds each wrapper wherever the original is bound: in every
`wberg` module namespace that imported it and in module-level dispatch
tables.  Nothing under `src/` changes; `uninstall` restores the originals.

Spans nest through a stack, so a function's self time is its duration minus
the durations of the traced calls it made.  Spans are aggregated in memory
per function (calls, total and self seconds, plus computed counters) rather
than stored one by one.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

LAYER_MODULES = ("series", "linalg", "hyper", "bergman", "dilation", "charfn",
                 "pipelines", "config")

# (module, class, attribute, span name)
METHODS = (
    ("linalg", "Operator", "__init__", "linalg.Operator.init"),
    ("linalg", "Operator", "norm", "linalg.Operator.norm"),
    ("linalg", "Operator", "is_hermitian", "linalg.Operator.is_hermitian"),
    ("series", "TruncatedSeries", "mul", "series.TruncatedSeries.mul"),
    ("hyper", "OperatorTuple", "__post_init__", "hyper.OperatorTuple.init"),
)


def _hereditary_counts(args, kwargs, result):
    # hereditary_apply(coeffs, t, x): a power stack of `count` d x d matrices,
    # two batched products with it, then a weighted sum of the terms
    coeffs, t = args[0], args[1]
    nz = np.flatnonzero(np.asarray(coeffs))
    count = int(nz[-1]) + 1 if nz.size else 0
    d = t.mat.shape[0]
    flops = 8 * d**3 * max(3 * count - 1, 0) + 4 * count * d * d
    return {"terms": count, "flops": flops}


# Counters computed from a call's arguments and result, by span name.
COUNTERS = {
    "linalg.Operator.init": lambda a, k, r: {"bytes": a[0].mat.nbytes},
    "hyper.hereditary_apply": _hereditary_counts,
    "hyper.defect_limit": lambda a, k, r: {"grid_levels": len(r.r_trace)},
    "hyper.conjugation_limit": lambda a, k, r: {"doublings": r[2]},
    "hyper.is_W_hypercontraction": lambda a, k, r: {"certificates": len(r.certificates)},
    "bergman.shift_matrix": lambda a, k, r: {"entries": r.mat.size},
    "dilation.pure_dilation": lambda a, k, r: {"model_dim": r.map.rows},
    "dilation.general_model": lambda a, k, r: {"model_dim": r.map.rows},
    "config.report_json": lambda a, k, r: {"bytes": len(r.encode())},
}


class Tracer:
    """Aggregating span recorder for the `wberg` layer modules."""

    def __init__(self) -> None:
        self.stats: dict[str, dict[str, float]] = {}
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._build()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        counter = COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats["calls"] += 1
                stats["total_s"] += elapsed
                stats["self_s"] += elapsed - frame[0]
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    stats[key] = stats.get(key, 0) + value
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _build(self) -> None:
        names: dict[int, tuple[str, object]] = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"wberg.{short}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    names[id(obj)] = (f"{short}.{attr}", obj)
        wrappers = {key: self._wrap(name, obj) for key, (name, obj) in names.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "wberg" or mod_name.startswith("wberg.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and names[id(value)][1] is value:
                    self._patches.append((mod, attr, value, wrappers[id(value)]))
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in value.items():
                        if id(item) in wrappers and names[id(item)][1] is item:
                            self._patches.append((value, key, item, wrappers[id(item)]))
        for short, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"wberg.{short}"], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original, self._wrap(name, original)))

    @property
    def wrapped_names(self) -> int:
        return len(self.stats)

    def _set(self, use_wrapper: bool) -> None:
        for owner, attr, original, wrapper in self._patches:
            value = wrapper if use_wrapper else original
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def install(self) -> None:
        self._set(True)

    def uninstall(self) -> None:
        self._set(False)
