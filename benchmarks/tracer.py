"""In-memory span tracer that wraps metricforge's public functions.

The wrappers are installed by rebinding module attributes, so calls made
inside the library through module globals (``linalg.mat_exp`` calling
``eigendecompose``) are traced without editing the library.  A name is
wrapped at every module that binds it: the binding is reported under its
own module when that module lists the name in ``LAYERS`` (so the model
self-check is ``models.check_pseudo_hermitian``), otherwise under the
module that lists the function object.
"""

from __future__ import annotations

import functools
import json
import time

LAYERS = {
    "linalg": ["eigendecompose", "inverse", "solve", "hermitian_spectrum",
               "mat_exp", "defect_indicator"],
    "metric": ["biorthonormalize", "spectral_metric", "das_metric",
               "validate_metric", "compare_metrics", "metric_inner_product"],
    "models": ["build", "check_pseudo_hermitian"],
    "phase": ["classify", "sweep", "find_exceptional", "ep_brackets"],
    "dynamics": ["evolve", "growth_rate", "discriminate", "orthogonality_scan"],
    "cli": ["main", "dumps_canonical", "cmd_metric", "cmd_validate",
            "cmd_compare", "cmd_sweep", "cmd_ep", "cmd_evolve",
            "cmd_discriminate", "cmd_model_show"],
}

# Kernels whose work is reported as the sum of n^3 over calls.
_KERNEL_N3 = {"eigendecompose", "inverse", "solve", "hermitian_spectrum",
              "mat_exp", "defect_indicator"}


def _dim(arg) -> int:
    """Matrix dimension of a kernel's first argument (pairs list or matrix)."""
    if isinstance(arg, list):
        return len(arg)
    shape = getattr(arg, "shape", None)
    if shape:
        return int(shape[0])
    return len(arg)


class Tracer:
    """Records one span per traced call: name, start, end, parent, task.

    Recursive re-entry of the same function (``dumps_canonical`` calls
    itself) is folded into the outer span.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []   # (name_idx, t0, t1, parent, task, failed, n3)
        self.stack: list[int] = []
        self.task = -1
        self._patches: list[tuple] = []  # (module, attr, original)

    def _wrap(self, name: str, fn, kernel: bool):
        key = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == key:
                return fn(*args, **kwargs)
            idx = len(spans)
            n3 = _dim(args[0]) ** 3 if kernel and args else 0
            spans.append((key, 0.0, 0.0, stack[-1] if stack else -1,
                          self.task, False, n3))
            stack.append(idx)
            failed = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (key, t0, t1, spans[idx][3], spans[idx][4],
                              failed, n3)

        return wrapper

    def install(self, package, modules: dict, layers: dict = LAYERS) -> None:
        """Wrap every binding of a listed function in ``modules`` and in
        the package namespace.  ``modules`` maps layer name to module,
        ``layers`` maps layer name to the listed function names."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        listed = {}  # id(function) -> canonical name
        for layer, names in layers.items():
            mod = modules[layer]
            for name in names:
                fn = getattr(mod, name, None)
                if callable(fn):
                    listed.setdefault(id(fn), f"{layer}.{name}")
        wrappers = {}
        targets = [(layer, modules[layer]) for layer in layers]
        targets.append((None, package))
        for layer, mod in targets:
            for attr, value in list(vars(mod).items()):
                if id(value) not in listed:
                    continue
                if layer is not None and attr in layers[layer]:
                    name = f"{layer}.{attr}"
                else:
                    name = listed[id(value)]
                if name not in wrappers:
                    base = name.split(".", 1)[1]
                    wrappers[name] = self._wrap(name, value, base in _KERNEL_N3)
                setattr(mod, attr, wrappers[name])
                self._patches.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def summary(self) -> dict:
        """Per-name calls, self time, failures and n^3 work, plus the sum
        of self time over all spans."""
        child = [0.0] * len(self.spans)
        for key, t0, t1, parent, _, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        total_self = 0.0
        for i, (key, t0, t1, _, _, failed, n3) in enumerate(self.spans):
            name = self.names[key]
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                        "failed": 0, "work_n3": 0})
            self_s = (t1 - t0) - child[i]
            row["calls"] += 1
            row["self_s"] += self_s
            row["failed"] += int(failed)
            row["work_n3"] += n3
            total_self += self_s
        return {"functions": out, "self_total_s": total_self}

    def write(self, path: str) -> None:
        """Spans as JSON: names table plus rows
        [name, start, end, parent, task, failed]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "t0", "t1", "parent", "task",
                                   "failed"],
                       "spans": [s[:6] for s in self.spans]}, fh,
                      separators=(",", ":"))
