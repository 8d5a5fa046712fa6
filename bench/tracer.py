"""Spans around the public functions of every adicdyn module, from outside.

install() rebinds every public function in every loaded ``adicdyn*``
module -- the defining module and every module that imported the name -- to
one shared wrapper per function, and wraps the ``__post_init__`` validation
hook of the dataclasses listed in HOOKS.  Nothing under ``src/`` changes;
uninstall() puts the original objects back.

A span's self time is its duration minus the time covered by its child
spans.  Self time and call counts are aggregated online (a stack of open
spans), so memory stays flat however many calls a run makes; the raw spans
of the first MAX_KEPT_SPANS calls are kept in memory as well and written
out when the run ends.  Time spent in private helpers and methods is
charged to the public span that called them, whatever module they live in.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module suffix, class name) -> per-layer counter name
HOOKS = {
    ("supernatural", "Supernatural"): "supernatural.validated",
    ("supernatural", "RegularSeq"): "supernatural.regularseq_validated",
    ("dynsys", "FinSystem"): "dynsys.systems_validated",
    ("dynsys", "PeriodicPartition"): "dynsys.partitions_validated",
    ("dynsys", "PartitionChain"): "dynsys.chains_validated",
    ("odometer", "AdicInt"): "odometer.adicint_validated",
    ("odometer", "BaseSequence"): "odometer.base_validated",
}

MAX_KEPT_SPANS = 50_000
ENUMERATE = "dynsys.enumerate_compatible"


class Tracer:
    """Collects spans while ``active``; a pass-through otherwise."""

    def __init__(self):
        self.active = False
        self.request_id = 0
        self._stack = []  # open spans: [span id, child time]
        self._next_id = 0
        self.self_s = defaultdict(float)  # span name -> summed self time
        self.calls = Counter()  # span name -> completed spans
        self.layer_of = {}  # span name -> layer
        self.hooks = Counter()  # HOOKS counter name -> runs
        self.kept = []  # (request, span, parent, name, start, end)
        self.enum_open = 0  # enumerate_compatible spans currently open
        self.enum_validated = 0  # partitions validated inside them
        self.enum_returned = 0  # partitions they returned
        self.absent = []  # hooks or names missing from this version
        self._undo = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn as one span called ``name``; the benchmark's own root spans
        go through here too."""
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][0] if stack else -1
        frame = [span_id, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self.self_s[name] += duration - frame[1]
            self.calls[name] += 1
            if len(self.kept) < MAX_KEPT_SPANS:
                self.kept.append((self.request_id, span_id, parent, name, start, end))

    def _wrap(self, fn, name: str, layer: str):
        self.layer_of[name] = layer
        tracer = self

        if name == ENUMERATE:
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                tracer.enum_open += 1
                try:
                    out = tracer.span(name, fn, *args, **kwargs)
                finally:
                    tracer.enum_open -= 1
                tracer.enum_returned += len(out)
                return out
        else:
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                return tracer.span(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _wrap_hook(self, fn, name: str, layer: str, counter: str):
        self.layer_of[name] = layer
        tracer = self
        is_partition = counter == "dynsys.partitions_validated"

        def hook(obj):
            if not tracer.active:
                return fn(obj)
            tracer.hooks[counter] += 1
            if is_partition and tracer.enum_open:
                tracer.enum_validated += 1
            return tracer.span(name, fn, obj)

        hook.__wrapped__ = fn
        return hook

    # -- install / uninstall ---------------------------------------------

    def install(self, expected) -> None:
        """Wrap every binding of every public adicdyn function, and the
        validation hooks.  Missing hooks, and names in ``expected`` (spans
        the caller's metrics read) that no module defines, are recorded in
        ``absent``."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "adicdyn" or k.startswith("adicdyn."))]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = getattr(value, "__module__", "") or ""
                if not home.startswith("adicdyn") or value.__name__.startswith("_"):
                    continue
                if id(value) not in wrappers:
                    layer = home.rsplit(".", 1)[-1]
                    wrappers[id(value)] = self._wrap(value, f"{layer}.{value.__name__}", layer)
                self._undo.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        for (layer, cls_name), counter in HOOKS.items():
            cls = getattr(sys.modules.get(f"adicdyn.{layer}"), cls_name, None)
            fn = vars(cls).get("__post_init__") if isinstance(cls, type) else None
            if fn is None:
                self.absent.append(f"{layer}.{cls_name}.__post_init__")
                continue
            self._undo.append((cls, "__post_init__", fn))
            setattr(cls, "__post_init__",
                    self._wrap_hook(fn, f"{layer}.{cls_name}.__post_init__", layer, counter))
        self.absent += [n for n in expected if n not in self.layer_of]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(t for n, t in self.self_s.items() if self.layer_of.get(n) == layer)

    def layer_calls(self, layer: str) -> int:
        # public-function spans only; validation hooks are counted apart
        return sum(c for n, c in self.calls.items()
                   if self.layer_of.get(n) == layer and not n.endswith(".__post_init__"))

    def write(self, path) -> None:
        """Write the kept spans and the aggregates as one JSON document."""
        doc = {
            "fields": ["request", "span", "parent", "name", "start_s", "end_s"],
            "spans": self.kept,
            "kept": len(self.kept),
            "total_spans": sum(self.calls.values()),
            "self_s": dict(sorted(self.self_s.items())),
            "calls": dict(sorted(self.calls.items())),
            "absent": self.absent,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
