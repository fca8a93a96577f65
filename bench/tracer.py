"""Span tracer that wraps traincost's public functions from outside the package.

A function is wrapped at every binding site: the module that defines it and
every other ``traincost`` module that imported it by name (``decompose`` is
bound in ``arch``, ``basecost`` and ``profile``; ``evaluate_plan`` in
``basecost``, ``tuner`` and ``cli``). Methods are wrapped on their class.

Spans are kept in memory as four flat arrays (name id, parent span, start,
end) and summarised or written out only after the traced work ends, so the
per-call cost is a few appends. Nothing in ``src/`` is modified on disk;
``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array


class Tracer:
    def __init__(self, targets, observers=None):
        """targets: (module name, attribute path, span name) triples, where
        the attribute path is ``func`` or ``Class.method``.
        observers: {(binding module, attribute): fn(args, kwargs, result)}
        called after each call made through that one binding; result is
        None when the call raised."""
        self.targets = list(targets)
        self.observers = dict(observers or {})
        self.names = [span_name for _, _, span_name in self.targets]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.sites: dict[str, list[str]] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "traincost"
                                           or name.startswith("traincost."))}
        self.missing, self.sites = [], {}
        for nid, (module_name, path, span_name) in enumerate(self.targets):
            module = modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            if owner_name:
                self._bind(owner, attr, self._wrap(nid, original, None))
                self.sites[span_name] = [f"{module_name}.{path}"]
                continue
            sites = []
            for bound_name, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        observer = self.observers.get((bound_name, key))
                        self._bind(mod, key, self._wrap(nid, original, observer))
                        sites.append(f"{bound_name}.{key}")
            self.sites[span_name] = sorted(sites)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _bind(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, nid, fn, observer):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            result = None
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end[i] = clock()
                stack.pop()
                if observer is not None:
                    observer(args, kwargs, result)

        return traced

    # -- summaries ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds (the
        span minus the time its wrapped children cover)."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            dur = end[i] - start[i]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def write(self, path: str) -> None:
        """Write every span as gzipped columnar JSON."""
        base = self.start[0] if len(self.start) else 0.0
        payload = {
            "names": self.names,
            "sites": self.sites,
            "name": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start_s": [round(t - base, 9) for t in self.start],
            "end_s": [round(t - base, 9) for t in self.end],
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))
