"""In-memory span recorder for the benchmark's traced runs.

A span has a name, a start and an end (``time.perf_counter`` seconds, which on
Linux is CLOCK_MONOTONIC and so comparable across processes), the id of the
span that caused it, and the id of the operation it belongs to. Spans stay in
memory and are written out once, when the run ends.

Spans are recorded from the benchmark's own files only: :meth:`Tracer.patched`
temporarily replaces a module attribute of the package with a wrapper that
opens a span around the original call. The package source is not modified.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans; one instance per traced process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        if attrs:
            rec["attrs"] = attrs
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, attrs_fn=None, skip_fn=None):
        """Return ``fn`` with a span around each call. ``attrs_fn(*args)``
        adds attributes; calls for which ``skip_fn(*args)`` is true get none."""

        def traced(*args, **kwargs):
            if skip_fn is not None and skip_fn(*args):
                return fn(*args, **kwargs)
            attrs = attrs_fn(*args) if attrs_fn is not None else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return traced

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Append spans recorded by another process under ``parent``."""
        base = len(self.spans)
        for rec in spans:
            rec = dict(rec)
            rec["id"] = base + rec["id"]
            rec["parent"] = parent if rec["parent"] is None else base + rec["parent"]
            rec["op"] = self.op
            self.spans.append(rec)

    def dump(self, path, **extra) -> None:
        """Write the spans, plus any extra fields, as one JSON object."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **extra}, fh)

    @contextmanager
    def patched(self, targets):
        """Wrap ``module.attr`` in a span named ``name`` for the duration of
        the block, for each ``(module, attr, name[, wrap_kwargs])`` target.
        Attributes the module does not have are skipped and yielded, so a
        renamed function costs its span, not the run."""
        saved, missing = [], []
        try:
            for module, attr, name, *kwargs in targets:
                if not hasattr(module, attr):
                    missing.append(f"{module.__name__}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, **(kwargs[0] if kwargs else {})))
            yield missing
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[dict]) -> list[dict]:
    """Each span with ``self``: its duration minus the time its direct
    children cover (children of one span never overlap here: the traced code
    is serial)."""
    child_time = {}
    for rec in spans:
        if rec["parent"] is not None:
            child_time[rec["parent"]] = (child_time.get(rec["parent"], 0.0)
                                         + rec["end"] - rec["start"])
    out = []
    for rec in spans:
        own = rec["end"] - rec["start"] - child_time.get(rec["id"], 0.0)
        out.append(dict(rec, self=max(own, 0.0)))
    return out
