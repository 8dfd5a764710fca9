"""Span tracer that wraps crossbell's public calls from outside the program.

``install`` replaces each traced function in every crossbell module that
binds it (teleport and oracle import several functions by name, so patching
the defining module alone would miss their calls) and wraps the traced
methods on their classes; ``uninstall`` puts the originals back. While
installed, each call records one span: id, name, start, end, parent span and
the op it belongs to. Spans stay in memory until the caller writes them out.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Iterable

# Op ids of spans outside any timed op: set-up, and the untimed input
# generation and output checks between ops.
SETUP_OP = -1
IDLE_OP = -2

MODULES = (
    "crossbell",
    "crossbell.statevec",
    "crossbell.bell",
    "crossbell.measure",
    "crossbell.teleport",
    "crossbell.oracle",
    "crossbell.cli",
)

# (defining module, attribute) pairs; spans are named "<layer>.<attribute>".
FUNCTIONS = (
    ("statevec", "cross"),
    ("statevec", "apply_local"),
    ("statevec", "fidelity"),
    ("bell", "cross_bell_state"),
    ("measure", "project_onto_bell"),
    ("measure", "bell_collapse"),
    ("measure", "bell_probabilities"),
    ("measure", "sample_kind"),
    ("teleport", "prepare_channel"),
    ("teleport", "total_state"),
    ("teleport", "corrections_for"),
    ("teleport", "recover"),
    ("teleport", "run_protocol"),
    ("teleport", "run_session"),
    ("oracle", "transfer_matrix"),
    ("oracle", "derive_correction_table"),
    ("cli", "main"),
)

# (defining module, class, method, span name)
METHODS = (
    ("statevec", "PureState", "__post_init__", "statevec.PureState"),
    ("teleport", "PipeEndpoint", "recv", "teleport.PipeEndpoint.recv"),
    ("teleport", "ClassicalMessage", "encode", "teleport.ClassicalMessage.encode"),
    ("teleport", "ClassicalMessage", "decode", "teleport.ClassicalMessage.decode"),
)


class Tracer:
    def __init__(self) -> None:
        # (id, name, start_ns, end_ns, parent id or None, op)
        self.spans: list[tuple[int, str, int, int, int | None, int]] = []
        self.op = SETUP_OP
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self._main_stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            if stack:
                parent = stack[-1]
            else:
                # a span opened on another thread (run_session's Alice) belongs
                # to whatever the installing thread has open; slicing reads
                # that stack in one step while its owner pushes and pops
                parent = (self._main_stack[-1:] or [None])[0]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.op))

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        self._main_stack = self._local.__dict__.setdefault("stack", [])
        modules = [sys.modules[m] for m in MODULES]
        for layer, attr in FUNCTIONS:
            original = getattr(sys.modules[f"crossbell.{layer}"], attr)
            wrapper = self._wrap(f"{layer}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"crossbell.{layer}"], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w") as fp:
            json.dump({"meta": meta, "fields": ["id", "name", "start_ns", "end_ns", "parent", "op"]}, fp)
            fp.write("\n")
            for span in self.spans:
                fp.write(json.dumps(span) + "\n")


def summarize(
    spans: Iterable[tuple[int, str, int, int, int | None, int]], ops: set[int]
) -> dict[str, dict[str, float]]:
    """Per span name: count and self time (seconds) over spans of ``ops``.

    Self time is a span's duration minus that of its direct children. A
    child on the span's own thread nests inside it. A span that opens on
    another thread with nothing open there is the child of the installing
    thread's innermost open span, so run_session's self time leaves out
    Alice's traced work, and PipeEndpoint.recv's leaves out whatever of it
    starts while Bob waits. The self times of one op sum to its root span's
    duration.
    """
    spans = list(spans)
    child_ns: dict[int, int] = defaultdict(int)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"count": 0, "self_s": 0.0})
    for sid, name, start, end, _, op in spans:
        if op in ops:
            entry = out[name]
            entry["count"] += 1
            entry["self_s"] += (end - start - child_ns[sid]) * 1e-9
    return dict(out)
