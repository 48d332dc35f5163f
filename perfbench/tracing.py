"""Span tracing by wrapping the package's public layer functions.

The package carries no instrumentation: ``Tracer.install`` replaces each
public function below, at every module namespace that binds it, with a
wrapper that records a span (name, start, end, parent).  Spans are kept in
flat arrays and written out at the end; self time and counts are derived
from them.  Helpers that are not listed (``kron``, the eigensolver behind
``hermitian_eigenvalues``, private functions) count toward the layer that
calls them, so a layer's self time keeps its meaning when helpers change.

Spans inside process-pool workers are not collected: workers record into
their own copy of the arrays, which is discarded when they exit.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

MODULES = ("cli", "io", "dynamics", "measures", "qla", "channels", "luo", "states")

# (module, function): the layer boundaries that get a span
TARGETS = [
    ("cli", "main"),
    ("cli", "cmd_evolve"),
    ("cli", "cmd_boundary"),
    ("cli", "cmd_scan"),
    ("io", "fmt"),
    ("io", "round9"),
    ("io", "csv_lines"),
    ("io", "json_document"),
    ("io", "matrix_to_pairs"),
    ("dynamics", "state_after_flip"),
    ("dynamics", "evolve_two_stage"),
    ("dynamics", "death_point_record"),
    ("dynamics", "death_point"),
    ("dynamics", "classify"),
    ("dynamics", "regime_boundaries"),
    ("channels", "composite_kraus"),
    ("channels", "apply_channel"),
    ("measures", "negativity"),
    ("measures", "realigned_negativity"),
    ("qla", "partial_transpose"),
    ("qla", "hermitian_eigenvalues"),
    ("qla", "trace_norm"),
    ("luo", "apply_luo"),
    ("states", "build_state"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self._patched: list[tuple[dict, object, object]] = []
        self.absent: list[str] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target at every esdlab namespace that binds it."""
        spaces = [importlib.import_module("esdlab")] + [
            importlib.import_module(f"esdlab.{m}") for m in MODULES
        ]
        for module, fname in TARGETS:
            owner = importlib.import_module(f"esdlab.{module}")
            fn = getattr(owner, fname, None)
            if not callable(fn):
                self.absent.append(f"{module}.{fname}")
                continue
            traced = self._wrap(f"{module}.{fname}", fn)
            for space in spaces:
                for attr, value in list(vars(space).items()):
                    if value is fn:
                        self._patch(vars(space), attr, traced)
                    elif type(value) is dict:  # dispatch tables such as cli.COMMANDS
                        for key, item in list(value.items()):
                            if item is fn:
                                self._patch(value, key, traced)

    def _patch(self, table: dict, key, traced) -> None:
        self._patched.append((table, key, table[key]))
        table[key] = traced

    def uninstall(self) -> None:
        for table, key, fn in reversed(self._patched):
            table[key] = fn
        self._patched.clear()

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


class Spans:
    """Counts and self times derived from a tracer's span arrays."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.absent = set(tracer.absent)
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.uint16).astype(np.int64)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).astype(np.int64)
        duration = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
        child = np.zeros_like(duration)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], duration[has_parent])
        self.self_time = duration - child

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name_id), dtype=bool)
        return self.name_id == self.names.index(name)

    def present(self, name: str) -> bool:
        return name not in self.absent

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def self_s(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans of ``name`` that have a span of ``ancestor`` above them."""
        if ancestor not in self.names:
            return 0
        target = self.names.index(ancestor)
        ids, parents = self.name_id.tolist(), self.parent.tolist()
        under = [False] * len(ids)
        for i, p in enumerate(parents):  # a parent precedes its children
            under[i] = p >= 0 and (ids[p] == target or under[p])
        return int(np.count_nonzero(np.array(under, dtype=bool) & self._mask(name)))
