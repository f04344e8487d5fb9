"""Per-layer tracing from outside the package.

Each traced public function is replaced, at every module attribute of the
package that refers to it, by a wrapper that records one span per call:
name, start, end, parent span and command id.  Spans are kept in memory as
flat arrays and written out once, at the end of the run.  Self time is the
span minus the spans of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, attribute path) of every traced public function, by layer.
TARGETS = (
    ("generator", "gen_domain"),
    ("geometry", "parse_domain"),
    ("geometry", "require_valid"),
    ("geometry", "horizontal_decomposition"),
    ("geometry", "vertical_decomposition"),
    ("geometry", "locate"),
    ("graph", "build_graph"),
    ("graph", "all_pairs"),
    ("graph", "summarize"),
    ("metrics", "diameter_edge_scan"),
    ("metrics", "diameter_matmul"),
    ("metrics", "diameter_fast"),
    ("metrics", "radius_edge_scan"),
    ("metrics", "radius_matmul"),
    ("metrics", "small_case_fallback"),
    ("metrics", "point_distance"),
    ("metrics", "bool_product"),
    ("crossing", "CrossingStore.reset"),
    ("crossing", "CrossingStore.pop_crossing"),
    ("oracle", "build_grid"),
    ("oracle", "GridModel.faces"),
    ("oracle", "GridModel.costs_from"),
    ("oracle", "oracle_diameter"),
    ("oracle", "oracle_radius"),
    ("oracle", "oracle_distance"),
    ("oracle", "oracle_eccentricity"),
    ("pipeline", "prepare"),
    ("pipeline", "run_verify"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{module}.{attr}" for module, attr in TARGETS)
PACKAGE = "rectilink"


class Tracer:
    """Installs the wrappers, collects spans and per-name totals."""

    def __init__(self):
        self.command_id = -1
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.self_s = [0.0] * len(TARGETS)
        self.calls = [0] * len(TARGETS)
        self._stack: list[list] = []  # [span id, child seconds]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = len(self.start)
            parent = self._stack[-1][0] if self._stack else -1
            self.start.append(0.0)
            self.end.append(0.0)
            self.name.append(index)
            self.parent.append(parent)
            self.command.append(self.command_id)
            frame = [span, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[span] = t0
                self.end[span] = t1
                self.self_s[index] += (t1 - t0) - frame[1]
                self.calls[index] += 1
                if self._stack:
                    self._stack[-1][1] += t1 - t0

        return traced

    def install(self) -> None:
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for index, (module_name, attr) in enumerate(TARGETS):
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            if module is None:
                continue
            owner_name, _, func_name = attr.rpartition(".")
            if owner_name:  # a method: wrap it on its class
                owner = getattr(module, owner_name, None)
                raw = owner.__dict__.get(func_name) if owner is not None else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(index, raw.__func__))
                else:
                    replacement = self._wrap(index, raw)
                self._set(owner, func_name, replacement)
                continue
            func = getattr(module, func_name, None)
            if func is None:
                continue
            wrapper = self._wrap(index, func)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is func:
                        self._set(mod, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Self seconds and calls per traced function; 0 for a function the package lacks."""
        return {name: {"self_s": self.self_s[i], "calls": self.calls[i]} for i, name in enumerate(SPAN_NAMES)}

    def write_spans(self, path) -> None:
        """One JSON object per line: id, name, start, end, parent, command."""
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": SPAN_NAMES[self.name[i]],
                            "start": self.start[i],
                            "end": self.end[i],
                            "parent": self.parent[i],
                            "command": self.command[i],
                        }
                    )
                    + "\n"
                )


def wrapper_cost_s(calls: int = 20000) -> float:
    """Seconds one traced call adds over a direct call, measured on a no-op."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer._wrap(0, noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    direct = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - t0 - direct) / calls)
