"""Spans around the calls between hamdg's modules, for the traced run.

The tracer replaces each boundary function, in the module that calls it,
with a wrapper that records ``(name, start, end, parent, op, error,
found)`` and keeps the spans in memory.  Nothing is patched until
``install`` and everything is put back by ``uninstall``.  A boundary whose
name no longer exists at some commit is reported as absent; the run goes
on without it.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, Optional

# span name -> the (module, attribute) places its callers look it up
BOUNDARIES: dict[str, tuple[tuple[str, str], ...]] = {
    "io.parse": (("hamdg.io", "parse"),),
    "io.serialize_cycle": (("hamdg.io", "serialize_cycle"),),
    "conditions.check": (("hamdg.conditions", "check"),),
    "core.vertex_connectivity": (("hamdg.conditions", "vertex_connectivity"),),
    "core.independence_numbers": (("hamdg.conditions", "independence_numbers"),),
    "core.contract_matching": (("hamdg.solvers", "contract_matching"),),
    "core.HamiltonCycle.is_valid": (("hamdg.core", "HamiltonCycle.is_valid"),),
    "solvers.find_hamilton_cycle": (
        ("hamdg.solvers", "find_hamilton_cycle"),
        ("hamdg.decomp", "find_hamilton_cycle"),
        ("hamdg.expander", "find_hamilton_cycle"),
    ),
    "solvers.count_hamilton": (("hamdg.solvers", "count_hamilton"),),
    "solvers.hamilton_cycle_through": (
        ("hamdg.solvers", "hamilton_cycle_through"),
        ("hamdg.decomp", "hamilton_cycle_through"),
    ),
    # expander's per-cluster matchings, and one_factor's inside solvers
    "solvers.bipartite_matching": (
        ("hamdg.expander", "_bipartite_matching"),
        ("hamdg.solvers", "_bipartite_matching"),
    ),
    "solvers.rotation_extension": (("hamdg.expander", "rotation_extension"),),
    "decomp.cover_tournament": (("hamdg.decomp", "cover_tournament"),),
    "decomp.cover_regular_graph": (("hamdg.decomp", "cover_regular_graph"),),
    "decomp.greedy_extract": (("hamdg.decomp", "greedy_extract"),),
    "decomp.greedy_extract_undirected": (("hamdg.decomp", "greedy_extract_undirected"),),
    "decomp.vizing_color": (("hamdg.decomp", "vizing_color"),),
    "decomp.validate": (("hamdg.decomp", "validate"),),
    "expander.is_robust_outexpander": (("hamdg.expander", "is_robust_outexpander"),),
    "expander.make_cluster_blowup": (("hamdg.expander", "make_cluster_blowup"),),
    "expander.build_closed_walk": (("hamdg.expander", "build_closed_walk"),),
    "expander.assemble_hamilton": (("hamdg.expander", "assemble_hamilton"),),
}
# Recorded by the benchmark itself around input generation, not patched.
GEN_SPAN = "constructions.gen"
LAYERS = tuple(BOUNDARIES) + (GEN_SPAN,)


def _resolve(module: str, attr: str):
    """(owner, name) for a dotted attribute, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, name) if callable(getattr(owner, name, None)) else None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Optional[tuple]] = []
        self.op = -1  # op id stamped on new spans; -1 during set-up
        self.enabled = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []  # layers with no place left to patch
        self.missing: list[str] = []  # single places that are gone

    def _open(self) -> tuple[int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, error, found) -> None:
        self._stack.pop()
        self.spans[sid] = (name, start, perf_counter(), parent, self.op, error, found)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        sid, parent = self._open()
        start = perf_counter()
        try:
            yield
        except BaseException:
            self._close(sid, parent, name, start, True, False)
            raise
        self._close(sid, parent, name, start, False, True)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sid, parent, name, start, True, False)
                raise
            tracer._close(sid, parent, name, start, False, result is not None)
            return result

        return wrapper

    def install(self) -> None:
        self.absent, self.missing = [], []
        for name, places in BOUNDARIES.items():
            found = 0
            for module, attr in places:
                target = _resolve(module, attr)
                if target is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                owner, attr_name = target
                original = getattr(owner, attr_name)
                self._saved.append((owner, attr_name, original))
                setattr(owner, attr_name, self._wrap(name, original))
                found += 1
            if not found:
                self.absent.append(name)
        self.enabled = True

    def uninstall(self) -> None:
        for owner, attr_name, original in reversed(self._saved):
            setattr(owner, attr_name, original)
        self._saved.clear()
        self.enabled = False


def summarize(spans: list[tuple], ops: set[int]) -> dict[str, dict[str, float]]:
    """Per-layer calls, busy and self time, errors and found results over
    the spans of the given ops.  Busy time counts only the outermost span
    of a name, so a nested call is not counted twice; self time is a
    span's length minus that of its direct children (one thread, so
    children never overlap)."""
    child_time: dict[int, float] = {}
    for name, start, end, parent, op, _, _ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0, "found": 0}
           for name in LAYERS}
    for sid, (name, start, end, parent, op, error, found) in enumerate(spans):
        if op not in ops:
            continue
        row = out[name]
        row["calls"] += 1
        row["errors"] += error
        row["found"] += found
        row["self_s"] += (end - start) - child_time.get(sid, 0.0)
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["busy_s"] += end - start
    return out
