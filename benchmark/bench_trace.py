"""Outside-in tracer for the ``amaldup`` package.

The package binds names with ``from .linalg import rank_nullspace`` and
similar imports, so a function is reachable under several module
namespaces.  :class:`Tracer` wraps every public function of each layer
module once and rebinds the wrapper in every ``amaldup`` namespace that
binds the original; ``Subspace.from_spanning`` is wrapped on its class.
Nothing in the package is edited: the patch is applied at run time and
removed by :meth:`Tracer.uninstall`.

Each call becomes one span ``(name, parent, start, end, count)`` kept in
memory.  ``parent`` is the index of the enclosing span (``-1`` at the
root) and ``count`` is the value of the function's counter, if it has
one (see ``COUNTERS``).  :func:`layer_metrics` turns the spans of one
traced pass into the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import statistics
import sys
import time
import types

LAYERS = ("linalg", "algebra", "spectrum", "ideals", "multipliers", "duals",
          "derivations", "sampling", "audit", "bundles", "cli")

CLI_COMMANDS = ("validate", "duplicate", "spectrum", "semisimple",
                "multipliers", "arens", "centres", "derivations", "cyclic",
                "property-h", "amenability")

AUDIT_FAMILIES = ("associativity", "spectrum", "arens", "centres",
                  "multipliers", "derivations", "transfers", "cyclic_blocks",
                  "unital_form", "ideals", "splitting", "maximal_blocks",
                  "maximality")


def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _second(args, kwargs, key):
    return args[1] if len(args) > 1 else kwargs[key]


def _cells(args, kwargs, result, exc):
    shape = getattr(_first(args, kwargs, "m"), "shape", ())
    return shape[0] * shape[1] if len(shape) == 2 else 0


def _kept_of_attempted(args, kwargs, result, exc):
    vectors = _first(args, kwargs, "vectors")
    if isinstance(vectors, (list, tuple)):
        attempted = len(vectors)
    else:
        shape = getattr(vectors, "shape", ())
        attempted = shape[1] if len(shape) == 2 else 1
    return (0 if result is None else result.dim, attempted)


def _cohomology_key(args, kwargs, result, exc):
    alg = _first(args, kwargs, "alg")
    digest = hashlib.blake2b(alg.mult.tobytes(), digest_size=16).hexdigest()
    return f"{alg.mult.shape[0]}:{digest}:{_second(args, kwargs, 'n')}"


def _violation(args, kwargs, result, exc):
    return int(type(exc).__name__ == "SpectrumTheoremViolation")


# Counters recorded at the layer boundary: f(args, kwargs, result, exc).
COUNTERS = {
    "linalg.rank_nullspace": _cells,
    "linalg.from_spanning": _kept_of_attempted,
    "linalg.solve_affine": lambda a, k, result, exc: int(exc is None and result is None),
    "derivations.derivation_constraints":
        lambda a, k, result, exc: 0 if result is None else result.shape[0],
    "derivations.cohomology": _cohomology_key,
    "spectrum.characters": lambda a, k, result, exc: 0 if result is None else len(result),
    "spectrum.duplication_spectrum": _violation,
}


class Tracer:
    """Wraps ``amaldup``'s public functions and records one span per call."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._patched: list = []

    def install(self) -> None:
        package = sys.modules["amaldup"]
        namespaces = [package] + [sys.modules[f"amaldup.{layer}"] for layer in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"amaldup.{layer}"]
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and isinstance(obj, types.FunctionType):
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)])
        subspace = sys.modules["amaldup.linalg"].Subspace
        original = subspace.__dict__["from_spanning"]
        self._patched.append((subspace, "from_spanning", original))
        subspace.from_spanning = staticmethod(
            self.wrap("linalg.from_spanning", original.__func__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, start, end,
                              count(args, kwargs, None, exc) if count else None)
                raise
            end = clock()
            stack.pop()
            spans[sid] = (name, parent, start, end,
                          count(args, kwargs, result, None) if count else None)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one op."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, parent, start, end, None)

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def aggregate(spans: list) -> dict:
    """Per-name calls, total (outermost) time, self time, durations, counts."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict = {}
    open_names: dict = {}
    stack: list = []
    for sid, (name, parent, start, end, count) in enumerate(spans):
        while stack and stack[-1] != parent:
            open_names[spans[stack.pop()][0]] -= 1
        st = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                     "durations": [], "counts": []})
        dur = end - start
        st["calls"] += 1
        if not open_names.get(name):
            st["total_s"] += dur  # recursion counted once, at the outermost call
        st["self_s"] += dur - child_time[sid]
        st["durations"].append(dur)
        if count is not None:
            st["counts"].append(count)
        stack.append(sid)
        open_names[name] = open_names.get(name, 0) + 1
    return stats


def _ratio(pairs) -> float:
    kept = sum(k for k, _ in pairs)
    attempted = sum(a for _, a in pairs)
    return kept / attempted if attempted else 0.0


def _summed(st) -> int:
    return sum(st["counts"])


# metric suffix -> (unit, value from one function's aggregate)
FIELDS = {
    "calls": ("count", lambda st: st["calls"]),
    "total_s": ("s", lambda st: st["total_s"]),
    "self_s": ("s", lambda st: st["self_s"]),
    "cells": ("count", _summed),
    "rows": ("count", _summed),
    "rejected": ("count", _summed),
    "found": ("count", _summed),
    "violations": ("count", _summed),
    "kept_ratio": ("ratio", lambda st: _ratio(st["counts"])),
    "distinct_ratio": ("ratio", lambda st: (len(set(st["counts"])) / st["calls"]
                                            if st["calls"] else 0.0)),
    "p50_ms": ("ms", lambda st: (statistics.median(st["durations"]) * 1e3
                                 if st["durations"] else 0.0)),
}

# function span name -> metric fields, in the order they are reported
PER_LAYER = {
    "linalg.rank_nullspace": ("calls", "self_s", "cells"),
    "linalg.from_spanning": ("calls", "self_s", "kept_ratio"),
    "linalg.solve_affine": ("calls", "self_s", "rejected"),
    "linalg.subspace_intersect": ("calls", "self_s"),
    "derivations.derivation_constraints": ("calls", "self_s", "rows"),
    "derivations.derivation_space": ("calls", "total_s"),
    "derivations.derivation_quadruple_space": ("calls", "total_s", "self_s"),
    "derivations.cohomology": ("calls", "total_s", "distinct_ratio"),
    "derivations.cyclic_derivation_space": ("calls", "total_s"),
    "derivations.property_h": ("calls", "total_s"),
    "derivations.is_inner_match": ("calls", "total_s"),
    "multipliers.commutant_constraints": ("calls", "self_s"),
    "multipliers.multiplier_space": ("calls", "total_s"),
    "multipliers.quadruple_space": ("calls", "total_s", "self_s"),
    "spectrum.characters": ("calls", "total_s", "found"),
    "spectrum.duplication_spectrum": ("calls", "total_s", "violations"),
    "duals.duplication_nth_dual": ("calls", "total_s"),
    "duals.topological_centres": ("calls", "total_s"),
    "ideals.is_maximal_left_ideal": ("calls", "total_s"),
    "ideals.maximality_direction_oracle": ("calls", "total_s"),
    "ideals.ideal_generated": ("calls", "total_s"),
    "algebra.duplicate": ("calls", "total_s"),
    "algebra.validate_algebra": ("calls", "self_s"),
    "algebra.validate_action": ("calls", "self_s"),
    "sampling.random_triple": ("calls", "total_s"),
    "bundles.parse_bundle": ("calls", "total_s"),
}
PER_LAYER.update({f"audit.audit_{fam}": ("total_s",) for fam in AUDIT_FAMILIES})

_EMPTY = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "counts": []}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {f"{fn}.{field}": FIELDS[field][0]
             for fn, fields in PER_LAYER.items() for field in fields}
    units.update({f"cli.{cmd}.p50_ms": "ms" for cmd in CLI_COMMANDS})
    units["trace.overhead_s"] = "s"
    return units


def layer_metrics(spans: list) -> dict:
    """Per-layer metric values of one traced pass (without the overhead)."""
    stats = aggregate(spans)
    out = {}
    for fn, fields in PER_LAYER.items():
        st = stats.get(fn, _EMPTY)
        for field in fields:
            out[f"{fn}.{field}"] = FIELDS[field][1](st)
    for cmd in CLI_COMMANDS:
        st = stats.get(f"cli.cmd_{cmd.replace('-', '_')}", _EMPTY)
        out[f"cli.{cmd}.p50_ms"] = FIELDS["p50_ms"][1](st)
    return out


def write_spans(path, passes: list) -> None:
    """One JSON line per span: pass, id, parent, name, start, end, count."""
    with open(path, "w", encoding="utf-8") as fh:
        for p, spans in enumerate(passes):
            for sid, (name, parent, start, end, count) in enumerate(spans):
                fh.write(json.dumps([p, sid, parent, name, start, end, count]))
                fh.write("\n")
