"""In-memory span tracer wrapped around the library's layer boundaries.

Each traced call records one span: name, start, end and the span that was
open when it began (its parent).  Spans live in flat arrays so that
hundreds of thousands of leaf calls stay cheap, and are written out once
at the end.  A span's self time is its duration minus the durations of
its direct children.

Several library modules import functions by name (for example
`nonsingular` does `from .kempe import kempe_components`), so a wrapper is
installed in every namespace that binds the original object, not only in
the defining module.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (layer, span name, module, attribute); a span name may depend on the call
# arguments through SPAN_NAMERS below.  `verify` and `cli` are front ends and
# are not layers.
TARGETS = (
    ("lattice", "lattice.build", "kempetorus.lattice", "build"),
    ("coloring", "coloring.is_proper", "kempetorus.coloring", "is_proper"),
    ("coloring", "coloring.random_start", "kempetorus.coloring",
     "random_proper_coloring"),
    ("coloring", "coloring.three_coloring", "kempetorus.coloring",
     "three_coloring"),
    ("degree", "degree.degree", "kempetorus.degree", "degree"),
    ("kempe", "kempe.wsk_step", "kempetorus.kempe", "wsk_step"),
    ("kempe", "kempe.components", "kempetorus.kempe", "kempe_components"),
    ("statespace", "statespace.kempe_classes", "kempetorus.statespace",
     "kempe_classes"),
    ("statespace", "statespace.enumerate", "kempetorus.statespace",
     "enumerate_colorings"),
    ("statespace", "statespace.dfs", "kempetorus.statespace", "_dfs"),
    ("statespace", "statespace.neighbor_keys", "kempetorus.statespace",
     "PackedKempe.neighbor_keys"),
    ("statespace", "statespace.canonical", "kempetorus.statespace",
     "canonical_packed"),
    ("statespace", "statespace.visited", "kempetorus.statespace",
     "_bfs_class_stats"),
    ("construct", "construct.witness", "kempetorus.construct",
     "construct_deg6_symmetric"),
    ("nonsingular", "nonsingular.reduce", "kempetorus.nonsingular",
     "ns_minimal_reduce"),
    ("nonsingular", "nonsingular.check", "kempetorus.nonsingular",
     "check_ns_minimal_structure"),
)
LAYERS = ("lattice", "coloring", "degree", "kempe", "statespace", "construct",
          "nonsingular")


def _enumerate_name(args, kwargs):
    return f"statespace.enumerate.t{kwargs.get('threads', 1)}"


SPAN_NAMERS = {"statespace.enumerate": _enumerate_name}


def _enumerate_counts(args, kwargs, result):
    return {f"statespace.dfs.t{kwargs.get('threads', 1)}.nodes": result.nodes}


def _class_counts(args, kwargs, result):
    return {"statespace.states": result.total,
            "statespace.classes": result.num_classes}


# per-call counters taken from a call's arguments and result
COUNTERS = {
    "statespace.enumerate": _enumerate_counts,
    "statespace.kempe_classes": _class_counts,
    "statespace.neighbor_keys":
        lambda a, kw, r: {"statespace.neighbor_keys.keys": len(r)},
    "kempe.components":
        lambda a, kw, r: {"kempe.components.found": len(r)},
    "nonsingular.reduce":
        lambda a, kw, r: {"nonsingular.reduce.moves": len(r[1])},
}


def _resolve(module: str, attr: str):
    """(owner, attribute name, original) or None when the target is gone."""
    mod = sys.modules.get(module)
    if mod is None:
        return None
    owner = mod
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name, getattr(owner, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self.missing: list[str] = []
        self.layer_of: dict[str, str] = {}

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, name: str) -> int:
        i = len(self.nid)
        self.nid.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        namer = SPAN_NAMERS.get(name)
        counter = COUNTERS.get(name)
        begin, finish, counters = self.begin, self.finish, self.counters

        def traced(*args, **kwargs):
            i = begin(namer(args, kwargs) if namer else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(i)
            if counter is not None:
                for k, v in counter(args, kwargs, result).items():
                    counters[k] = counters.get(k, 0) + v
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, extra_namespaces=()) -> None:
        """Wrap every target in every namespace that binds it.

        A target the library no longer has is listed in `missing`; the
        traced run counts each one as a failed check.
        """
        namespaces = [m for k, m in list(sys.modules.items())
                      if k == "kempetorus" or k.startswith("kempetorus.")]
        namespaces.extend(extra_namespaces)
        for layer, name, module, attr in TARGETS:
            self.layer_of[name] = layer
            found = _resolve(module, attr)
            if found is None:
                if f"{module}.{attr}" not in self.missing:
                    self.missing.append(f"{module}.{attr}")
                continue
            owner, attr_name, original = found
            wrapper = self.wrap(name, original)
            if owner not in namespaces:  # a class attribute (method)
                self._installed.append((owner, attr_name, original))
                setattr(owner, attr_name, wrapper)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._installed.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._installed):
            setattr(ns, key, original)
        self._installed.clear()

    # ---- aggregation -------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self.nid, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def summary(self) -> dict:
        """name -> {calls, total_s, self_s} over every recorded span."""
        nid, parent, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        selfs = np.bincount(nid, weights=self_s, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(selfs[i])}
                for i, name in enumerate(self.names)}

    def layer_of_span(self, name: str) -> str | None:
        for prefix, layer in self.layer_of.items():
            if name == prefix or name.startswith(prefix + "."):
                return layer
        return None

    def save(self, path) -> None:
        nid, parent, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=nid,
                            parent=parent, start=start, end=end)
