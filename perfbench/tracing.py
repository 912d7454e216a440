"""Spans around flagmaps' public functions, installed from outside the package.

``Tracer.install`` replaces each traced function by a timing wrapper in
every flagmaps module that binds it, so calls between modules are seen
as well as calls from the benchmark; ``uninstall`` puts the originals
back.  A span records its name, start, end and parent span.  Spans stay
in memory; ``layer_stats`` reduces them and ``dump`` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import json
import resource
import time
from array import array
from dataclasses import dataclass, field

# Traced functions by defining module; a span is named "<module>.<function>".
TRACED = {
    "core": (
        "surface_invariants", "boundary_components", "validate",
        "canonical_form", "is_isomorphic", "relabel",
    ),
    "census": ("enumerate_flag_systems", "stability_census", "census_csv"),
    "symmetry": ("automorphism_group", "symmetry_class", "stability_report"),
    "covers": ("orientable_double_cover", "lift_automorphisms", "quotient_by"),
    "mapjson": ("parse",),
    "grouplevel": ("regular_cells", "quotient_analysis"),
    "cli": ("analysis_summary",),
}
TRACED_METHODS = {"core": (("FlagSystem", "require_valid"),)}
# Modules whose namespace may bind a traced function.
BINDING_MODULES = (
    "core", "census", "symmetry", "covers", "mapjson", "grouplevel", "cli",
    "verify", "operations", "families",
)
# A generator gets one span, and one call, per next(); spans that produce
# an item count it.
GENERATORS = frozenset({"census.enumerate_flag_systems"})
# Spans of these also record the rise of the process's peak RSS.
RSS_TRACED = frozenset({"symmetry.automorphism_group", "covers.orientable_double_cover"})

ROOT = "bench.unit"


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flags = array("q")
        self.rss_kb = array("q")
        self.items = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int, flags: int = 0, rss: bool = False) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.flags.append(flags)
        self.rss_kb.append(_maxrss_kb() if rss else 0)
        self.items.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int, rss: bool = False) -> None:
        self.end[i] = time.perf_counter()
        if rss:
            self.rss_kb[i] = _maxrss_kb() - self.rss_kb[i]
        self._stack.pop()

    @contextlib.contextmanager
    def root(self):
        """The span that holds one workload unit."""
        i = self.open(self._id(ROOT))
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        rss = name in RSS_TRACED
        tracer = self

        if name in GENERATORS:
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = tracer.open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer.close(i)
                        return
                    except BaseException:
                        tracer.close(i)
                        raise
                    tracer.close(i)
                    tracer.items[i] = 1
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            flags = getattr(args[0], "flags", 0) if args else 0
            i = tracer.open(nid, flags if isinstance(flags, int) else 0, rss)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i, rss)
        return traced

    def install(self, package) -> None:
        """Wrap every traced function at each of its binding sites."""
        modules = {m: getattr(package, m) for m in BINDING_MODULES}
        wrappers: dict[int, object] = {}
        for mod, names in TRACED.items():
            for fname in names:
                fn = getattr(modules[mod], fname)
                wrappers[id(fn)] = self.wrap(f"{mod}.{fname}", fn)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for mod, methods in TRACED_METHODS.items():
            for cls_name, meth in methods:
                cls = getattr(modules[mod], cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self.wrap(f"{mod}.{cls_name}.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def dump(self, path: str) -> None:
        """Write every span as [name, start, end, parent, flags, rss_kb, items],
        one per line, as a JSON object with the name table."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"names": %s, "spans": [' % json.dumps(self.names))
            for i in range(len(self.start)):
                fh.write("%s\n[%d,%r,%r,%d,%d,%d,%d]" % (
                    "," if i else "", self.name_id[i], self.start[i], self.end[i],
                    self.parent[i], self.flags[i], self.rss_kb[i], self.items[i]))
            fh.write("]}\n")


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0
    flags: int = 0
    rss_rise_mb: float = 0.0
    items: int = 0


@dataclass
class UnitTrace:
    wall_s: float
    layers: dict[str, LayerStats] = field(default_factory=dict)


def layer_stats(tracer: Tracer) -> list[UnitTrace]:
    """Per-layer totals for each root span, in order.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    A recursive call counts once in ``incl_s``, at its outermost span.
    """
    n = len(tracer.start)
    child = [0.0] * n
    root_of = [0] * n
    units: dict[int, UnitTrace] = {}
    name_id, parent, start, end = tracer.name_id, tracer.parent, tracer.start, tracer.end
    root_id = tracer._ids.get(ROOT, -1)
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
            root_of[i] = root_of[p]
        else:
            root_of[i] = i
            if name_id[i] == root_id:
                units[i] = UnitTrace(wall_s=end[i] - start[i])
    for i in range(n):
        unit = units.get(root_of[i])
        if unit is None or name_id[i] == root_id:
            continue
        name = tracer.names[name_id[i]]
        st = unit.layers.get(name)
        if st is None:
            st = unit.layers[name] = LayerStats()
        dur = end[i] - start[i]
        st.self_s += dur - child[i]
        if not _inside_same(tracer, i, name_id[i]):
            st.incl_s += dur
        st.flags += tracer.flags[i]
        st.rss_rise_mb += tracer.rss_kb[i] / 1024.0
        st.items += tracer.items[i]
        st.calls += 1
    return [units[i] for i in sorted(units)]


def _inside_same(tracer: Tracer, i: int, nid: int) -> bool:
    p = tracer.parent[i]
    while p >= 0:
        if tracer.name_id[p] == nid:
            return True
        p = tracer.parent[p]
    return False
