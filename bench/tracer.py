"""Outside-in layer tracing for the benchmark's traced runs.

The tracer replaces the public functions of the ``legfronts`` modules
(plus the Laurent arithmetic methods, ``LinkDiagram.first_bad_crossing``
and ``AnalysisReport.to_json``) with wrappers defined here, so the
program's own files stay untouched.  Each wrapped call is a span: name,
start, end, parent span and op id.  Spans are held in memory and written
out when the run ends; the first ``MAX_SPANS`` are kept, while the
aggregates below cover every call.

Aggregates are kept per *group*, a named slice of one layer such as
``skein.homfly`` or ``fronts.sweep``.  A call's self time is its span's
duration minus the time covered by its child spans, and it is charged to
the call's group.  Helpers that are called from inside a bigger step
(``first_bad_crossing``, ``is_normal_switch``, ``classify``) inherit the
group of the nearest enclosing span of their layer, which is how skein
nodes are split between Homfly and Kauffman.

Self times include the tracer's own cost for the child calls it wraps,
so compare traced figures only with traced figures.  No layer of the
program queues or waits for another: everything runs on the caller's
thread, so the trace reports no wait time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

OUTSIDE = "outside"  # time inside an op that no wrapped function covers
MAX_SPANS = 50_000  # spans kept for the record; the aggregates cover every call

# group of each public function; None means "inherit from the caller"
GROUPS = {
    "fronts": {
        "parse_front": "fronts.parse",
        "front": "fronts.parse",
        "validate": "fronts.sweep",
        "sweep_geometry": "fronts.sweep",
        "components": "fronts.sweep",
        "crossing_sign": "fronts.sweep",
        "classical_invariants": "fronts.sweep",
        "maslov_potential": "fronts.sweep",
        "crossing_indices": "fronts.sweep",
        "crossing_index": "fronts.sweep",
    },
    "rulings": {
        "enumerate_rulings": "rulings.enumerate",
        "census": "rulings.census",
        "is_normal_switch": None,
        "classify": None,
    },
    "skein": {
        "front_to_diagram": "skein.diagram",
        "homfly": "skein.homfly",
        "kauffman_dubrovnik": "skein.kauffman",
    },
}
FALLBACK = {"rulings": "rulings.enumerate"}  # inherited group when no caller of the layer

LAURENT_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__pow__", "shifted",
)
LAURENT_METHODS = LAURENT_ARITHMETIC + ("__init__",)


class Tracer:
    def __init__(self):
        self.fn_names: list[str] = []
        self.group_names: list[str] = []
        self.group_ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.group_self: list[float] = []
        self.nodes: dict[str, int] = {}  # first_bad_crossing calls, per group
        self.leaves: dict[str, int] = {}  # ... of which returned None
        self.rulings = 0  # rulings returned by enumerate_rulings
        self.stack: list[list] = []  # [fid, gid, layer, child seconds, span id]
        self.spans: list[tuple] = []
        self.next_span = 0
        self.op_id = -1
        self._patches: list[tuple] = []

    # -- registration ---------------------------------------------------------

    def _gid(self, group: str) -> int:
        if group not in self.group_ids:
            self.group_ids[group] = len(self.group_names)
            self.group_names.append(group)
            self.group_self.append(0.0)
        return self.group_ids[group]

    def wrap(self, fn, name: str, layer: str, group: str | None, fallback: str, on_result=None):
        """Return a traced version of ``fn``; ``group=None`` inherits."""
        fid = len(self.fn_names)
        self.fn_names.append(name)
        self.calls.append(0)
        fixed = -1 if group is None else self._gid(group)
        default = self._gid(fallback)
        tracer = self
        stack = self.stack
        spans = self.spans
        calls = self.calls
        group_self = self.group_self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            gid = fixed
            if gid < 0:
                gid = default
                for frame in reversed(stack):
                    if frame[2] == layer:
                        gid = frame[1]
                        break
            sid = tracer.next_span
            tracer.next_span = sid + 1
            parent = stack[-1][4] if stack else -1
            frame = [fid, gid, layer, 0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][3] += dur
                calls[fid] += 1
                group_self[gid] += dur - frame[3]
                if len(spans) < MAX_SPANS:
                    spans.append((sid, fid, t0, t1, parent, tracer.op_id))
            if on_result is not None:
                on_result(gid, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def install(self, lf) -> None:
        """Wrap the layers of an imported ``legfronts`` package."""
        package_names = {id(v): k for k, v in vars(lf).items()}
        for layer in ("fronts", "rulings", "skein", "analysis", "cli"):
            module = importlib.import_module(f"{lf.__name__}.{layer}")
            groups = GROUPS.get(layer, {})
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                group = groups.get(attr, f"{layer}.other" if groups else layer)
                hook = self._count_rulings if attr == "enumerate_rulings" else None
                wrapped = self.wrap(fn, f"{layer}.{attr}", layer, group,
                                    FALLBACK.get(layer, f"{layer}.other"), hook)
                self._patch(module, attr, wrapped)
                if package_names.get(id(fn)) == attr:
                    self._patch(lf, attr, wrapped)
        self._patch(lf.skein.LinkDiagram, "first_bad_crossing", self.wrap(
            lf.skein.LinkDiagram.first_bad_crossing, "skein.LinkDiagram.first_bad_crossing",
            "skein", None, "skein.other", self._count_node))
        self._patch(lf.analysis.AnalysisReport, "to_json", self.wrap(
            lf.analysis.AnalysisReport.to_json, "analysis.AnalysisReport.to_json",
            "analysis", "analysis", "analysis"))
        for cls in (lf.laurent.ZPoly, lf.laurent.VZPoly):
            for attr in LAURENT_METHODS:
                fn = cls.__dict__[attr]
                self._patch(cls, attr, self.wrap(
                    fn, f"laurent.{cls.__name__}.{attr}", "laurent", "laurent", "laurent"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _count_node(self, gid: int, result) -> None:
        group = self.group_names[gid]
        self.nodes[group] = self.nodes.get(group, 0) + 1
        if result is None:
            self.leaves[group] = self.leaves.get(group, 0) + 1

    def _count_rulings(self, gid: int, result) -> None:
        self.rulings += len(result)

    # -- reading --------------------------------------------------------------

    def calls_of(self, predicate) -> int:
        return sum(c for name, c in zip(self.fn_names, self.calls) if predicate(name))

    def group_seconds(self, prefix: str) -> float:
        """Self seconds of a group, or of every group of a layer."""
        return sum(
            s for g, s in zip(self.group_names, self.group_self)
            if g == prefix or g.startswith(prefix + ".")
        )

    def span_records(self) -> dict:
        """Kept spans as rows of [id, name, start µs, end µs, parent id, op id]."""
        base = min((s[2] for s in self.spans), default=0.0)
        return {
            "columns": ["id", "name", "start_us", "end_us", "parent", "op"],
            "names": self.fn_names,
            "rows": [
                [sid, fid, round((t0 - base) * 1e6, 1), round((t1 - base) * 1e6, 1), parent, op]
                for sid, fid, t0, t1, parent, op in sorted(self.spans)
            ],
        }
