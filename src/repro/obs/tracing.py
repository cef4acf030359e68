"""Hierarchical span tracing (a lightweight in-process profiler).

Usage::

    from repro.obs import trace

    with trace.span("attr_pretrain/epoch", epoch=i):
        ...

Spans nest; repeated spans with the same name under the same parent are
*aggregated* into one tree node (wall time summed, call count
incremented), so per-batch spans stay bounded.  Each node records wall
time, call count, error count and the most recent attributes.

The tree renders as an indented text report (:meth:`Tracer.report`) and
exports as a JSON-able dict (:meth:`Tracer.to_dict`).

Like the metrics registry, the process-global tracer is a no-op
:class:`NullTracer` until observability is activated; `span()` on the
null tracer reuses a single context-manager object and costs ~nothing.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "SpanNode", "Tracer", "NullTracer",
    "get_tracer", "set_tracer", "use_tracer", "span",
]


class SpanNode:
    """One node of the aggregated span tree."""

    __slots__ = ("name", "calls", "errors", "wall", "attrs", "children")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.errors = 0
        self.wall = 0.0
        self.attrs: Dict[str, object] = {}
        self.children: Dict[str, "SpanNode"] = {}

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = SpanNode(name)
        return node

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "calls": self.calls,
            "wall_seconds": self.wall,
        }
        if self.errors:
            out["errors"] = self.errors
        if self.attrs:
            out["attrs"] = self.attrs
        if self.children:
            out["children"] = [c.to_dict() for c in self.children.values()]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SpanNode":
        node = cls(str(data["name"]))
        node.calls = int(data.get("calls", 0))
        node.errors = int(data.get("errors", 0))
        node.wall = float(data.get("wall_seconds", 0.0))
        node.attrs = dict(data.get("attrs", {}))  # type: ignore[arg-type]
        for child in data.get("children", []):  # type: ignore[union-attr]
            restored = cls.from_dict(child)
            node.children[restored.name] = restored
        return node

    def walk(self, path: Tuple[str, ...] = ()
             ) -> Iterator[Tuple[Tuple[str, ...], "SpanNode"]]:
        here = path + (self.name,)
        yield here, self
        for child in self.children.values():
            yield from child.walk(here)


class _LiveSpan:
    """Context manager for one entry into a (possibly aggregated) span."""

    __slots__ = ("_tracer", "_node", "_start")

    def __init__(self, tracer: "Tracer", node: SpanNode):
        self._tracer = tracer
        self._node = node
        self._start = 0.0

    def __enter__(self) -> SpanNode:
        self._tracer._stack.append(self._node)
        self._start = time.perf_counter()
        return self._node

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._start
        node = self._node
        node.calls += 1
        node.wall += elapsed
        if exc_type is not None:
            node.errors += 1
        # Unwind even if callers misbehave: pop to (and including) node.
        stack = self._tracer._stack
        while stack and stack.pop() is not node:
            pass
        return False  # never swallow exceptions


class Tracer:
    """Collects an aggregated hierarchical timing tree."""

    def __init__(self):
        self.root = SpanNode("root")
        self._stack: List[SpanNode] = [self.root]
        self._started = time.perf_counter()

    @property
    def enabled(self) -> bool:
        return True

    def span(self, name: str, **attrs) -> _LiveSpan:
        parent = self._stack[-1] if self._stack else self.root
        node = parent.child(name)
        if attrs:
            node.attrs.update(attrs)
        return _LiveSpan(self, node)

    def current(self) -> SpanNode:
        return self._stack[-1] if self._stack else self.root

    def reset(self) -> None:
        self.root = SpanNode("root")
        self._stack = [self.root]
        self._started = time.perf_counter()

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        root = self.root.to_dict()
        # The synthetic root has no timing of its own; report the sum of
        # its top-level children so "total" is meaningful.
        root["wall_seconds"] = sum(
            c.wall for c in self.root.children.values()
        )
        root["calls"] = max(root.get("calls", 0), 1)
        return root

    def report(self, min_wall: float = 0.0) -> str:
        """Indented text rendering of the span tree."""
        return format_span_tree(self.to_dict(), min_wall=min_wall)


def format_span_tree(tree: Dict[str, object], min_wall: float = 0.0) -> str:
    """Render a span-tree dict (from :meth:`Tracer.to_dict` or a run
    record) as an indented text table."""
    lines = [f"{'span':<44} {'calls':>6} {'wall(s)':>9} {'%par':>6}"]
    lines.append("-" * len(lines[0]))

    def walk(node: Dict[str, object], depth: int, parent_wall: float) -> None:
        wall = float(node.get("wall_seconds", 0.0))
        if depth and wall < min_wall:
            return
        name = "  " * depth + str(node.get("name", "?"))
        calls = int(node.get("calls", 0))
        pct = 100.0 * wall / parent_wall if parent_wall > 0 else 100.0
        errors = int(node.get("errors", 0))
        suffix = f"  !{errors}err" if errors else ""
        lines.append(
            f"{name:<44} {calls:>6} {wall:>9.3f} {pct:>5.1f}%{suffix}"
        )
        for child in node.get("children", []):  # type: ignore[union-attr]
            walk(child, depth + 1, wall)

    walk(tree, 0, float(tree.get("wall_seconds", 0.0)))
    return "\n".join(lines)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """No-op tracer — the default until observability is activated."""

    @property
    def enabled(self) -> bool:
        return False

    def span(self, name: str, **attrs) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def report(self, min_wall: float = 0.0) -> str:
        return "(tracing disabled)"


_NULL_TRACER = NullTracer()
_default: Tracer = _NULL_TRACER


def get_tracer() -> Tracer:
    """The process-global tracer (no-op until obs is activated)."""
    return _default


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install ``tracer`` globally; ``None`` restores the no-op tracer.
    Returns the previously installed tracer."""
    global _default
    previous = _default
    _default = tracer if tracer is not None else _NULL_TRACER
    return previous


class use_tracer:
    """Context manager installing ``tracer`` globally for the block."""

    def __init__(self, tracer: Optional[Tracer]):
        self.tracer = tracer
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        self._previous = set_tracer(self.tracer)
        return get_tracer()

    def __exit__(self, *exc) -> None:
        set_tracer(self._previous)


def span(name: str, **attrs):
    """Open a span on the current global tracer (no-op when disabled)."""
    return _default.span(name, **attrs)
