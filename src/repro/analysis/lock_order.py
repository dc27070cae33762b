"""The static lock-acquisition graph the runtime witness checks against.

Builds the cross-module graph of "lock *u* held while acquiring lock
*v*" edges from three sources:

1. lexically nested ``with`` statements;
2. call propagation — if ``f`` acquires ``L`` (directly or through
   calls, computed to a fixed point) and ``g`` calls ``f`` while holding
   ``H``, the graph gains ``H → L``;
3. explicit :func:`repro.analysis.contracts.declare_order` declarations
   for orderings the AST cannot see (e.g. a sorted multi-lock hold via
   a loop, or an ordering hidden behind duck-typed indirection).

No rule reads it: every ordering
:class:`~repro.analysis.contracts.LockWitness` observes at runtime must
be an edge of this graph, and ``--graph``/``--report`` print it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.core import (
    ClassInfo,
    LockScopeWalker,
    MethodInfo,
    Module,
    Project,
    iter_functions,
)

_FuncKey = tuple[str, str]


class _OrderWalker(LockScopeWalker):
    """Collects lexical acquisitions, nesting edges and call sites."""

    def __init__(
        self,
        project: Project,
        module: Module,
        cls: ClassInfo | None,
        method: MethodInfo,
    ) -> None:
        super().__init__(project, module, cls, method)
        self.acquired: set[str] = set()
        self.edges: dict[tuple[str, str], tuple[str, int]] = {}
        #: (held snapshot, callee key, line) for call propagation
        self.calls: list[tuple[tuple[str, ...], _FuncKey, int]] = []

    def on_acquire(self, node: str, stmt: ast.With, item: ast.expr) -> None:
        self.acquired.add(node)
        for held in self.held:
            if held in ("*", node):
                continue
            self.edges.setdefault(
                (held, node), (self.module.display_path, stmt.lineno)
            )

    def on_call(self, call: ast.Call) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        owner = self.env.type_of(func.value)
        if owner is None and isinstance(func.value, ast.Name):
            if func.value.id in self.project.classes:
                owner = func.value.id
        method = self.project.method_info(owner, func.attr)
        if method is None:
            return
        held = tuple(h for h in self.held if h != "*")
        self.calls.append(((held), (owner or "", func.attr), call.lineno))


@dataclass
class LockGraph:
    """The static acquisition-order graph: ``(outer, inner)`` edges, each
    with the ``(path, line)`` it was first seen at."""

    edges: dict[tuple[str, str], tuple[str, int]] = field(default_factory=dict)

    def allowed_edges(self) -> set[tuple[str, str]]:
        return set(self.edges)


def build_lock_graph(project: Project) -> LockGraph:
    graph = LockGraph()
    walkers: dict[_FuncKey, _OrderWalker] = {}
    for module, cls, method in iter_functions(project):
        walker = _OrderWalker(project, module, cls, method)
        walker.walk()
        key = (cls.name if cls else f"<{module.display_path}>", method.name)
        walkers[key] = walker
        for edge, src in walker.edges.items():
            graph.edges.setdefault(edge, src)

    # call-propagated acquisitions, to a fixed point
    acquires: dict[_FuncKey, set[str]] = {
        key: set(w.acquired) for key, w in walkers.items()
    }
    changed = True
    while changed:
        changed = False
        for key, walker in walkers.items():
            mine = acquires[key]
            for _, callee, _ in walker.calls:
                extra = acquires.get(callee)
                if extra and not extra <= mine:
                    mine |= extra
                    changed = True

    for walker in walkers.values():
        for held, callee, line in walker.calls:
            for h in held:
                for node in acquires.get(callee, ()):
                    if h != node:
                        graph.edges.setdefault(
                            (h, node), (walker.module.display_path, line)
                        )

    for edge, src in project.registry.orders.items():
        graph.edges.setdefault(edge, src)
    return graph
