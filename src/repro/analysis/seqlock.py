"""Rule SQ — seqlock reader discipline.

``declare_seqlock`` publishes a generation-counter protocol (the one in
:mod:`repro.core.seqlock`): writers bump a cell odd before mutating and
even after, and the *protected primitives* (e.g. ``refresh_row`` /
``copy_row``) copy shared state that is only consistent between two
equal even observations of that cell.  Exactly two shapes may run a
primitive:

* handed **as a callable to** ``<seqlock>.read(idx, primitive, *args)``
  or ``.read_many(rows, primitive)`` (or called inside a lambda handed
  to either) — the retry loop validates the generation around the copy;
* under a ``with`` on the **declared writer lock** (its own attribute,
  e.g. ``_lock``, or the public ``writer_lock`` accessor) — holding the
  writers' serialization point means no generation can change mid-copy,
  which is what a starved reader's fallback leans on.  A seqlock declared
  without a writer lock (a cross-process one) has only the first shape.

Anything else reads state a writer may be mid-commit on: a torn capture
that no test reliably reproduces, which is exactly why it is checked
statically.

* **SQ001** — a protected primitive *called* outside both shapes.
* **SQ002** — a protected primitive *taken as a value* (assigned, passed
  to an executor, stored in a table) outside both shapes: the reference
  escapes to a call site the analyzer cannot see, so the only place it
  may be handed to is ``Seqlock.read`` / ``Seqlock.read_many``.

A primitive's own body may call other primitives — ``refresh_row`` is
``copy_row`` per family, ``refresh_rows`` is ``copy_rows`` — because
whoever runs the outer one already discharged the obligation.
"""

from __future__ import annotations

import ast

from repro.analysis.core import (
    ClassInfo,
    Finding,
    MethodInfo,
    Module,
    Project,
    iter_functions,
    qualname,
)

#: the methods of :class:`repro.core.seqlock.Seqlock` that run a callable
#: inside the validated window
_READ_METHODS = frozenset({"read", "read_many"})

#: the public accessor name for a declared writer lock (the streaming
#: cache reaches the store's ``_lock`` through it)
_WRITER_LOCK_ATTR = "writer_lock"


def _protected_primitives(
    project: Project,
) -> dict[str, tuple[str, frozenset[str]]]:
    """primitive name -> (seqlock node, attribute names of its writer lock).

    Built from the declarations, not hardcoded: ``writer_lock=
    "ColumnarSumStore._lock"`` makes both the raw ``_lock`` attribute
    and the public ``writer_lock`` accessor count as holding it; a
    seqlock declared without one has no lock shape at all.
    """
    out: dict[str, tuple[str, frozenset[str]]] = {}
    for node, spec in project.registry.seqlocks.items():
        writer_lock = spec.get("writer_lock")
        lock_attrs: frozenset[str] = frozenset()
        if isinstance(writer_lock, str) and "." in writer_lock:
            lock_attrs = frozenset(
                {_WRITER_LOCK_ATTR, writer_lock.rsplit(".", 1)[1]}
            )
        protects = spec.get("protects") or ()
        for name in protects:  # type: ignore[union-attr]
            out[str(name)] = (node, lock_attrs)
    return out


def _lock_attr(item: ast.withitem) -> str | None:
    expr = item.context_expr
    if isinstance(expr, ast.Call):  # e.g. store.locked() style helpers
        expr = expr.func
    return expr.attr if isinstance(expr, ast.Attribute) else None


class _SeqlockWalker:
    """Statement walker tracking held lock attributes and ``read`` args."""

    def __init__(
        self,
        module: Module,
        cls: ClassInfo | None,
        method: MethodInfo,
        primitives: dict[str, tuple[str, frozenset[str]]],
        findings: list[Finding],
    ) -> None:
        self.module = module
        self.cls = cls
        self.method = method
        self.primitives = primitives
        self.findings = findings

    def run(self) -> None:
        if self.method.node.name in self.primitives:
            return  # the caller of this primitive holds the obligation
        for stmt in self.method.node.body:
            self._walk(stmt, held=frozenset(), in_read=False)

    def _walk(
        self, node: ast.AST, *, held: frozenset[str], in_read: bool
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs get their own iter_functions pass
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held | {
                attr for attr in map(_lock_attr, node.items) if attr
            }
            for child in node.body:
                self._walk(child, held=inner, in_read=in_read)
            return
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            self._check("SQ001", func, held=held, in_read=in_read)
            self._walk(func.value, held=held, in_read=in_read)
            handed = in_read or func.attr in _READ_METHODS
            for arg in (*node.args, *(kw.value for kw in node.keywords)):
                self._walk(arg, held=held, in_read=handed)
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            self._check("SQ002", node, held=held, in_read=in_read)
        for child in ast.iter_child_nodes(node):
            self._walk(child, held=held, in_read=in_read)

    def _check(
        self,
        rule: str,
        node: ast.Attribute,
        *,
        held: frozenset[str],
        in_read: bool,
    ) -> None:
        spec = self.primitives.get(node.attr)
        if spec is None or in_read:
            return
        seqlock, lock_attrs = spec
        if lock_attrs & held:
            return
        shapes = "through Seqlock.read" + (
            " or under the declared writer lock" if lock_attrs else
            " (no writer lock is declared)"
        )
        what = (
            f".{node.attr}() is called" if rule == "SQ001"
            else f".{node.attr} escapes as a value"
        )
        line = getattr(node, "lineno", self.method.node.lineno)
        self.findings.append(
            Finding(
                rule=rule,
                path=self.module.display_path,
                line=line,
                message=(
                    f"{what} but is protected by {seqlock}; it may only "
                    f"run {shapes}"
                ),
                symbol=qualname(self.cls, self.method),
                snippet=self.module.snippet(line),
            )
        )


def check_seqlock(project: Project) -> list[Finding]:
    primitives = _protected_primitives(project)
    findings: list[Finding] = []
    if primitives:
        for module, cls, method in iter_functions(project):
            _SeqlockWalker(module, cls, method, primitives, findings).run()
    return findings
