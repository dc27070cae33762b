"""Rule SQ — seqlock reader discipline.

``declare_seqlock`` publishes a generation-counter protocol (the one in
:mod:`repro.core.seqlock`): writers bump a cell odd before mutating and
even after, and the *protected primitives* (e.g. ``_row_payload`` /
``_batch_payload``) copy shared state that is only consistent between two
equal even observations of that cell.  A read discharges only the
seqlock its receiver names — ``store.row_generations.read(...)``
discharges ``ColumnarSumStore.row_generations``, never the layout epoch —
and a primitive declared under several seqlocks must be discharged for
each one.  Exactly two shapes discharge a seqlock:

* handing the primitive **as a callable to** ``<seqlock>.read(idx,
  primitive, *args)`` or ``.read_many(rows, primitive)`` (or calling it
  inside a lambda handed to either) — the retry loop validates the
  generation around the copy; reads nest, as
  ``layout_epoch.read(0, lambda: row_generations.read(row, payload))``;
* a ``with`` on the **declared writer lock** (its own attribute, e.g.
  ``_lock``, or the public ``writer_lock`` accessor) — holding the
  writers' serialization point means no generation can change mid-copy,
  which is what a starved reader's fallback leans on.  A seqlock declared
  without a writer lock (a cross-process one) has only the first shape.

Anything else reads state a writer may be mid-commit on: a torn capture
that no test reliably reproduces, which is exactly why it is checked
statically.

* **SQ001** — a protected primitive *called* outside both shapes.

A primitive only taken as a value is not followed: the realistic shape
of that mistake, a primitive handed to the wrong seqlock's ``read``,
tears a read in tier-1's forced-window tests (``tests/core/
test_snapshots.py``).

A primitive's own body starts with its own seqlocks discharged — whoever
runs it already holds those windows — so it may call the primitives
they protect, and discharge the rest itself.
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

#: one seqlock a primitive is declared under: ``(node, the attribute a
#: read's receiver names, attribute names of its writer lock)``
_Guard = tuple[str, str, frozenset[str]]


def _protected_primitives(project: Project) -> dict[str, list[_Guard]]:
    """primitive name -> every seqlock declaring it.

    Built from the declarations, not hardcoded: ``writer_lock=
    "ColumnarSumStore._lock"`` makes both the raw ``_lock`` attribute
    and the public ``writer_lock`` accessor count as holding it; a
    seqlock declared without one has no lock shape at all.
    """
    out: dict[str, list[_Guard]] = {}
    for node, spec in project.registry.seqlocks.items():
        writer_lock = spec.get("writer_lock")
        lock_attrs: frozenset[str] = frozenset()
        if isinstance(writer_lock, str) and "." in writer_lock:
            lock_attrs = frozenset(
                {_WRITER_LOCK_ATTR, writer_lock.rsplit(".", 1)[1]}
            )
        guard = (node, node.rsplit(".", 1)[-1], lock_attrs)
        protects = spec.get("protects") or ()
        for name in protects:  # type: ignore[union-attr]
            out.setdefault(str(name), []).append(guard)
    return out


def _lock_attr(item: ast.withitem) -> str | None:
    expr = item.context_expr
    if isinstance(expr, ast.Call):  # e.g. store.locked() style helpers
        expr = expr.func
    return expr.attr if isinstance(expr, ast.Attribute) else None


def _receiver(func: ast.Attribute) -> str | None:
    """The name a ``<receiver>.read(...)`` call's receiver ends in."""
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    return value.id if isinstance(value, ast.Name) else None


class _SeqlockWalker:
    """Statement walker tracking held lock attributes and the seqlocks
    whose ``read`` a node is handed to."""

    def __init__(
        self,
        module: Module,
        cls: ClassInfo | None,
        method: MethodInfo,
        primitives: dict[str, list[_Guard]],
        findings: list[Finding],
    ) -> None:
        self.module = module
        self.cls = cls
        self.method = method
        self.primitives = primitives
        self.findings = findings

    def run(self) -> None:
        own = self.primitives.get(self.method.node.name, ())
        reads = frozenset(attr for __, attr, __locks in own)
        for stmt in self.method.node.body:
            self._walk(stmt, held=frozenset(), reads=reads)

    def _walk(
        self, node: ast.AST, *, held: frozenset[str], reads: frozenset[str]
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs get their own iter_functions pass
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held | {
                attr for attr in map(_lock_attr, node.items) if attr
            }
            for child in node.body:
                self._walk(child, held=inner, reads=reads)
            return
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            self._check(func, held=held, reads=reads)
            self._walk(func.value, held=held, reads=reads)
            handed = reads
            if func.attr in _READ_METHODS:
                receiver = _receiver(func)
                if receiver is not None:
                    handed = reads | {receiver}
            for arg in (*node.args, *(kw.value for kw in node.keywords)):
                self._walk(arg, held=held, reads=handed)
            return
        for child in ast.iter_child_nodes(node):
            self._walk(child, held=held, reads=reads)

    def _check(
        self,
        node: ast.Attribute,
        *,
        held: frozenset[str],
        reads: frozenset[str],
    ) -> None:
        missing = [
            (seqlock, lock_attrs)
            for seqlock, attr, lock_attrs in self.primitives.get(node.attr, ())
            if attr not in reads and not lock_attrs & held
        ]
        if not missing:
            return
        seqlocks = " and ".join(seqlock for seqlock, __ in missing)
        lockless = any(not lock_attrs for __, lock_attrs in missing)
        shapes = "through Seqlock.read" + (
            " (no writer lock is declared)" if lockless else
            " or under the declared writer lock"
        )
        line = getattr(node, "lineno", self.method.node.lineno)
        self.findings.append(
            Finding(
                rule="SQ001",
                path=self.module.display_path,
                line=line,
                message=(
                    f".{node.attr}() is called but is protected by "
                    f"{seqlocks}; it may only run {shapes}"
                ),
                symbol=qualname(self.cls, self.method),
            )
        )


def check_seqlock(project: Project) -> list[Finding]:
    primitives = _protected_primitives(project)
    findings: list[Finding] = []
    if primitives:
        for module, cls, method in iter_functions(project):
            _SeqlockWalker(module, cls, method, primitives, findings).run()
    return findings
