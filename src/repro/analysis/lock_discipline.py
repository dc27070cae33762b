"""Rule LD — lock discipline for ``guarded_by`` state.

* **LD001** — a write to a guarded attribute (plain assignment, item
  assignment, augmented assignment, ``del``, or an in-place mutator call
  like ``.append``/``.setdefault``) reached without the declared lock
  held.  Aliases count: ``versions = self._versions;
  versions.pop(x)`` is still a write to ``SumCache._versions``.
* **LD002** — a call to a ``@requires_lock`` method without its lock
  held at the call site.

Constructor writes are exempt (``self.x = ...`` in the owning class's
``__init__``: no concurrent reader can hold a reference yet), as are
writes through objects constructed locally in the same function —
loaders build whole stores before publishing them.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    MUTATOR_METHODS,
    ClassInfo,
    Finding,
    LockScopeWalker,
    MethodInfo,
    Module,
    Project,
    TypeEnv,
    guard_node,
    iter_functions,
    qualname,
)

_CTOR_NAMES = frozenset({"__init__", "__new__", "__post_init__", "__set_name__"})


def root_name(expr: ast.expr) -> str | None:
    """The base ``Name`` of an attribute/subscript/call chain, if any."""
    while True:
        if isinstance(expr, (ast.Attribute, ast.Starred)):
            expr = expr.value
        elif isinstance(expr, ast.Subscript):
            expr = expr.value
        elif isinstance(expr, ast.Call):
            expr = expr.func
        elif isinstance(expr, ast.Name):
            return expr.id
        else:
            return None


def guarded_obj(
    expr: ast.expr, env: TypeEnv
) -> tuple[ClassInfo, str] | None:
    """Resolve *the object being mutated* to the guarded state it lives in.

    Walks down attribute/subscript chains (``self._cols[k]``,
    ``self._store._objective``, local aliases recorded by
    :class:`TypeEnv`).  Resolution stops — returning ``None`` — when the
    mutated object is itself an instance of a project class: mutating
    ``self._topics[p]`` through ``PartitionQueue.put`` is that class's
    contract, not a write to the ``_topics`` container.
    """
    project = env.project
    if isinstance(expr, ast.Attribute):
        owner = env.type_of(expr.value)
        info = project.class_info(owner)
        if info is not None and info.guard_for_attr(expr.attr) is not None:
            return info, expr.attr
        if project.class_info(env.type_of(expr)) is not None:
            return None
        if info is not None:
            return None
        return guarded_obj(expr.value, env)
    if isinstance(expr, ast.Subscript):
        if project.class_info(env.type_of(expr)) is not None:
            return None
        return guarded_obj(expr.value, env)
    if isinstance(expr, ast.Name):
        origin = env.origin_of(expr)
        if origin is not None:
            info = project.class_info(origin[0])
            if info is not None:
                return info, origin[1]
    return None


class _DisciplineWalker(LockScopeWalker):
    def __init__(
        self,
        project: Project,
        module: Module,
        cls: ClassInfo | None,
        method: MethodInfo,
        findings: list[Finding],
    ) -> None:
        super().__init__(project, module, cls, method)
        self.findings = findings
        self._reported: set[tuple[str, int]] = set()

    # -- helpers -----------------------------------------------------------

    def _exempt(self, expr: ast.expr, owner: ClassInfo) -> bool:
        root = root_name(expr)
        if root is None:
            return False
        if root in self.env.fresh:
            return True
        return (
            root == "self"
            and self.cls is not None
            and self.cls.name == owner.name
            and self.method.name in _CTOR_NAMES
        )

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", self.method.node.lineno)
        key = (rule, line)
        if key in self._reported:
            return
        self._reported.add(key)
        self.findings.append(
            Finding(
                rule=rule,
                path=self.module.display_path,
                line=line,
                message=message,
                symbol=qualname(self.cls, self.method),
            )
        )

    def _resolve_target(
        self, target: ast.expr
    ) -> tuple[ClassInfo, str] | None:
        """Guarded state written by an assignment/del target.

        A ``Subscript`` target mutates its container; an ``Attribute``
        target is either a direct guarded-attribute write or a write
        into an object held in guarded state.  A bare ``Name`` target
        only rebinds a local — never a mutation.
        """
        if isinstance(target, ast.Subscript):
            return guarded_obj(target.value, self.env)
        if isinstance(target, ast.Attribute):
            owner = self.env.type_of(target.value)
            info = self.project.class_info(owner)
            if (
                info is not None
                and info.guard_for_attr(target.attr) is not None
            ):
                return info, target.attr
            return guarded_obj(target.value, self.env)
        return None

    def _check_write(self, target: ast.expr, stmt: ast.stmt) -> None:
        ref = self._resolve_target(target)
        if ref is None:
            return
        owner, attr = ref
        if self._exempt(target, owner):
            return
        guard = owner.guard_for_attr(attr)
        if guard is None:
            return
        node = self.registry.canonical(guard.node_for(owner.name))
        if self.holds(node):
            return
        self._report(
            "LD001",
            stmt,
            f"write to {owner.name}.{attr} guarded by {node} "
            f"without holding it",
        )

    # -- hooks -------------------------------------------------------------

    def on_statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for leaf in _write_leaves(target):
                    self._check_write(leaf, stmt)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            if isinstance(stmt, ast.AnnAssign) and stmt.value is None:
                return
            self._check_write(stmt.target, stmt)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._check_write(target, stmt)

    def on_call(self, call: ast.Call) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in MUTATOR_METHODS:
            ref = guarded_obj(func.value, self.env)
            if ref is not None:
                owner, attr = ref
                if not self._exempt(func.value, owner):
                    guard = owner.guard_for_attr(attr)
                    if guard is not None:
                        node = self.registry.canonical(
                            guard.node_for(owner.name)
                        )
                        if not self.holds(node):
                            self._report(
                                "LD001",
                                call,
                                f".{func.attr}() on {owner.name}.{attr} "
                                f"guarded by {node} without holding it",
                            )
        self._check_requires(call, func)

    def _check_requires(self, call: ast.Call, func: ast.Attribute) -> None:
        recv = func.value
        owner = self.env.type_of(recv)
        method = self.project.method_info(owner, func.attr)
        if method is None or method.requires is None:
            return
        if self.env.is_fresh(recv):
            return
        node = guard_node(method.requires, owner or "", self.registry)
        if self.holds(node):
            return
        self._report(
            "LD002",
            call,
            f"call to {owner}.{func.attr}() requires {node} "
            f"which is not held here",
        )


def _write_leaves(target: ast.expr) -> Iterator[ast.expr]:
    """Individual written-to expressions inside a (possibly tuple) target."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _write_leaves(elt)
    elif isinstance(target, ast.Starred):
        yield from _write_leaves(target.value)
    else:
        yield target


def check_lock_discipline(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for module, cls, method in iter_functions(project):
        walker = _DisciplineWalker(project, module, cls, method, findings)
        walker.walk()
    return findings
