"""Rule SN — snapshot immutability.

Published snapshots (:class:`~repro.core.sum_store.FrozenSumBatch`
captures, and the sealed per-user models every backend's
``freeze_view`` returns) are the serving plane's consistency boundary:
readers hold them lock-free *because* nothing mutates them.  The runtime
enforces that (read-only arrays, mapping proxies, sealed classes); these
rules enforce it statically, before a rarely-taken path trips the
runtime guard in production.

* **SN001** — mutation of a frozen snapshot: attribute/item assignment
  or an in-place mutator call on a value obtained from ``freeze_view``,
  a ``FrozenSumBatch``, or anything typed as a frozen store class.
* **SN002** — re-enabling writes on a captured array
  (``arr.setflags(write=True)`` / ``arr.flags.writeable = True``)
  outside the store internals that own the capture protocol.
"""

from __future__ import annotations

import ast

from repro.analysis.core import (
    MUTATOR_METHODS,
    ClassInfo,
    Finding,
    MethodInfo,
    Module,
    Project,
    TypeEnv,
    iter_functions,
    qualname,
)

#: classes whose instances are immutable captures
FROZEN_TYPES = frozenset({"FrozenSumBatch", "_FrozenFamily"})

#: zero-argument-receiver calls that produce a frozen capture
FROZEN_PRODUCERS = frozenset({"freeze_view"})

#: modules allowed to manage capture internals (build/seal/thaw)
_ALLOWED_SUFFIXES = ("core/sum_store.py",)


def _module_allowed(module: Module) -> bool:
    path = module.display_path.replace("\\", "/")
    return any(path.endswith(suffix) for suffix in _ALLOWED_SUFFIXES)


def _is_frozen_producer_call(expr: ast.expr) -> bool:
    if not isinstance(expr, ast.Call):
        return False
    func = expr.func
    if isinstance(func, ast.Attribute) and func.attr in FROZEN_PRODUCERS:
        return True
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else ""
    )
    return name in FROZEN_TYPES


def _collect_frozen_locals(
    func: ast.FunctionDef | ast.AsyncFunctionDef, env: TypeEnv
) -> set[str]:
    frozen: set[str] = set()
    args = func.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if env.types.get(arg.arg) in FROZEN_TYPES:
            frozen.add(arg.arg)
    for stmt in ast.walk(func):
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = stmt.value
        if (
            _is_frozen_producer_call(value)
            or env.type_of(value) in FROZEN_TYPES
            or (isinstance(value, ast.Name) and value.id in frozen)
        ):
            frozen.add(target.id)
    return frozen


class _SnapshotWalker(ast.NodeVisitor):
    def __init__(
        self,
        project: Project,
        module: Module,
        cls: ClassInfo | None,
        method: MethodInfo,
        findings: list[Finding],
    ) -> None:
        self.project = project
        self.module = module
        self.cls = cls
        self.method = method
        self.env = TypeEnv(project, cls, method.node)
        self.frozen = _collect_frozen_locals(method.node, self.env)
        self.findings = findings
        self.allowed = _module_allowed(module)

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", self.method.node.lineno)
        self.findings.append(
            Finding(
                rule=rule,
                path=self.module.display_path,
                line=line,
                message=message,
                symbol=qualname(self.cls, self.method),
                snippet=self.module.snippet(line),
            )
        )

    def _frozen_receiver(self, expr: ast.expr) -> str | None:
        """Name of the frozen value an access chain goes through, if any."""
        while isinstance(expr, (ast.Attribute, ast.Subscript)):
            described = self.env.type_of(expr)
            if described in FROZEN_TYPES:
                return described
            expr = expr.value
        if isinstance(expr, ast.Name) and expr.id in self.frozen:
            return expr.id
        if _is_frozen_producer_call(expr):
            return ast.unparse(expr.func)
        if isinstance(expr, (ast.Attribute, ast.Subscript, ast.Call)):
            described = self.env.type_of(expr)
            if described in FROZEN_TYPES:
                return described
        return None

    def _check_target(self, target: ast.expr, stmt: ast.stmt) -> None:
        if self.allowed:
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_target(elt, stmt)
            return
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        source = self._frozen_receiver(target.value)
        if source is not None:
            self._report(
                "SN001",
                stmt,
                f"mutation of frozen snapshot (via {source}); captured "
                f"views are immutable once published",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target, node)
        # writeable = True on a captured array's flags
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "writeable"
                and isinstance(target.value, ast.Attribute)
                and target.value.attr == "flags"
                and isinstance(node.value, ast.Constant)
                and node.value.value is True
                and not self.allowed
            ):
                self._report(
                    "SN002",
                    node,
                    "re-enabling writes on a captured array "
                    "(.flags.writeable = True) outside store internals",
                )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target, node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_target(target, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and not self.allowed:
            if func.attr == "setflags" and _sets_write_true(node):
                self._report(
                    "SN002",
                    node,
                    "arr.setflags(write=True) outside store internals",
                )
            elif func.attr in MUTATOR_METHODS:
                source = self._frozen_receiver(func.value)
                if source is not None:
                    self._report(
                        "SN001",
                        node,
                        f".{func.attr}() mutates frozen snapshot "
                        f"(via {source})",
                    )
        self.generic_visit(node)


def _sets_write_true(call: ast.Call) -> bool:
    for kw in call.keywords:
        if (
            kw.arg == "write"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
        ):
            return True
    if call.args:
        first = call.args[0]
        if isinstance(first, ast.Constant) and first.value is True:
            return True
    return False


def check_snapshots(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for module, cls, method in iter_functions(project):
        walker = _SnapshotWalker(project, module, cls, method, findings)
        for stmt in method.node.body:
            walker.visit(stmt)
    return findings
