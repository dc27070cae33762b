"""Analyzer core: AST loading, contract extraction, best-effort types.

Every rule module reads :class:`Project`; the lock-discipline rule
(:mod:`repro.analysis.lock_discipline`) and the lock graph the runtime
witness checks against (:mod:`repro.analysis.lock_order`) also walk
functions with :class:`TypeEnv` and :class:`LockScopeWalker`:

* :class:`Project` — every parsed module, a cross-module class index,
  and the *static* contract registry (``guarded_by`` decorators plus
  ``declare_lock``/``declare_order``/``declare_seqlock`` calls read
  from the AST, never by importing — so deliberately-broken fixture
  files are analyzable);
* :class:`TypeEnv` — best-effort local type resolution (parameter
  annotations, ``self`` attributes assigned from annotated parameters,
  method return annotations, container element types).  Unresolvable
  expressions resolve to ``None`` and rules skip them: the analyzer
  prefers a missed finding over a false positive;
* :class:`LockScopeWalker` — a visitor that tracks which lock *nodes*
  (canonical ``"ClassName._lock"`` names) are held at every statement,
  honoring ``with`` scopes, guard aliases (condition variables built on
  a lock), ``requires_lock`` and ``manual_guard``.

Everything here is purely static: no analyzed module is ever imported.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

#: method names that mutate their receiver in place
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert",
    "add", "discard", "remove", "pop", "popleft", "popitem", "clear",
    "update", "setdefault", "sort", "reverse",
    "fill", "resize", "setflags", "put", "partial_fit",
})

#: substrings that make an attribute name "look like a lock"
_LOCKISH = ("lock", "mutex")

@dataclass(frozen=True)
class Finding:
    """One analyzer finding, pointing at a rule violation."""

    rule: str
    path: str
    line: int
    message: str
    symbol: str = ""

    def render(self) -> str:
        where = f"{self.path}:{self.line}"
        sym = f" [{self.symbol}]" if self.symbol else ""
        return f"{where}: {self.rule}{sym}: {self.message}"


@dataclass(frozen=True)
class GuardSpec:
    """One ``guarded_by`` declaration on a class."""

    lock: str
    attrs: tuple[str, ...]
    aliases: tuple[str, ...] = ()

    def node_for(self, cls_name: str) -> str:
        """The lock-graph node this guard corresponds to."""
        if "." in self.lock:
            return self.lock
        return f"{cls_name}.{self.lock}"


@dataclass
class MethodInfo:
    """One method of an analyzed class."""

    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    requires: str | None = None
    manual: str | None = None

    @property
    def returns(self) -> str | None:
        if self.node.returns is None:
            return None
        return clean_annotation(ast.unparse(self.node.returns))


@dataclass
class ClassInfo:
    """One analyzed class: contracts, methods, attribute types."""

    name: str
    module: "Module"
    node: ast.ClassDef
    guards: list[GuardSpec] = field(default_factory=list)
    methods: dict[str, MethodInfo] = field(default_factory=dict)
    #: best-effort attribute types (from annotations in the class body
    #: and from ``self.x = <annotated parameter>`` in ``__init__``)
    attr_types: dict[str, str] = field(default_factory=dict)

    def guard_for_attr(self, attr: str) -> GuardSpec | None:
        for guard in self.guards:
            if attr in guard.attrs:
                return guard
        return None

    def guard_for_lock_name(self, name: str) -> GuardSpec | None:
        """Match a lock/condition attribute name to its guard (aliases)."""
        for guard in self.guards:
            bare = guard.lock[:-2] if guard.lock.endswith("()") else guard.lock
            if "." in bare:
                continue
            if name == bare or name in guard.aliases:
                return guard
        return None


def clean_annotation(text: str | None) -> str | None:
    """Normalize an unparsed annotation: quotes and ``| None`` stripped."""
    if text is None:
        return None
    text = text.strip()
    if (text.startswith("'") and text.endswith("'")) or (
        text.startswith('"') and text.endswith('"')
    ):
        text = text[1:-1].strip()
    if text.endswith("| None"):
        text = text[: -len("| None")].strip()
    if text.startswith("Optional[") and text.endswith("]"):
        text = text[len("Optional["):-1].strip()
    return text or None


def _split_top_level(text: str) -> list[str]:
    """Split on top-level commas (respecting brackets)."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    return parts


def element_type(typename: str | None) -> str | None:
    """Element type of ``tuple[X, ...]`` / ``list[X]`` / ``Sequence[X]``."""
    if not typename:
        return None
    for prefix in ("tuple[", "list[", "Sequence[", "Iterable[", "frozenset[",
                   "set[", "Iterator["):
        if typename.startswith(prefix) and typename.endswith("]"):
            inner = typename[len(prefix):-1]
            parts = _split_top_level(inner)
            if not parts:
                return None
            return clean_annotation(parts[0])
    return None


def dict_value_type(typename: str | None) -> str | None:
    """Value type of ``dict[K, V]`` / ``Mapping[K, V]``."""
    if not typename:
        return None
    for prefix in ("dict[", "Mapping[", "MutableMapping[", "defaultdict["):
        if typename.startswith(prefix) and typename.endswith("]"):
            parts = _split_top_level(typename[len(prefix):-1])
            if len(parts) == 2:
                return clean_annotation(parts[1])
    return None


def _literal_str(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _literal_str_tuple(node: ast.expr | None) -> tuple[str, ...]:
    if node is None:
        return ()
    if isinstance(node, (ast.Tuple, ast.List)):
        out = []
        for elt in node.elts:
            text = _literal_str(elt)
            if text is not None:
                out.append(text)
        return tuple(out)
    text = _literal_str(node)
    return (text,) if text is not None else ()


def _decorator_call(dec: ast.expr, name: str) -> ast.Call | None:
    """Match ``@name(...)`` / ``@mod.name(...)`` decorators."""
    if not isinstance(dec, ast.Call):
        return None
    func = dec.func
    if isinstance(func, ast.Name) and func.id == name:
        return dec
    if isinstance(func, ast.Attribute) and func.attr == name:
        return dec
    return None


class StaticRegistry:
    """The lock names, aliases, orders and seqlocks declared in the AST."""

    def __init__(self) -> None:
        #: declared lock nodes (canonical names)
        self.locks: set[str] = set()
        self.alias_of: dict[str, str] = {}
        #: declared (outer, inner) edges -> (path, line) of the declaration
        self.orders: dict[tuple[str, str], tuple[str, int]] = {}
        #: seqlock node -> {"protects": (...), "writer_lock": str | None}
        self.seqlocks: dict[str, dict[str, object]] = {}

    def ingest_call(self, call: ast.Call, path: str) -> None:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else ""
        )
        if name == "declare_lock" and call.args:
            node = _literal_str(call.args[0])
            if node is None:
                return
            self.locks.add(node)
            for kw in call.keywords:
                if kw.arg == "aliases":
                    for alias in _literal_str_tuple(kw.value):
                        self.alias_of[alias] = node
        elif name == "declare_seqlock" and call.args:
            node = _literal_str(call.args[0])
            if node is None:
                return
            protects: tuple[str, ...] = ()
            writer_lock: str | None = None
            for kw in call.keywords:
                if kw.arg == "protects":
                    protects = _literal_str_tuple(kw.value)
                elif kw.arg == "writer_lock":
                    writer_lock = _literal_str(kw.value)
            self.seqlocks[node] = {
                "protects": protects, "writer_lock": writer_lock,
            }
        elif name == "declare_order" and len(call.args) >= 2:
            outer = _literal_str(call.args[0])
            inner = _literal_str(call.args[1])
            if outer is not None and inner is not None:
                edge = (self.canonical(outer), self.canonical(inner))
                self.orders.setdefault(edge, (path, call.lineno))

    def canonical(self, node: str) -> str:
        return self.alias_of.get(node, node)


class Module:
    """One parsed source file."""

    def __init__(self, path: Path, display_path: str) -> None:
        self.display_path = display_path
        source = path.read_text(encoding="utf-8")
        self.tree = ast.parse(source, filename=str(path))
        self.classes: dict[str, ClassInfo] = {}


class Project:
    """Every analyzed module plus the cross-module class/contract index."""

    def __init__(self) -> None:
        self.modules: list[Module] = []
        self.classes: dict[str, ClassInfo] = {}
        self.registry = StaticRegistry()

    # -- loading -----------------------------------------------------------

    @classmethod
    def load(cls, paths: Sequence[str | Path]) -> "Project":
        project = cls()
        for path in iter_python_files(paths):
            project.add_file(path)
        project.index()
        return project

    def add_file(self, path: str | Path, display: str | None = None) -> Module:
        path = Path(path)
        module = Module(path, display or _display_path(path))
        self.modules.append(module)
        return module

    def index(self) -> None:
        """Extract classes, contracts and declarations from every module."""
        for module in self.modules:
            for stmt in ast.walk(module.tree):
                if isinstance(stmt, ast.Expr) and isinstance(
                    stmt.value, ast.Call
                ):
                    self.registry.ingest_call(
                        stmt.value, module.display_path
                    )
            for stmt in module.tree.body:
                if isinstance(stmt, ast.ClassDef):
                    info = self._index_class(module, stmt)
                    module.classes[info.name] = info
                    self.classes.setdefault(info.name, info)

    def _index_class(self, module: Module, node: ast.ClassDef) -> ClassInfo:
        info = ClassInfo(name=node.name, module=module, node=node)
        for dec in node.decorator_list:
            call = _decorator_call(dec, "guarded_by")
            if call is None or not call.args:
                continue
            lock = _literal_str(call.args[0])
            if lock is None:
                continue
            attrs = tuple(
                a for a in (_literal_str(arg) for arg in call.args[1:])
                if a is not None
            )
            aliases: tuple[str, ...] = ()
            for kw in call.keywords:
                if kw.arg == "aliases":
                    aliases = _literal_str_tuple(kw.value)
            info.guards.append(GuardSpec(lock, attrs, aliases))
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                ann = clean_annotation(ast.unparse(stmt.annotation))
                if ann:
                    info.attr_types[stmt.target.id] = ann
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[stmt.name] = self._index_method(stmt)
        init = info.methods.get("__init__")
        if init is not None:
            self._infer_init_attr_types(info, init.node)
        return info

    def _index_method(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> MethodInfo:
        method = MethodInfo(name=node.name, node=node)
        for dec in node.decorator_list:
            call = _decorator_call(dec, "requires_lock")
            if call is not None and call.args:
                method.requires = _literal_str(call.args[0])
            call = _decorator_call(dec, "manual_guard")
            if call is not None and call.args:
                method.manual = _literal_str(call.args[0])
        return method

    def _infer_init_attr_types(
        self, info: ClassInfo, init: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        param_types: dict[str, str] = {}
        args = init.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is not None:
                ann = clean_annotation(ast.unparse(arg.annotation))
                if ann:
                    param_types[arg.arg] = ann
        for stmt in ast.walk(init):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target = stmt.target
                if isinstance(target, ast.Attribute):
                    ann = clean_annotation(ast.unparse(stmt.annotation))
                    if (
                        ann
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        info.attr_types.setdefault(target.attr, ann)
                continue
            if (
                target is not None
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                inferred = _shallow_value_type(value, param_types, self)
                if inferred:
                    info.attr_types.setdefault(target.attr, inferred)

    # -- resolution --------------------------------------------------------

    def class_info(self, name: str | None) -> ClassInfo | None:
        if not name:
            return None
        return self.classes.get(name)

    def method_info(
        self, cls_name: str | None, method: str
    ) -> MethodInfo | None:
        info = self.class_info(cls_name)
        if info is None:
            return None
        return info.methods.get(method)


def _shallow_value_type(
    value: ast.expr | None,
    param_types: dict[str, str],
    project: Project,
) -> str | None:
    """Type of an ``__init__`` RHS: a parameter name or a constructor."""
    if value is None:
        return None
    if isinstance(value, ast.Name):
        return param_types.get(value.id)
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        if value.func.id in project.classes:
            return value.func.id
    return None


def _display_path(path: Path) -> str:
    try:
        return str(path.relative_to(Path.cwd()))
    except ValueError:
        return str(path)


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            yield from sorted(entry.rglob("*.py"))
        elif entry.suffix == ".py":
            yield entry


# ---------------------------------------------------------------------------
# per-function type environment
# ---------------------------------------------------------------------------


class TypeEnv:
    """Best-effort types for one function's names.

    ``types[name]`` is a class/annotation string; ``fresh`` holds the
    names bound to objects constructed locally (thread-private until
    published, so guarded writes through them are exempt).
    ``origins[name]`` tracks aliases of guarded attributes:
    ``versions = self._versions`` records ``("SumCache", "_versions")``
    so a later ``versions.pop(...)`` is still checked against the guard.
    """

    def __init__(
        self,
        project: Project,
        cls: ClassInfo | None,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> None:
        self.project = project
        self.cls = cls
        self.func = func
        self.types: dict[str, str] = {}
        self.origins: dict[str, tuple[str, str]] = {}
        self.fresh: set[str] = set()
        self._collect()

    # -- construction ------------------------------------------------------

    def _collect(self) -> None:
        args = self.func.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is not None:
                ann = clean_annotation(ast.unparse(arg.annotation))
                if ann:
                    self.types[arg.arg] = ann
        for stmt in ast.walk(self.func):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    self._record(target.id, stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                ann = clean_annotation(ast.unparse(stmt.annotation))
                if ann:
                    self.types.setdefault(stmt.target.id, ann)
            elif isinstance(stmt, ast.For) and isinstance(
                stmt.target, ast.Name
            ):
                elem = self._iter_elem_type(stmt.iter)
                if elem:
                    self.types.setdefault(stmt.target.id, elem)

    def _record(self, name: str, value: ast.expr) -> None:
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Name):
                if func.id == "cls" and self.cls is not None:
                    self.types.setdefault(name, self.cls.name)
                    self.fresh.add(name)
                    return
                if func.id in self.project.classes:
                    self.types.setdefault(name, func.id)
                    self.fresh.add(name)
                    return
            inferred = self._call_return_type(value)
            if inferred:
                self.types.setdefault(name, inferred)
            return
        if isinstance(value, ast.Attribute):
            owner = self.type_of(value.value)
            info = self.project.class_info(owner)
            if info is not None:
                if value.attr in info.attr_types:
                    self.types.setdefault(name, info.attr_types[value.attr])
                if info.guard_for_attr(value.attr) is not None:
                    self.origins.setdefault(name, (info.name, value.attr))
            return
        if isinstance(value, ast.Name):
            if value.id in self.types:
                self.types.setdefault(name, self.types[value.id])
            if value.id in self.origins:
                self.origins.setdefault(name, self.origins[value.id])
            if value.id in self.fresh:
                self.fresh.add(name)
            return
        if isinstance(value, ast.Subscript):
            elem = element_type(self.type_of(value.value))
            if elem:
                self.types.setdefault(name, elem)

    def _iter_elem_type(self, it: ast.expr) -> str | None:
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute):
            recv_type = self.type_of(it.func.value)
            if it.func.attr == "values":
                return dict_value_type(recv_type)
            ret = self._call_return_type(it)
            return element_type(ret)
        return element_type(self.type_of(it))

    def _call_return_type(self, call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Attribute):
            recv = func.value
            recv_type = (
                recv.id
                if isinstance(recv, ast.Name) and recv.id in self.project.classes
                else self.type_of(recv)
            )
            method = self.project.method_info(recv_type, func.attr)
            if method is not None:
                return method.returns
        return None

    # -- queries -----------------------------------------------------------

    def type_of(self, expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name):
            if expr.id == "self" and self.cls is not None:
                return self.cls.name
            if expr.id == "cls" and self.cls is not None:
                return self.cls.name
            return self.types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = self.type_of(expr.value)
            info = self.project.class_info(owner)
            if info is not None:
                return info.attr_types.get(expr.attr)
            return None
        if isinstance(expr, ast.Subscript):
            return element_type(self.type_of(expr.value))
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                if func.id == "cls" and self.cls is not None:
                    return self.cls.name
                if func.id in self.project.classes:
                    return func.id
            return self._call_return_type(expr)
        return None

    def is_fresh(self, expr: ast.expr) -> bool:
        """Whether ``expr`` is a locally constructed, unpublished object."""
        return isinstance(expr, ast.Name) and expr.id in self.fresh

    def origin_of(self, expr: ast.expr) -> tuple[str, str] | None:
        """(owner class, guarded attr) when ``expr`` aliases guarded state."""
        if isinstance(expr, ast.Name):
            return self.origins.get(expr.id)
        return None


# ---------------------------------------------------------------------------
# lock-node resolution + scope tracking
# ---------------------------------------------------------------------------


def looks_like_lock(name: str) -> bool:
    lowered = name.lower()
    return any(piece in lowered for piece in _LOCKISH)


def lock_node_of(
    expr: ast.expr, env: TypeEnv, registry: StaticRegistry
) -> str | None:
    """The canonical lock node an expression acquires, or ``None``.

    Recognizes ``recv.attr`` (lock attributes and their declared
    condition aliases) and ``recv.meth(...)`` (lock factories like
    ``_lock_for``).  Unresolvable receivers fall back to ``"?.<name>"``
    nodes only when the name itself looks like a lock.
    """
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        recv, name, suffix = expr.func.value, expr.func.attr, "()"
    elif isinstance(expr, ast.Attribute):
        recv, name, suffix = expr.value, expr.attr, ""
    else:
        return None
    owner = env.type_of(recv)
    info = env.project.class_info(owner)
    if info is not None:
        guard = info.guard_for_lock_name(name)
        if guard is not None:
            return registry.canonical(guard.node_for(info.name))
        node = f"{info.name}.{name}{suffix}"
        if looks_like_lock(name) or registry.canonical(node) in registry.locks:
            return registry.canonical(node)
        return None
    if looks_like_lock(name):
        if owner:
            return registry.canonical(f"{owner}.{name}{suffix}")
        return registry.canonical(f"?.{name}{suffix}")
    return None


def guard_node(spec: str, cls_name: str, registry: StaticRegistry) -> str:
    """Canonical node for a guard/requires spec declared on ``cls_name``."""
    if "." in spec:
        return registry.canonical(spec)
    return registry.canonical(f"{cls_name}.{spec}")


class LockScopeWalker(ast.NodeVisitor):
    """Walks one function body tracking the held-lock node stack.

    Subclasses override :meth:`on_acquire`, :meth:`on_statement` and/or
    :meth:`on_call`.  ``self.held`` is the stack of canonical lock nodes
    currently held (``"*"`` means "treat everything as guarded" — the
    ``manual_guard`` escape).  Nested function definitions get a fresh,
    empty scope: a closure may outlive the lock scope it was defined in.
    """

    def __init__(
        self,
        project: Project,
        module: Module,
        cls: ClassInfo | None,
        method: MethodInfo,
    ) -> None:
        self.project = project
        self.module = module
        self.cls = cls
        self.method = method
        self.env = TypeEnv(project, cls, method.node)
        self.registry = project.registry
        self.held: list[str] = []
        if method.manual:
            self.held.append("*")
        elif method.requires and cls is not None:
            self.held.append(guard_node(method.requires, cls.name, self.registry))
        elif method.requires:
            self.held.append(self.registry.canonical(method.requires))

    # -- overridables ------------------------------------------------------

    def on_acquire(self, node: str, stmt: ast.With, item: ast.expr) -> None:
        """Called when a ``with`` item acquires ``node`` (before push)."""

    def on_statement(self, stmt: ast.stmt) -> None:
        """Called for every statement with ``self.held`` current."""

    def on_call(self, call: ast.Call) -> None:
        """Called for every Call expression with ``self.held`` current."""

    # -- driving -----------------------------------------------------------

    def walk(self) -> None:
        for stmt in self.method.node.body:
            self.visit(stmt)

    def holds(self, node: str) -> bool:
        if "*" in self.held:
            return True
        want = self.registry.canonical(node)
        return any(self.registry.canonical(h) == want for h in self.held)

    def generic_visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.stmt):
            self.on_statement(node)
        if isinstance(node, ast.Call):
            self.on_call(node)
        super().generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        self.on_statement(node)
        acquired: list[str] = []
        for item in node.items:
            # The item expression evaluates while the *outer* locks are
            # held (a lock-factory call can itself take a registry lock),
            # so visit it before pushing.
            for call in ast.walk(item.context_expr):
                if isinstance(call, ast.Call):
                    self.on_call(call)
            lock = lock_node_of(item.context_expr, self.env, self.registry)
            if lock is not None:
                self.on_acquire(lock, node, item.context_expr)
                self.held.append(lock)
                acquired.append(lock)
        for stmt in node.body:
            self.visit(stmt)
        for _ in acquired:
            self.held.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_nested(node)

    def _visit_nested(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        # A nested def runs later, possibly without the enclosing locks:
        # analyze its body with an empty held stack.
        saved, self.held = self.held, []
        for stmt in node.body:
            self.visit(stmt)
        self.held = saved


def iter_functions(
    project: Project,
) -> Iterator[tuple[Module, ClassInfo | None, MethodInfo]]:
    """Methods plus module-level functions (wrapped in MethodInfo)."""
    for module in project.modules:
        for info in module.classes.values():
            for method in info.methods.values():
                yield module, info, method
    for module in project.modules:
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield module, None, MethodInfo(name=stmt.name, node=stmt)


def qualname(cls: ClassInfo | None, method: MethodInfo) -> str:
    if cls is None:
        return method.name
    return f"{cls.name}.{method.name}"
