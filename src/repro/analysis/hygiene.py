"""Rule HY — hygiene.

* **HY003** — mutable default argument values (``[]``, ``{}``, set
  displays, and ``list()``/``dict()``/``set()``/``bytearray()`` calls);
  evaluated once and shared across calls, a classic aliasing bug.

CI's ruff selection has ``B006`` for most of these.  HY003 stays for the
two shapes ``B006`` lets through: a ``bytearray()`` default, and a
mutable default on a parameter annotated with an immutable type
(``payload: Mapping[str, Any] = {}``), which ``B006`` exempts.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding, Project

_MUTABLE_FACTORY_NAMES = frozenset({"list", "dict", "set", "bytearray"})


def _mutable_default(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id in _MUTABLE_FACTORY_NAMES
    return False


def check_hygiene(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for module in project.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for default in (*node.args.defaults, *node.args.kw_defaults):
                if default is not None and _mutable_default(default):
                    findings.append(
                        Finding(
                            rule="HY003",
                            path=module.display_path,
                            line=default.lineno,
                            message=(
                                f"mutable default argument in {node.name}(); "
                                f"defaults are evaluated once and shared "
                                f"across calls"
                            ),
                            symbol=node.name,
                        )
                    )
    return findings
