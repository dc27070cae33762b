"""The baseline ratchet: grandfathered findings with justifications.

``analysis-baseline.toml``, when present, holds ``[[waiver]]`` tables::

    [[waiver]]
    rule = "LD001"
    path = "src/repro/pkg/module.py"
    symbol = "Store.get_or_create"          # optional
    contains = "_cache.setdefault"          # optional substring of the line
    justification = "dict.setdefault is GIL-atomic; benign last-wins race"

Every waiver **must** carry a non-empty justification — the point of
the baseline is that each accepted risk is written down.  A waiver that
matches no current finding is *stale* and fails the run: the ratchet
only moves toward zero.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.core import Finding


class BaselineError(Exception):
    """The baseline file itself is invalid."""


@dataclass(frozen=True)
class Waiver:
    rule: str
    path: str
    justification: str
    symbol: str = ""
    contains: str = ""

    def matches(self, finding: Finding) -> bool:
        if self.rule != finding.rule:
            return False
        if self.path != finding.path:
            return False
        if self.symbol and self.symbol != finding.symbol:
            return False
        if self.contains and self.contains not in finding.snippet:
            return False
        return True

    def describe(self) -> str:
        extra = ""
        if self.symbol:
            extra += f" symbol={self.symbol}"
        if self.contains:
            extra += f" contains={self.contains!r}"
        return f"{self.rule} @ {self.path}{extra}"


def load_baseline(path: str | Path) -> list[Waiver]:
    path = Path(path)
    try:
        data = tomllib.loads(path.read_text(encoding="utf-8"))
    except (OSError, tomllib.TOMLDecodeError) as exc:
        raise BaselineError(f"cannot read baseline {path}: {exc}") from exc
    waivers: list[Waiver] = []
    for i, entry in enumerate(data.get("waiver", [])):
        if not isinstance(entry, dict):
            raise BaselineError(f"waiver #{i + 1} is not a table")
        rule = str(entry.get("rule", "")).strip()
        wpath = str(entry.get("path", "")).strip()
        justification = str(entry.get("justification", "")).strip()
        if not rule or not wpath:
            raise BaselineError(
                f"waiver #{i + 1} needs both 'rule' and 'path'"
            )
        if not justification:
            raise BaselineError(
                f"waiver #{i + 1} ({rule} @ {wpath}) has no justification; "
                f"every grandfathered finding must explain why it is safe"
            )
        waivers.append(
            Waiver(
                rule=rule,
                path=wpath,
                justification=justification,
                symbol=str(entry.get("symbol", "")).strip(),
                contains=str(entry.get("contains", "")).strip(),
            )
        )
    return waivers


@dataclass
class BaselineResult:
    unwaived: list[Finding]
    waived: list[tuple[Finding, Waiver]]
    stale: list[Waiver]


def apply_baseline(
    findings: list[Finding], waivers: list[Waiver]
) -> BaselineResult:
    unwaived: list[Finding] = []
    waived: list[tuple[Finding, Waiver]] = []
    used: set[int] = set()
    for finding in findings:
        for idx, waiver in enumerate(waivers):
            if waiver.matches(finding):
                used.add(idx)
                waived.append((finding, waiver))
                break
        else:
            unwaived.append(finding)
    stale = [w for i, w in enumerate(waivers) if i not in used]
    return BaselineResult(unwaived=unwaived, waived=waived, stale=stale)
