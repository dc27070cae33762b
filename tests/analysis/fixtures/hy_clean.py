"""Clean twin of ``hy_violations``: immutable and ``None`` defaults."""

from typing import Mapping


def collect(values, into=None):
    if into is None:
        into = []
    into.extend(values)
    return into


def frame(payload: bytes, buffer: bytes = b""):
    return buffer + payload


def annotate(tags: Mapping[str, str] | None = None) -> Mapping[str, str]:
    return tags or {}
