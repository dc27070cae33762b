"""Seeded mutable-default violations: HY003, in the shapes ruff's B006
also flags and in the two it lets through."""

from typing import Mapping


def collect(values, into=[]):  # [HY003]
    into.extend(values)
    return into


def frame(payload: bytes, buffer=bytearray()):  # [HY003]
    buffer.extend(payload)
    return buffer


def annotate(tags: Mapping[str, str] = {}) -> Mapping[str, str]:  # [HY003]
    return tags
