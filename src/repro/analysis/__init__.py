"""Concurrency contracts + static analysis for the SUM plane.

This package has two faces:

* **runtime contracts** (:mod:`repro.analysis.contracts`) — the
  ``@guarded_by`` / ``@requires_lock`` / ``@manual_guard`` decorators,
  ``declare_lock`` / ``declare_order`` registry, and the env-gated
  :class:`ContractLock` witness.  Imported by the production modules,
  so only those light, stdlib-only names are re-exported here.
* **the analyzer** (:mod:`repro.analysis.cli` and friends) — the
  AST-based checker behind ``python -m repro.analysis``: rules LD001,
  LD002 (:mod:`~repro.analysis.lock_discipline`), SQ001
  (:mod:`~repro.analysis.seqlock`) and HY003
  (:mod:`~repro.analysis.hygiene`), each kept by a row of README's
  mutation table that ``tests/analysis/test_mutations.py`` replays.
  Never imported by production code; import it explicitly.
"""

from repro.analysis.contracts import (
    REGISTRY,
    WITNESS,
    WITNESS_ENV,
    ContractError,
    ContractLock,
    LockWitness,
    contracts_of,
    declare_lock,
    declare_order,
    guarded_by,
    make_lock,
    manual_guard,
    requires_lock,
    witness_enabled,
)

__all__ = [
    "REGISTRY",
    "WITNESS",
    "WITNESS_ENV",
    "ContractError",
    "ContractLock",
    "LockWitness",
    "contracts_of",
    "declare_lock",
    "declare_order",
    "guarded_by",
    "make_lock",
    "manual_guard",
    "requires_lock",
    "witness_enabled",
]
