"""Declarative concurrency contracts: the annotations the analyzer checks.

The repo's locking conventions were prose ("writers flag stale rows under
their user lock", "sorted multi-user lock hold") until this module: here
they become *declarations* that live next to the code, are introspectable
at runtime, and are machine-checked by :mod:`repro.analysis` in CI.

Three decorator families:

* :func:`guarded_by` — a class decorator naming a lock and the mutable
  attributes it guards.  The static lock-discipline rule (``LD001``)
  flags any write to a guarded attribute outside a ``with`` scope of the
  declared lock (constructors exempt — an object under construction has
  no concurrent readers).
* :func:`requires_lock` — a method decorator asserting "the caller holds
  this lock".  The method body is treated as lock-held; every *call* to
  the method must itself happen under the lock (``LD002``).
* :func:`manual_guard` — an auditable escape hatch for methods that
  manage lock acquisition imperatively (e.g. the sorted multi-user lock
  hold in ``SumCache.apply_batch_and_publish``).  A non-empty
  justification is required: an empty one raises at import.

Module-level declaration calls:

* :func:`declare_lock` — names a lock node in the global lock-order
  graph, marks it reentrant and/or a *family* (many lock objects, one
  node — the per-user locks), and merges aliases (two attributes that
  hold the *same* underlying lock object, like the column families
  sharing their owning store's RLock).
* :func:`declare_order` — asserts a permitted "outer acquires inner"
  edge that the lexical analysis cannot see (acquisitions hidden behind
  untyped indirection).  Declared edges join the extracted graph, which
  bounds what the runtime witness may observe.
* :func:`declare_seqlock` — names a generation source (a
  :class:`repro.core.seqlock.Seqlock`: writers bump odd/even under
  their lock, readers copy between two equal even observations) and the
  copy primitives it protects, so lock-free captures are machine-checked
  too (``SQ001``: a primitive runs only through the
  ``Seqlock.read`` of every seqlock declaring it, nested, or under the
  declared writer lock).

The runtime half: :func:`make_lock` returns plain :mod:`threading` locks
normally, and :class:`ContractLock` wrappers when ``REPRO_LOCK_WITNESS``
is set — every acquisition is then recorded into the process-wide
:data:`WITNESS`, whose :meth:`LockWitness.check` verifies that no
observed ordering falls outside the static graph (TSan-lite for a GIL'd
codebase; the threaded tier-1 tests run under it).

This module must stay dependency-free (stdlib only): it is imported by
every concurrent module in ``repro`` and by the analyzer itself.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Iterable, Mapping, TypeVar

_T = TypeVar("_T")
_F = TypeVar("_F", bound=Callable[..., Any])

#: class attribute the decorators stash contract metadata under
CONTRACTS_ATTR = "__concurrency_contracts__"
#: function attribute set by :func:`requires_lock`
REQUIRES_ATTR = "__requires_lock__"
#: function attribute set by :func:`manual_guard`
MANUAL_ATTR = "__manual_guard__"

#: environment switch for the runtime witness (checked at lock creation)
WITNESS_ENV = "REPRO_LOCK_WITNESS"


class ContractError(ValueError):
    """A malformed contract declaration (empty guard, missing reason)."""


# ---------------------------------------------------------------------------
# decorators
# ---------------------------------------------------------------------------


def guarded_by(
    lock: str, *attrs: str, aliases: Iterable[str] = ()
) -> Callable[[type], type]:
    """Declare that writes to ``attrs`` require holding ``lock``.

    ``lock`` is either an attribute name on the same object (``"_lock"``,
    matching ``with self._lock:``), a call form (``"_lock_for()"``,
    matching ``with self._lock_for(...):``) or a fully qualified node of
    another class (``"SumCache._lock_for()"`` — for reader-owned state
    guarded by a different object's lock).  ``aliases`` names sibling
    attributes that acquire the *same* underlying lock (condition
    variables built on it, for example), so ``with self._not_full:``
    counts as holding ``self._lock``.

    Stacks: decorate once per lock.  The declaration is stored on the
    class (:data:`CONTRACTS_ATTR`) for runtime introspection and read
    from the AST by the static analyzer — keep every argument a literal.
    """
    if not lock:
        raise ContractError("guarded_by needs a lock name")
    if not attrs:
        raise ContractError(f"guarded_by({lock!r}) guards no attributes")
    spec = {
        "lock": str(lock),
        "attrs": tuple(str(a) for a in attrs),
        "aliases": tuple(str(a) for a in aliases),
    }

    def decorate(cls: type) -> type:
        existing = list(cls.__dict__.get(CONTRACTS_ATTR, ()))
        existing.append(spec)
        setattr(cls, CONTRACTS_ATTR, tuple(existing))
        return cls

    return decorate


def requires_lock(lock: str) -> Callable[[_F], _F]:
    """Declare "the caller holds ``lock``" on a helper method.

    The analyzer treats the decorated body as lock-held and checks every
    call site instead (``LD002``).  Zero runtime cost.
    """
    if not lock:
        raise ContractError("requires_lock needs a lock name")

    def decorate(func: _F) -> _F:
        setattr(func, REQUIRES_ATTR, str(lock))
        return func

    return decorate


def manual_guard(reason: str) -> Callable[[_F], _F]:
    """Exempt a method from lexical lock-discipline checking.

    For imperative acquisition patterns a ``with`` scope cannot express
    (loop-acquired sorted lock sets).  ``reason`` must say why — it is
    what a reviewer greps for, so an empty one raises
    :class:`ContractError` when the decorated module is imported.
    """
    if not reason or not reason.strip():
        raise ContractError("manual_guard needs a non-empty justification")

    def decorate(func: _F) -> _F:
        setattr(func, MANUAL_ATTR, reason)
        return func

    return decorate


# ---------------------------------------------------------------------------
# lock graph declarations
# ---------------------------------------------------------------------------


class LockDecl:
    """One declared lock node of the global acquisition graph."""

    __slots__ = ("node", "reentrant", "family", "self_order", "aliases")

    def __init__(
        self,
        node: str,
        reentrant: bool = False,
        family: bool = False,
        self_order: str | None = None,
        aliases: tuple[str, ...] = (),
    ) -> None:
        self.node = node
        self.reentrant = reentrant
        #: a *family* is many lock objects sharing one node (per-user
        #: locks); acquiring two members nests the node inside itself
        self.family = family
        #: how same-node nesting of distinct family members is permitted:
        #: ``"sorted"`` means members are only ever taken in sorted key
        #: order (so no cycle among members is possible)
        self.self_order = self_order
        self.aliases = aliases


class ContractRegistry:
    """Process-wide registry of declared locks and permitted orderings."""

    def __init__(self) -> None:
        self.locks: dict[str, LockDecl] = {}
        #: alias node -> canonical node
        self.alias_of: dict[str, str] = {}
        #: declared permitted (outer, inner) edges
        self.orders: set[tuple[str, str]] = set()

    def declare_lock(
        self,
        node: str,
        *,
        reentrant: bool = False,
        family: bool = False,
        self_order: str | None = None,
        aliases: Iterable[str] = (),
    ) -> LockDecl:
        if not node:
            raise ContractError("declare_lock needs a node name")
        alias_tuple = tuple(str(a) for a in aliases)
        decl = LockDecl(str(node), bool(reentrant), bool(family),
                        self_order, alias_tuple)
        self.locks[decl.node] = decl
        for alias in alias_tuple:
            self.alias_of[alias] = decl.node
        return decl

    def declare_order(self, outer: str, inner: str) -> None:
        if not outer or not inner:
            raise ContractError("declare_order needs two node names")
        self.orders.add((self.canonical(outer), self.canonical(inner)))

    def canonical(self, node: str) -> str:
        return self.alias_of.get(node, node)

    def decl_for(self, node: str) -> LockDecl | None:
        return self.locks.get(self.canonical(node))


#: the process-wide registry every ``declare_*`` call below feeds
REGISTRY = ContractRegistry()


def declare_lock(
    node: str,
    *,
    reentrant: bool = False,
    family: bool = False,
    self_order: str | None = None,
    aliases: Iterable[str] = (),
) -> LockDecl:
    """Module-level lock-node declaration (see :class:`LockDecl`).

    Keep every argument a literal: the static analyzer reads these calls
    from the AST, without importing the module.
    """
    return REGISTRY.declare_lock(
        node,
        reentrant=reentrant,
        family=family,
        self_order=self_order,
        aliases=aliases,
    )


def declare_order(outer: str, inner: str) -> None:
    """Assert a permitted ``outer`` → ``inner`` acquisition edge."""
    REGISTRY.declare_order(outer, inner)


def declare_seqlock(
    node: str,
    *,
    protects: Iterable[str] = (),
    writer_lock: str | None = None,
) -> None:
    """Declare a seqlock generation source for the SQ001 rule.

    ``node`` names the generation counters (``"Class.attr"``, ``attr``
    being what readers call ``.read`` on), ``protects`` the copy
    primitives whose lock-free call sites must go through that
    ``Seqlock.read``, and ``writer_lock`` the lock under which writers
    bump the generations (call sites holding it need no retry — they
    exclude every writer; ``None`` for a single-writer-by-protocol
    seqlock no lock can exclude, e.g. one shared across processes).

    Only the static analyzer reads it, from the AST, without importing
    the module: keep every argument a literal.
    """
    if not node:
        raise ContractError("declare_seqlock needs a node name")


# ---------------------------------------------------------------------------
# runtime witness
# ---------------------------------------------------------------------------


class LockWitness:
    """Records actual lock-acquisition order, per thread, process-wide.

    Every :class:`ContractLock` acquisition pushes its node onto the
    acquiring thread's stack; holding node A while acquiring node B
    records the edge ``A → B``.  Pure reentrancy (re-acquiring the same
    *object*) records nothing; acquiring a different member of the same
    lock *family* records a self-edge, which :meth:`check` permits only
    for families declaring a ``self_order``.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._mutex = threading.Lock()
        #: observed (outer, inner) node pairs -> a sample stack trace note
        self.edges: dict[tuple[str, str], str] = {}
        self.acquisitions = 0

    def _stack(self) -> list[tuple[str, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def on_acquire(self, node: str, lock_id: int) -> None:
        stack = self._stack()
        if stack:
            top_node, top_id = stack[-1]
            if top_id != lock_id:  # reentrancy on the same object is silent
                edge = (top_node, node)
                if edge not in self.edges:
                    with self._mutex:
                        self.edges.setdefault(
                            edge, threading.current_thread().name
                        )
        stack.append((node, lock_id))
        self.acquisitions += 1

    def on_release(self, node: str, lock_id: int) -> None:
        stack = self._stack()
        # Locks are released LIFO in this codebase, but tolerate FIFO:
        # drop the innermost matching entry.
        for i in range(len(stack) - 1, -1, -1):
            if stack[i][1] == lock_id:
                del stack[i]
                return

    def reset(self) -> None:
        with self._mutex:
            self.edges.clear()
            self.acquisitions = 0

    def check(
        self,
        allowed_edges: Iterable[tuple[str, str]],
        registry: ContractRegistry | None = None,
    ) -> list[str]:
        """Violations: observed orderings absent from the static graph.

        ``allowed_edges`` is the static graph (extracted + declared) in
        canonical node names.  Self-edges are permitted for reentrant
        locks and for families with a declared ``self_order``.  Returns
        human-readable violation strings (empty means consistent).
        """
        reg = registry if registry is not None else REGISTRY
        allowed = {
            (reg.canonical(a), reg.canonical(b)) for a, b in allowed_edges
        }
        problems: list[str] = []
        for (outer, inner), thread in sorted(self.edges.items()):
            outer_c, inner_c = reg.canonical(outer), reg.canonical(inner)
            if outer_c == inner_c:
                decl = reg.decl_for(outer_c)
                if decl is not None and (
                    decl.reentrant or (decl.family and decl.self_order)
                ):
                    continue
            if (outer_c, inner_c) in allowed:
                continue
            problems.append(
                f"observed lock order {outer_c} -> {inner_c} "
                f"(thread {thread}) is not in the static lock graph"
            )
        return problems


#: the process-wide witness :class:`ContractLock` records into
WITNESS = LockWitness()


class ContractLock:
    """A :mod:`threading` lock that reports acquisitions to the witness.

    Wraps a plain ``Lock`` (or ``RLock`` when ``reentrant``) and mirrors
    the context-manager/acquire/release surface the codebase uses.  Only
    constructed when :data:`WITNESS_ENV` is set — production paths get
    bare stdlib locks with zero indirection.
    """

    __slots__ = ("node", "_inner")

    def __init__(self, node: str, reentrant: bool = False) -> None:
        self.node = node
        self._inner = threading.RLock() if reentrant else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            WITNESS.on_acquire(self.node, id(self))
        return acquired

    def release(self) -> None:
        WITNESS.on_release(self.node, id(self))
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def locked(self) -> bool:
        # RLock has no locked() before 3.12; probe non-blocking instead.
        if self._inner.acquire(False):
            self._inner.release()
            return False
        return True

    # -- Condition support -------------------------------------------------
    #
    # ``threading.Condition(lock)`` forwards to these when present, so a
    # ContractLock can sit under condition variables (the bus's
    # ``PartitionQueue``) without the witness losing track: ``wait()``
    # releases through ``_release_save`` (popping the node off the
    # thread's stack) and reacquires through ``_acquire_restore``
    # (pushing it back) — exactly mirroring what the real lock does.

    def _release_save(self) -> Any:
        WITNESS.on_release(self.node, id(self))
        inner_save = getattr(self._inner, "_release_save", None)
        if inner_save is not None:
            return inner_save()
        self._inner.release()
        return None

    def _acquire_restore(self, state: Any) -> None:
        inner_restore = getattr(self._inner, "_acquire_restore", None)
        if inner_restore is not None:
            inner_restore(state)
        else:
            self._inner.acquire()
        WITNESS.on_acquire(self.node, id(self))

    def _is_owned(self) -> bool:
        # Probe the *inner* lock directly: routing the probe through
        # acquire()/release() would record phantom witness events.
        inner_owned = getattr(self._inner, "_is_owned", None)
        if inner_owned is not None:
            return bool(inner_owned())
        if self._inner.acquire(False):
            self._inner.release()
            return False
        return True


def witness_enabled() -> bool:
    """Whether new locks should be witness-wrapped (env-gated)."""
    return os.environ.get(WITNESS_ENV, "") not in ("", "0")


def make_lock(node: str, reentrant: bool = False) -> Any:
    """A lock for ``node``: stdlib normally, witnessed under the env gate.

    ``node`` must match the static graph's node naming
    (``"ClassName._lock"`` / ``"ClassName._lock_for()"``) or the witness
    cross-check would compare apples to oranges.
    """
    if witness_enabled():
        return ContractLock(node, reentrant=reentrant)
    return threading.RLock() if reentrant else threading.Lock()


def contracts_of(cls: type) -> tuple[Mapping[str, Any], ...]:
    """The :func:`guarded_by` declarations of ``cls`` (own, not inherited)."""
    return tuple(cls.__dict__.get(CONTRACTS_ATTR, ()))
