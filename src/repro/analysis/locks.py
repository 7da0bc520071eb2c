"""Shared lock classification for the concurrency rules.

RA001 (service lock discipline), RA005 (async purity), and RA006 (the
derived lock-order graph) all need to answer the same question: *is
this ``with`` context expression a lock, and which lock is it?*  The
answer lives here once.

A lock *kind* is the attribute name that acquires it (``write_gate``,
``op_lock``, ``_guard``, ``_ops_lock``, ...).  The service's named
kinds are listed explicitly; anything else ending in ``_lock`` or
``_gate`` is classified generically, which is how replica, WAL, and
connection locks added by later PRs enter the RA006 graph without a
registry edit.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.analysis.project import attribute_chain

#: The service's documented lock hierarchy, outermost (0) to innermost
#: (3).  RA006 seeds its derived graph with edges along this order;
#: RA001's blocking-under-lock check treats exactly these as "service
#: locks".  The order itself is enforced by RA006, not by these ranks.
SERVICE_LOCK_RANKS: Dict[str, int] = {
    "_admin_lock": 0,
    "write_gate": 1,
    "op_lock": 2,
    "_guard": 2,
    "_ops_lock": 3,
}

#: Generic suffixes that classify an attribute as a lock even when it
#: is not one of the named service kinds.
_GENERIC_SUFFIXES: Tuple[str, ...] = ("_lock", "_gate")


@dataclass(frozen=True)
class LockUse:
    """One lock acquisition site: the lock kind and rendered receiver."""

    kind: str
    receiver: str

    @property
    def rank(self) -> Optional[int]:
        """The documented service rank, when this is a named service lock."""
        return SERVICE_LOCK_RANKS.get(self.kind)


def classify_lock(expr: ast.expr) -> Optional[LockUse]:
    """Classify a ``with`` context expression as a lock acquisition.

    Handles ``self.write_gate``, ``shard.op_lock``, ``shard._guard()``,
    ``replica.wal._lock`` and the generic ``*_lock``/``*_gate`` shapes;
    returns ``None`` for non-lock context managers (``closing(...)``,
    ``suppress(...)``, file objects, ...).
    """
    target = expr
    if isinstance(target, ast.Call):
        target = target.func
    chain = attribute_chain(target)
    if chain is None or len(chain) < 2:
        return None
    kind = chain[-1]
    if kind not in SERVICE_LOCK_RANKS and not kind.endswith(_GENERIC_SUFFIXES):
        return None
    return LockUse(kind=kind, receiver=".".join(chain[:-1]))


def is_service_lock(use: LockUse) -> bool:
    """True when ``use`` is one of the named service-hierarchy locks."""
    return use.kind in SERVICE_LOCK_RANKS
