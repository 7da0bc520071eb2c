"""RA007 — handle lifecycle: every acquired handle reaches ``close()``.

Both PR-6 fd leaks had the same anatomy: a function acquired an OS
handle (``open``, a WAL) and an *exception path* skipped the release —
an aborted ``truncate_upto`` reopened the log while the old descriptor
was still live, and a failed recovery dropped its half-built WAL on the
floor.  Descriptor leaks never fail a unit test; they fail a server
three days in.  This rule checks two shapes lexically:

* **local handles** — ``h = open(...)`` (or ``WriteAheadLog(...)``,
  ``os.fdopen``, ``socket.socket``) must reach ``h.close()`` on every
  path: either the handle *escapes* (returned, stored on an attribute
  or container, passed to a call, captured by a nested def — ownership
  moved), or it is used as a context manager, or it is closed in a
  ``finally``.  A close that only sits on the straight-line path is
  reported as missing its exception path;
* **attribute reassignment** — ``self.X = open(...)`` over a handle
  that was already *used* earlier in the function must be preceded by
  ``self.X.close()`` on the same path (inside the same ``except``
  handler when the reassignment is failure-path cleanup) — the exact
  ``truncate_upto`` abort-path leak.

Lifecycle tracking across functions is out of scope (ownership handoff
is an escape), so the rule is labelled a **warning**.  The label does not
change gating: every finding exits 1, and a reviewed false positive takes
a justified suppression (docs/static_analysis.md).
"""

from __future__ import annotations

import ast
from fnmatch import fnmatchcase
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.core import Finding, Rule, register
from repro.analysis.loader import ParsedModule
from repro.analysis.project import FunctionInfo, Project, attribute_chain

DEFAULT_SCOPE: Tuple[str, ...] = (
    "repro.service",
    "repro.service.*",
    "repro.durability",
    "repro.durability.*",
    "repro.replication",
    "repro.replication.*",
    "repro.net",
    "repro.net.*",
    "repro.core",
    "repro.core.*",
)

#: Constructors whose return value is an OS-handle-like resource.
ACQUIRER_NAMES = frozenset({"open", "WriteAheadLog"})
ACQUIRER_MODULE_ATTRS = frozenset({("os", "fdopen"), ("socket", "socket"),
                                   ("socket", "create_connection")})


def _is_acquirer(call: ast.Call, module_aliases: Dict[str, str]) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in ACQUIRER_NAMES
    chain = attribute_chain(func)
    if chain is None or len(chain) != 2:
        return False
    root_module = module_aliases.get(chain[0], "")
    return (root_module, chain[1]) in ACQUIRER_MODULE_ATTRS


@register
class HandleLifecycleRule(Rule):
    """RA007: acquired handles reach close() on all paths."""

    id = "RA007"
    title = "handle lifecycle"
    severity = "warning"
    rationale = (
        "A handle that misses close() on an exception path is a descriptor "
        "leak that only shows up under sustained faults — both PR-6 fd "
        "leaks had this shape (docs/durability.md)."
    )

    def __init__(self, modules: Sequence[str] = DEFAULT_SCOPE) -> None:
        self._scope = tuple(modules)

    def _in_scope(self, module: ParsedModule) -> bool:
        return any(fnmatchcase(module.name, pattern) for pattern in self._scope)

    def run(self, project: Project) -> Iterator[Finding]:
        for info in sorted(project.functions.values(), key=lambda i: i.qualname):
            if not self._in_scope(info.module):
                continue
            aliases = project.imports[info.module_name].modules
            yield from self._check_local_handles(info, aliases)
            yield from self._check_attribute_reassign(info, aliases)

    # -- local handles ---------------------------------------------------
    def _check_local_handles(
        self, info: FunctionInfo, aliases: Dict[str, str]
    ) -> Iterator[Finding]:
        for node in ast.walk(info.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not info.node:
                continue
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if not isinstance(node.value, ast.Call) or not _is_acquirer(
                node.value, aliases
            ):
                continue
            yield from self._check_one_local(info, node, target.id)

    def _check_one_local(
        self, info: FunctionInfo, assign: ast.Assign, name: str
    ) -> Iterator[Finding]:
        closes: List[ast.Call] = []
        closes_in_finally: List[ast.Call] = []
        finally_ids = {
            id(inner)
            for node in ast.walk(info.node)
            if isinstance(node, ast.Try)
            for stmt in node.finalbody
            for inner in ast.walk(stmt)
        }
        for node in ast.walk(info.node):
            if self._escapes(node, info.node, name):
                return
            if (
                isinstance(node, ast.Call)
                and attribute_chain(node.func) == [name, "close"]
            ):
                closes.append(node)
                if id(node) in finally_ids:
                    closes_in_finally.append(node)
        if not closes:
            yield self.finding(
                info.module,
                assign,
                f"handle {name!r} acquired here is never closed in "
                f"{info.local_name}; close it in a finally or use a "
                "`with` block",
                symbol=info.qualname,
            )
        elif not closes_in_finally:
            yield self.finding(
                info.module,
                assign,
                f"handle {name!r} is only closed on the straight-line path "
                f"of {info.local_name}; an exception between acquire and "
                "close leaks the descriptor — move the close into a "
                "finally or use a `with` block",
                symbol=info.qualname,
            )

    @staticmethod
    def _escapes(node: ast.AST, owner: ast.AST, name: str) -> bool:
        """Ownership leaves the function: stored, returned, passed, captured.

        A *bare* mention of the handle (``h`` as a value) moves ownership;
        a method/field access on it (``h.read()``, ``h.fileno``) does not.
        """
        def mentions(expr: Optional[ast.AST]) -> bool:
            return expr is not None and any(
                isinstance(sub, ast.Name) and sub.id == name
                for sub in ast.walk(expr)
            )

        def bare_mentions(expr: Optional[ast.AST]) -> bool:
            if expr is None:
                return False
            receivers = {
                id(sub.value) for sub in ast.walk(expr) if isinstance(sub, ast.Attribute)
            }
            return any(
                isinstance(sub, ast.Name)
                and sub.id == name
                and id(sub) not in receivers
                for sub in ast.walk(expr)
            )

        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # Any capture by a closure outlives this frame.
            return node is not owner and mentions(node)
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            return bare_mentions(node.value)
        if isinstance(node, ast.Assign):
            # Aliasing or storing the handle moves ownership; the
            # acquiring assignment itself has the handle on the *left*.
            return bare_mentions(node.value)
        if isinstance(node, ast.Call):
            chain = attribute_chain(node.func)
            if chain == [name, "close"]:
                return False
            return any(bare_mentions(arg) for arg in node.args) or any(
                bare_mentions(kw.value) for kw in node.keywords
            )
        if isinstance(node, ast.withitem):
            # ``with h:``/``with closing(h):`` both release on exit.
            return mentions(node.context_expr)
        return False

    # -- attribute reassignment ------------------------------------------
    def _check_attribute_reassign(
        self, info: FunctionInfo, aliases: Dict[str, str]
    ) -> Iterator[Finding]:
        if info.name == "__init__":
            return
        handler_of: Dict[int, ast.ExceptHandler] = {}
        for node in ast.walk(info.node):
            if isinstance(node, ast.Try):
                for handler in node.handlers:
                    for inner in ast.walk(handler):
                        handler_of[id(inner)] = handler
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            chain = attribute_chain(target)
            if chain is None or len(chain) < 2:
                continue
            if not isinstance(node.value, ast.Call) or not _is_acquirer(
                node.value, aliases
            ):
                continue
            if not self._loaded_before(info, chain, node.lineno):
                continue  # first touch in this function: initialization
            search_root: ast.AST = handler_of.get(id(node), info.node)
            if self._closed_before(search_root, chain, node.lineno):
                continue
            where = (
                "in this except handler"
                if id(node) in handler_of
                else "earlier in the function"
            )
            yield self.finding(
                info.module,
                node,
                f"reassigning {'.'.join(chain)} to a fresh handle without "
                f"closing the previous one {where}; the old descriptor "
                "leaks (the PR-6 truncate abort-path bug)",
                symbol=info.qualname,
            )

    @staticmethod
    def _loaded_before(info: FunctionInfo, chain: List[str], line: int) -> bool:
        for node in ast.walk(info.node):
            if node.__class__ is ast.Attribute and getattr(node, "lineno", line) < line:
                found = attribute_chain(node)
                if found is not None and found[: len(chain)] == chain:
                    return True
        return False

    @staticmethod
    def _closed_before(root: ast.AST, chain: List[str], line: int) -> bool:
        target = chain + ["close"]
        for node in ast.walk(root):
            if (
                isinstance(node, ast.Call)
                and getattr(node, "lineno", line) < line
                and attribute_chain(node.func) == target
            ):
                return True
        return False
