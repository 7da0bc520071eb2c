"""The hot-path root registry for the RA002 purity rule.

The call graph cannot see through dynamic dispatch (``self.index
.lookup(...)``, ``leaf.storage.lookup(...)``), so the per-operation hot
paths are *declared* here instead of inferred: every entry names a set
of functions that the PR-3 observability contract treats as wall-clock
free, and RA002 analyzes everything lexically reachable from them.

A :class:`HotRoot` pairs a dotted module prefix with an ``fnmatch``
pattern over the function's local qualified name (``Class.method`` or
``function``).  The defaults cover the index families' read entry
points, the write entry points of the dynamic families and the hash
maps, the hash maps' mapping-protocol reads, the leaf decode layer, the succinct primitives they
lean on, and the access sampler — extend the tuple (or pass custom
roots to :class:`~repro.analysis.rules.ra002_hotpath
.HotPathPurityRule`) when a new family lands.  The registry is
documented in ``docs/static_analysis.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Iterable, List, Tuple

from repro.analysis.project import FunctionInfo, Project


@dataclass(frozen=True)
class HotRoot:
    """One registered hot-path entry point (or family of them)."""

    module_prefix: str
    pattern: str

    def matches(self, info: FunctionInfo) -> bool:
        module = info.module_name
        prefix = self.module_prefix
        if not (module == prefix or module.startswith(prefix + ".")):
            return False
        return fnmatchcase(info.local_name, self.pattern)


_FAMILY_PREFIXES: Tuple[str, ...] = (
    "repro.bptree",
    "repro.art",
    "repro.fst",
    "repro.hybridtrie",
    "repro.dualstage",
)

#: Families with a write path; FST and the hybrid trie are static.
_WRITABLE_PREFIXES: Tuple[str, ...] = (
    "repro.bptree",
    "repro.art",
    "repro.dualstage",
    "repro.hashmap",
)

#: The registered hot roots: reachability for RA002 starts here.
DEFAULT_HOT_ROOTS: Tuple[HotRoot, ...] = tuple(
    [HotRoot(prefix, "*lookup*") for prefix in _FAMILY_PREFIXES]
    + [HotRoot(prefix, "*insert*") for prefix in _WRITABLE_PREFIXES]
    + [
        # The hash maps read through the mapping protocol, not ``lookup``.
        HotRoot("repro.hashmap", "*.get"),
        HotRoot("repro.hashmap", "*.__getitem__"),
        HotRoot("repro.hashmap", "*.__contains__"),
        # Leaf decode layer: reads that families dispatch to dynamically
        # (invisible to the call graph).  Leaf ``lookup``/``lookup_run``
        # are covered by the ``repro.bptree`` root above.
        HotRoot("repro.bptree.leaves", "*.entries_from"),
        # Succinct primitives backing compressed probes.
        HotRoot("repro.succinct", "*.__getitem__"),
        HotRoot("repro.succinct", "*.rank*"),
        HotRoot("repro.succinct", "*.select*"),
        HotRoot("repro.succinct", "*decode*"),
        # The per-access sampler (Listing 1 of the paper).
        HotRoot("repro.core.sampling", "SkipSampler.is_sample"),
        HotRoot("repro.core.sampling", "SkipSampler.consume"),
    ]
)


def hot_root_qualnames(
    project: Project, roots: Iterable[HotRoot] = DEFAULT_HOT_ROOTS
) -> List[str]:
    """Qualnames of every project function a registered root matches."""
    root_list = list(roots)
    return sorted(
        info.qualname
        for info in project.functions.values()
        if any(root.matches(info) for root in root_list)
    )
