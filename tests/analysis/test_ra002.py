"""RA002 hot-path purity: reachability, impurities, and exemptions."""

import ast

from repro.analysis.hotpaths import DEFAULT_HOT_ROOTS, HotRoot, hot_root_qualnames
from repro.analysis.loader import load_paths
from repro.analysis.locks import SERVICE_LOCK_RANKS, classify_lock
from repro.analysis.project import Project
from repro.analysis.rules.ra002_hotpath import HotPathPurityRule

from tests.analysis.helpers import REPO_ROOT, fixture_project, messages


def _run(fixture, roots):
    project = fixture_project(fixture)
    rule = HotPathPurityRule(roots=roots)
    return sorted(rule.run(project)), project


BAD_ROOTS = (HotRoot("ra002_bad", "lookup*"),)
GOOD_ROOTS = (HotRoot("ra002_good", "lookup*"), HotRoot("ra002_good", "*insert*"))


class TestFiringFixture:
    def test_direct_impurities_fire(self):
        findings, _ = _run("ra002_bad.py", BAD_ROOTS)
        texts = messages(findings)
        assert any("wall-clock read time.perf_counter()" in text for text in texts)
        assert any("print()" in text for text in texts)
        assert any("log call logger.debug()" in text for text in texts)
        assert any("broad exception handler (Exception)" in text for text in texts)
        assert any("wall-clock read datetime.now()" in text for text in texts)

    def test_transitive_reach_is_attributed_to_the_root(self):
        findings, _ = _run("ra002_bad.py", BAD_ROOTS)
        transitive = [
            finding
            for finding in findings
            if finding.symbol == "ra002_bad._descend"
        ]
        assert transitive, "callee of the hot root was not analyzed"
        assert all("(hot via ra002_bad.lookup)" in f.message for f in transitive)


class TestSilentFixture:
    def test_good_fixture_is_clean(self):
        findings, _ = _run("ra002_good.py", GOOD_ROOTS)
        assert findings == []

    def test_cold_function_is_not_reached(self):
        _, project = _run("ra002_good.py", GOOD_ROOTS)
        reached = project.reachable_from(
            hot_root_qualnames(project, GOOD_ROOTS)
        )
        assert "ra002_good.report" not in reached


class TestRootRegistry:
    def test_default_roots_cover_the_index_families(self):
        prefixes = {root.module_prefix for root in DEFAULT_HOT_ROOTS}
        for family in ("repro.bptree", "repro.art", "repro.fst", "repro.dualstage"):
            assert family in prefixes
        assert "repro.core.sampling" in prefixes

    def test_root_matching_respects_module_prefix(self):
        root = HotRoot("repro.bptree", "*lookup*")
        # Prefix match is on dotted boundaries, not raw startswith.
        assert not root.module_prefix.startswith("repro.bptree_extra")

    def test_every_registry_entry_matches_the_tree(self):
        # A root or lock kind that matches nothing silently checks
        # nothing: a renamed method would drop out of RA002/RA006.
        modules = load_paths([REPO_ROOT / "src" / "repro"])
        project = Project(modules)
        functions = project.functions.values()
        dead_roots = [
            root
            for root in DEFAULT_HOT_ROOTS
            if not any(root.matches(info) for info in functions)
        ]
        assert dead_roots == []
        # Both the read and the write path of the hash maps stay hot.
        qualnames = hot_root_qualnames(project)
        assert "repro.hashmap.hopscotch.HopscotchMap.get" in qualnames
        assert "repro.hashmap.hopscotch.HopscotchMap._try_insert" in qualnames
        acquired = set()
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, (ast.With, ast.AsyncWith)):
                    exprs = [item.context_expr for item in node.items]
                elif isinstance(node, ast.FunctionDef) and node.name in SERVICE_LOCK_RANKS:
                    # A lock accessor (``_guard``) acquires the lock it returns.
                    exprs = [
                        sub
                        for ret in ast.walk(node)
                        if isinstance(ret, ast.Return) and ret.value is not None
                        for sub in ast.walk(ret.value)
                        if isinstance(sub, ast.Attribute)
                    ]
                else:
                    continue
                acquired.update(
                    use.kind for expr in exprs if (use := classify_lock(expr)) is not None
                )
        assert set(SERVICE_LOCK_RANKS) <= acquired
