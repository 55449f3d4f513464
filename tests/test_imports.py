"""Every module of the package uses each name it imports (`__init__.py`,
which imports to re-export, is left out).  A deletion that leaves an import
behind fails here.  Read with the standard `ast` module, so no linter is
needed.  And the package exports exactly the names listed here, so a name
that enters or leaves `routedmpst.__all__` shows in the diff of this file."""

import ast
from pathlib import Path

import pytest

import routedmpst

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "routedmpst"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                             key=lambda item: item[1])
            if name not in used]


def test_the_check_finds_an_unused_import():
    assert unused_imports("import os\nfrom re import compile, match\nmatch('', '')\n") == \
        ["line 1: os", "line 2: compile"]
    assert unused_imports("from __future__ import annotations\n"
                          "from x import A\ndef f(a: A): ...\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_name_it_never_uses(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


EXPORTS = {
    # submodules the package imports
    "analysis", "core", "encoding", "projection", "scribble", "semantics", "wellformed",
    # core
    "ActionLabel", "GComm", "GEnd", "GRec", "GRouted", "GRoutedTransit", "GTransit", "GVar",
    "GlobalType", "InvalidType", "LBranch", "LEnd", "LRec", "LRouter", "LRouterTransit",
    "LRoutedBranch", "LRoutedSelect", "LSelect", "LVar", "LocalType", "MsgLabel",
    "Role", "canonicalize", "direct_recv", "direct_send", "free_vars",
    "participants", "pretty_global", "pretty_local", "routed_recv", "routed_send",
    "validate",
    # scribble, projection, wellformed, encoding
    "ProtocolDecl", "ScribbleError", "elaborate", "parse_module", "pretty_module",
    "MergeFailure", "merge", "project", "check_wf", "check_wf_routed", "is_centroid",
    "AlreadyRouted", "NotCanonical", "RouterPerspectiveWarning", "encode_global",
    "encode_label", "encode_local",
    # semantics, analysis
    "Configuration", "config_steps", "global_steps", "local_steps", "project_configuration",
    "ExplorationReport", "StateBudgetExceeded", "TraceSet", "check_deadlock_freedom",
    "check_encoding_bisim", "check_trace_equivalence", "config_traces", "global_traces",
}


def test_the_package_exports_exactly_the_pinned_names():
    assert len(routedmpst.__all__) == len(set(routedmpst.__all__))
    assert set(routedmpst.__all__) == EXPORTS
