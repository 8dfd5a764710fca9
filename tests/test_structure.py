"""The package's import structure, read from the source with ``ast``."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import crossbell

# Each module imports only modules to its left, so the graph has no cycle.
LAYERS = ("statevec", "bell", "measure", "teleport", "oracle", "__init__", "cli")
# The walker's kernels, data and state builders: the oracle must check them,
# not run on them.
WALKER_NAMES = {
    "_contract", "_channel_level", "walk_branches", "cross_bell_coefficients",
    "expand_in_cross_bell", "_BELL_AMPS", "_project_raw", "prepare_channel",
    "bell_state", "cross_bell_state", "cross_bell_basis", "cross_bell_stack",
    "_enumerated",
}


def _parse(name: str) -> ast.Module:
    return ast.parse((Path(crossbell.__file__).parent / f"{name}.py").read_text())


def _imported_modules(node: ast.AST) -> set[str]:
    """The crossbell modules an import statement names ("__init__" for the
    package itself); empty for any other node."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level:
        if node.module:
            return {node.module}
        # "from . import x": a sibling module, or a name the package defines
        return {a.name if a.name in LAYERS else "__init__" for a in node.names}
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        return set()
    return {
        n.partition(".")[2] or "__init__"
        for n in names
        if n.split(".")[0] == "crossbell"
    }


def test_every_module_has_a_layer():
    here = Path(crossbell.__file__).parent
    assert {p.stem for p in here.glob("*.py")} == set(LAYERS)


@pytest.mark.parametrize("name", LAYERS)
def test_package_imports_are_at_module_level(name):
    tree = _parse(name)
    nested = [
        node.lineno
        for node in ast.walk(tree)
        if _imported_modules(node) and node not in tree.body
    ]
    assert not nested, f"{name}.py imports inside a block at lines {nested}"


@pytest.mark.parametrize("name", LAYERS)
def test_modules_import_only_lower_layers(name):
    lower = set(LAYERS[: LAYERS.index(name)])
    for node in ast.walk(_parse(name)):
        modules = _imported_modules(node)
        assert modules <= lower, f"{name} imports {modules - lower}"


def test_oracle_imports_only_statevec_and_bell():
    # its derivation runs on its own patterns and tensordot
    modules = set().union(*map(_imported_modules, ast.walk(_parse("oracle"))))
    assert modules == {"statevec", "bell"}


def test_oracle_names_none_of_the_walkers_kernels():
    named = set()
    for node in ast.walk(_parse("oracle")):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(n for a in node.names for n in (a.name, a.asname))
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.Name):
            named.add(node.id)
    assert not named & WALKER_NAMES


def test_cli_imports_no_private_name_from_another_module():
    # the CLI reaches the walk and the correction through run_protocol alone
    private = [
        alias.name
        for node in ast.walk(_parse("cli"))
        if _imported_modules(node) and isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert not private, f"cli.py imports {private}"


def test_the_package_has_no_assert_statement():
    # python -O strips assert statements, so every check must be a raise
    asserts = [
        f"{name}.py:{node.lineno}"
        for name in LAYERS
        for node in ast.walk(_parse(name))
        if isinstance(node, ast.Assert)
    ]
    assert not asserts, f"assert statements at {asserts}"
