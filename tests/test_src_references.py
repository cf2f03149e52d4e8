"""Every public top-level function and class in the package is used by the package.

Code that only tests call belongs in tests/oracles.py or in the test that
needs it, not in src/dmirs/.  A definition counts as used when some other
top-level statement of some module in src/dmirs/ names it (as a name or an
attribute); imports, its own body and __init__.py do not count.
"""

import ast
from pathlib import Path

import dmirs

PACKAGE = Path(dmirs.__file__).parent

# name: why it stays although the package itself does not use it
ALLOWED_UNUSED = {
    "cascaded_gain_closed": "the Dirichlet-kernel reflect gain that the planned array kernel evaluates",
    "serialize_config": "the inverse of parse_config, for writing scenario files",
}


def _modules():
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def _names_in(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _unused_definitions():
    definitions = []  # (module, name, node)
    statements = []  # every top-level statement except imports
    for module, tree in _modules().items():
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            statements.append(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                definitions.append((module, node.name, node))
    return sorted(
        f"{module}.{name}"
        for module, name, node in definitions
        if not any(name in _names_in(other) for other in statements if other is not node)
    )


def test_every_public_definition_is_used_by_the_package():
    unused = [q for q in _unused_definitions() if q.split(".")[1] not in ALLOWED_UNUSED]
    assert not unused, f"used only outside src/dmirs (move to tests/oracles.py or delete): {unused}"


def test_allow_list_names_only_unused_definitions():
    unused = {q.split(".")[1] for q in _unused_definitions()}
    assert set(ALLOWED_UNUSED) <= unused
    assert all(reason.strip() for reason in ALLOWED_UNUSED.values())


def test_every_exported_name_resolves():
    missing = [name for name in dmirs.__all__ if not hasattr(dmirs, name)]
    assert not missing
    namespace = {}
    exec("from dmirs import *", namespace)
    assert set(dmirs.__all__) <= set(namespace)
