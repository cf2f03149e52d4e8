"""Every public top-level function and class in the package is used by the package,
and every defaulted parameter of a public function is passed by the package.

Code that only tests call belongs in tests/oracles.py or in the test that
needs it, not in src/dmirs/.  A definition counts as used when some other
top-level statement of some module in src/dmirs/ names it (as a name or an
attribute); imports, its own body and __init__.py do not count.  A
defaulted parameter counts as passed when some call in src/dmirs/ to a
callee of the function's name (as a name or an attribute) supplies it by
position or keyword, or unpacks *args or **kwargs; otherwise only tests
can set it, and the setting belongs in the Scenario or nowhere.
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


# "function.parameter": why its default is never overridden inside the package
ALLOWED_UNPASSED = {
    "main.argv": "the console entry point calls main() so that argparse reads sys.argv",
    "cascaded_gain_closed.spacing_wavelengths": "the function is allow-listed above as test-only",
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


def _defaulted_parameters(node):
    """Names of the parameters of a function definition that have defaults."""
    args = node.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults) :]]
    names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return names


def _passed_parameters(call, node):
    """Names of ``node``'s parameters that ``call`` supplies (all, if it unpacks)."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    unpacks = any(isinstance(a, ast.Starred) for a in call.args)
    if unpacks or any(k.arg is None for k in call.keywords):
        return set(positional) | {a.arg for a in args.kwonlyargs}
    return set(positional[: len(call.args)]) | {k.arg for k in call.keywords}


def _unpassed_defaults():
    trees = _modules().values()
    functions = [
        node
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    calls = [sub for tree in trees for sub in ast.walk(tree) if isinstance(sub, ast.Call)]
    unpassed = []
    for node in functions:
        passed = set()
        for call in calls:
            callee = call.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name == node.name:
                passed |= _passed_parameters(call, node)
        unpassed += [f"{node.name}.{p}" for p in _defaulted_parameters(node) if p not in passed]
    return sorted(unpassed)


def test_every_defaulted_parameter_is_passed_by_the_package():
    unpassed = [q for q in _unpassed_defaults() if q not in ALLOWED_UNPASSED]
    assert not unpassed, f"only tests set these defaulted parameters (use the Scenario): {unpassed}"


def test_unpassed_allow_list_names_only_unpassed_parameters():
    assert set(ALLOWED_UNPASSED) <= set(_unpassed_defaults())
    assert all(reason.strip() for reason in ALLOWED_UNPASSED.values())
