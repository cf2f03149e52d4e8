"""Every public top-level function and class in the package is used by the package,
and every defaulted parameter of a public function is passed by the package.

Code that only tests call belongs in tests/oracles.py or in the test that
needs it, not in src/dmirs/.  A definition counts as used when some other
top-level statement of some module in src/dmirs/ names it (as a name or an
attribute); imports, its own body and __init__.py do not count.  A
defaulted parameter counts as passed when some call in src/dmirs/ to a
callee of the function's name (as a name or an attribute) supplies it by
position or keyword, or unpacks *args or **kwargs; otherwise only tests
can set it, and the setting belongs in the Scenario or nowhere.  Every
field of a public dataclass counts as read when src/dmirs/ loads it as an
attribute or names it in a string constant (as getattr(record, "name")
does) outside the class's own __post_init__; a field nothing reads only
costs its record memory and its builder's work.
A parameter of a function defined in src/dmirs/ that every call there
supplies as one and the same literal has one value in use: it belongs in
the body as a constant.
Every parameter of every function and method defined in src/dmirs/ is read
in its body: an argument nothing reads (kept "for compatibility") still has
every caller build and pass it.  Lambdas are left out: one in a dispatch
table takes the signature its siblings share.
Only secrecy acts on the noise mode: outside it, no code compares an
.an_mode (one of secrecy.AN_MODES' strings) with anything, but for
Scenario.__post_init__, which checks that it is one of them.
No public top-level function is a generator: a generator's body runs only
as its caller iterates it, so a span timed around the call (as
bench/tracer.py times them) books that work to whoever iterates.

The test modules beside this one are held to one rule of their own: every
name a test module imports is read somewhere in that module.
"""

import ast
from pathlib import Path

import dmirs

PACKAGE = Path(dmirs.__file__).parent
TESTS = Path(__file__).parent

# name: why it stays although the package itself does not use it
ALLOWED_UNUSED = {
    "serialize_config": "the inverse of parse_config, for writing scenario files",
}


# "function.parameter": why its default is never overridden inside the package
ALLOWED_UNPASSED = {
    "main.argv": "the console entry point calls main(), which then reads sys.argv",
}

# "Class.field": why it stays although the package never reads it
ALLOWED_UNREAD = {}

# "function.parameter": why every call in the package passes it the same literal
ALLOWED_ONE_VALUE = {}

# "function.parameter": why the function's body never reads it
ALLOWED_UNREAD_PARAMETERS = {}


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


def _callee_name(call):
    """The name a call calls, as a name or an attribute (None for other callees)."""
    callee = call.func
    return callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)


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
            if _callee_name(call) == node.name:
                passed |= _passed_parameters(call, node)
        unpassed += [f"{node.name}.{p}" for p in _defaulted_parameters(node) if p not in passed]
    return sorted(unpassed)


def test_every_defaulted_parameter_is_passed_by_the_package():
    unpassed = [q for q in _unpassed_defaults() if q not in ALLOWED_UNPASSED]
    assert not unpassed, f"only tests set these defaulted parameters (use the Scenario): {unpassed}"


def test_unpassed_allow_list_names_only_unpassed_parameters():
    assert set(ALLOWED_UNPASSED) <= set(_unpassed_defaults())
    assert all(reason.strip() for reason in ALLOWED_UNPASSED.values())


def _is_dataclass(node):
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list
    )


def _reads(node, owner, found):
    """Add (owner, name) for each attribute load and string constant under ``node``;
    the owner becomes a class's name inside that class's __post_init__."""
    if isinstance(node, ast.ClassDef):
        for stmt in node.body:
            inner = node.name if getattr(stmt, "name", None) == "__post_init__" else owner
            _reads(stmt, inner, found)
        return
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        found.add((owner, node.attr))
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        found.add((owner, node.value))
    for child in ast.iter_child_nodes(node):
        _reads(child, owner, found)


def _unread_fields():
    trees = _modules().values()
    found = set()
    for tree in trees:
        _reads(tree, None, found)
    unread = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_") and _is_dataclass(node):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        name = stmt.target.id
                        if not any(field == name and owner != node.name for owner, field in found):
                            unread.append(f"{node.name}.{name}")
    return sorted(unread)


def test_every_dataclass_field_is_read_by_the_package():
    unread = [q for q in _unread_fields() if q not in ALLOWED_UNREAD]
    assert not unread, f"no code in src/dmirs reads these fields (delete them): {unread}"


def test_unread_allow_list_names_only_unread_fields():
    assert set(ALLOWED_UNREAD) <= set(_unread_fields())
    assert all(reason.strip() for reason in ALLOWED_UNREAD.values())


def _one_value_parameters():
    """The "function.parameter" names of the parameters of top-level functions
    that every call in the package supplies as the same literal."""
    trees = _modules().values()
    calls = [sub for tree in trees for sub in ast.walk(tree) if isinstance(sub, ast.Call)]
    found = []
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            positional = [a.arg for a in node.args.posonlyargs + node.args.args]
            supplied = []  # {parameter: expression} per call
            for call in calls:
                if _callee_name(call) != node.name:
                    continue
                if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
                    supplied.append({})  # unpacked: nothing is known to be a literal
                    continue
                supplied.append(dict(zip(positional, call.args)) | {k.arg: k.value for k in call.keywords})
            for name in positional + [a.arg for a in node.args.kwonlyargs]:
                values = [args.get(name) for args in supplied]
                literal = values and all(isinstance(v, ast.Constant) for v in values)
                if literal and len({ast.dump(v) for v in values}) == 1:
                    found.append(f"{node.name}.{name}")
    return sorted(found)


def test_no_parameter_has_one_literal_value_in_every_call():
    one_value = [q for q in _one_value_parameters() if q not in ALLOWED_ONE_VALUE]
    assert not one_value, f"every call passes the same literal (make it a constant): {one_value}"


def test_one_value_allow_list_names_only_one_value_parameters():
    assert set(ALLOWED_ONE_VALUE) <= set(_one_value_parameters())
    assert all(reason.strip() for reason in ALLOWED_ONE_VALUE.values())


def _parameters_unread(tree):
    """The "function.parameter" names of the parameters of each function and
    method defined in ``tree`` that its own body never loads."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        parameters = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
        loaded = {
            sub.id
            for stmt in node.body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        unread += [f"{node.name}.{a.arg}" for a in parameters if a.arg not in loaded]
    return unread


def _unread_parameters():
    return sorted(q for tree in _modules().values() for q in _parameters_unread(tree))


def test_every_parameter_is_read_by_its_function():
    unread = [q for q in _unread_parameters() if q not in ALLOWED_UNREAD_PARAMETERS]
    assert not unread, f"never read by their own function (delete them): {unread}"


def test_unread_parameter_allow_list_names_only_unread_parameters():
    assert set(ALLOWED_UNREAD_PARAMETERS) <= set(_unread_parameters())
    assert all(reason.strip() for reason in ALLOWED_UNREAD_PARAMETERS.values())


def test_parameter_scan_counts_only_loads_in_the_functions_own_body():
    tree = ast.parse(
        "def a(x, projector, *rest, key=0, **extra):\n    return x, rest, key, extra\n"
        "def b(x, y=lambda z: z):\n    return x\n"
        "class C:\n    def m(self, n):\n        return n\n"
    )
    assert sorted(_parameters_unread(tree)) == ["a.projector", "b.y", "m.self"]


def _is_generator(node):
    """Whether a function definition's own body yields; a nested function,
    lambda or class that yields does not make it a generator."""
    stack = list(node.body)
    while stack:
        sub = stack.pop()
        if isinstance(sub, (ast.Yield, ast.YieldFrom)):
            return True
        if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(sub))
    return False


def test_no_public_function_is_a_generator():
    generators = [
        f"{module}.{node.name}"
        for module, tree in _modules().items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and _is_generator(node)
    ]
    assert not generators, f"generators: their work is timed where they are iterated (return a list): {generators}"


def test_generator_scan_reads_only_a_functions_own_body():
    tree = ast.parse(
        "def a():\n    yield 1\n"
        "def b():\n    return (yield from ())\n"
        "def c():\n    def inner():\n        yield 1\n    return (x for x in inner())\n"
    )
    assert [_is_generator(node) for node in tree.body] == [True, True, False]


def _an_mode_comparisons(module, tree):
    """"module:line" of each comparison in ``tree`` with an ``.an_mode``
    operand, except in secrecy and in scenario's __post_init__ (Scenario's
    validation)."""
    if module == "secrecy":
        return []
    found, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if module == "scenario" and isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            continue
        if isinstance(node, ast.Compare) and any(
            isinstance(operand, ast.Attribute) and operand.attr == "an_mode"
            for operand in (node.left, *node.comparators)
        ):
            found.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return [f"{module}:{line}" for line in sorted(found)]


def test_only_secrecy_acts_on_the_noise_mode():
    found = [q for module, tree in _modules().items() for q in _an_mode_comparisons(module, tree)]
    assert not found, f"compare an an_mode outside secrecy (hand the mode to a secrecy function): {found}"


def test_noise_mode_scan_flags_comparisons_outside_secrecy_and_validation():
    tree = ast.parse(
        "def run(scenario):\n"
        "    if scenario.an_mode == 'instantaneous':\n        pass\n"
        "    return [m for m in MODES if 'expected' != m.an_mode]\n"
        "class Scenario:\n    def __post_init__(self):\n        assert self.an_mode in AN_MODES\n"
        "    def mode(self):\n        return self.an_mode not in ('expected',)\n"
    )
    assert _an_mode_comparisons("sweeps", tree) == ["sweeps:2", "sweeps:4", "sweeps:7", "sweeps:9"]
    assert _an_mode_comparisons("scenario", tree) == ["scenario:2", "scenario:4", "scenario:9"]
    assert _an_mode_comparisons("secrecy", tree) == []


def _unused_imports(tree):
    """Names an import binds in ``tree`` that no name expression in it reads."""
    imported = {
        alias.asname or alias.name.split(".")[0]  # `import a.b` binds a
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_every_name_a_test_module_imports_is_read():
    unused = [
        f"{path.name}: {name}"
        for path in sorted(TESTS.glob("*.py"))
        for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not unused, f"imported but never read (delete the import): {unused}"
