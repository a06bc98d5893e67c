"""The public surface and the module layers, read from the ast of src/oddchar/*.py.

Reachability is by name. Every top-level def of cli.py and verify.py is a root.
A reached def reaches each top-level def that a name in it resolves to: in its
own module, or through a `from .module import name` anywhere in that module.
Decorators, base classes and methods are part of a def. A local variable that
shares a top-level name counts as a use, so the walk can only reach too much,
never too little.
"""

import ast
from importlib import import_module
from pathlib import Path

import oddchar
from oddchar.partitions import Partition, Value

SRC = Path(__file__).resolve().parent.parent / "src" / "oddchar"
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}

# Public names that no CLI command and no verify suite reaches, each with its reason.
ALLOWED_UNREACHED = {
    "binom_is_odd": "acceptance criterion 1 checks it against Pascal's triangle mod 2",
    "sl_label_census": "acceptance criterion 11 and demos/gl_gu_labels.py count SL labels with it",
    "mn_value": "the character-value oracle that the orthogonality and LR tests compare against",
    "class_size": "z_mu of the orthogonality tests, which a plethysm oracle for Theorem D needs",
}


def _defs(tree):
    """Top-level name -> its node, for functions, classes and assigned names."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                out.update((name.id, node) for name in ast.walk(target) if isinstance(name, ast.Name))
    return out


def _relative_imports(tree):
    """(module, local name, imported name) for each `from .module import name`, at any depth."""
    return [
        (node.module, alias.asname or alias.name, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    ]


DEFS = {module: _defs(tree) for module, tree in MODULES.items()}
IMPORTS = {
    module: {local: (source, name) for source, local, name in _relative_imports(tree)}
    for module, tree in MODULES.items()
}


def _resolve(module, name):
    """The (module, name) of the top-level def that name means in module, or None."""
    while name not in DEFS[module]:
        if name not in IMPORTS[module]:
            return None
        module, name = IMPORTS[module][name]
    return module, name


def _reached():
    seen = {(module, name) for module in ("cli", "verify") for name in DEFS[module]}
    stack = list(seen)
    while stack:
        module, name = stack.pop()
        for node in ast.walk(DEFS[module][name]):
            target = _resolve(module, node.id) if isinstance(node, ast.Name) else None
            if target is not None and target not in seen:
                seen.add(target)
                stack.append(target)
    return seen


def test_every_public_name_is_reached_or_allowed():
    homes = {(module, name) for module, names in oddchar._HOMES.items() for name in names}
    assert [home for home in homes if home[1] not in DEFS[home[0]]] == []  # the walk sees them all
    unreached = {name for _, name in homes - _reached()}
    # reach it from a CLI command or a verify suite, or delete it
    assert sorted(unreached - set(ALLOWED_UNREACHED)) == []
    # reached or gone: take it off the allowlist
    assert sorted(set(ALLOWED_UNREACHED) - unreached) == []


def _imported_modules(module):
    return {source for source, _, _ in _relative_imports(MODULES[module])}


def test_the_maps_import_no_oracle():
    for module in ("sym", "glu", "omega"):
        assert _imported_modules(module) & {"characters", "permgroups"} == set(), module


def test_the_oracles_import_only_the_substrate():
    # `from . import _HOMES`, each module's __all__ row, names no module and is not counted
    assert _imported_modules("characters") <= {"errors", "partitions"}
    assert _imported_modules("permgroups") <= {"errors", "partitions", "characters"}


def _value_classes():
    for module in MODULES:
        import_module(f"oddchar.{module}")
    stack = [Value]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("oddchar."):
                yield cls


def test_every_value_class_declares_its_fields():
    classes = list(_value_classes())
    in_source = {
        node.name
        for tree in MODULES.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and any(getattr(base, "id", None) == "Value" for base in node.bases)
    }
    assert {cls.__name__ for cls in classes} == in_source and len(classes) == len(in_source)
    written = {
        node.name: {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        for tree in MODULES.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in in_source
    }
    for cls in classes:
        if cls is Partition:  # n is derived from parts, and equality reads parts alone
            continue
        assert len(vars(cls).get("_shapes", ())) == len(cls.__slots__), cls
        # read and written through the declaration, never by hand
        assert written[cls.__name__] & {"__init__", "from_json", "to_json"} == set(), cls
    assert "_check_type" in DEFS["partitions"]
