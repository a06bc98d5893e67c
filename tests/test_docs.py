"""The README's account of the package, checked against the source."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "oddchar").glob("*.py"))
CACHES = {"cache", "lru_cache"}


def _decorator_name(node):
    if isinstance(node, ast.Call):  # lru_cache(maxsize=None, ...)
        node = node.func
    if isinstance(node, ast.Attribute):  # functools.cache
        return node.attr
    return getattr(node, "id", None)


def _module_caches():
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and any(
                _decorator_name(d) in CACHES for d in node.decorator_list
            ):
                yield f"{path.stem}.{node.name}"


def test_readme_names_every_module_level_cache():
    caches = list(_module_caches())
    assert "glu._odd_layout" in caches and "glu._kappa_q" in caches  # the scan finds both forms
    readme = (ROOT / "README.md").read_text()
    assert [name for name in caches if f"`{name}`" not in readme] == []
