"""Every name a module imports is used in it or exported by its __all__."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ellbar"

# perfbench/tracing.py wraps logforms.wp and logforms.wzeta by that module's
# name, so logforms keeps importing them although it calls neither.
ALLOWED = {"logforms": {"wp", "wzeta"}}


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.stem
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = set(_imported_names(tree)) - used - _exported(tree) - ALLOWED.get(path.stem, set())
    assert not unused, f"{path.name} imports but never uses {sorted(unused)}"
