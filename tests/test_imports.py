"""Every name a module imports is used in it or exported by its __all__;
every name in an __all__ exists; every private top-level name is used."""

import ast
import importlib
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


def _module(path):
    return importlib.import_module("ellbar" if path.stem == "__init__" else f"ellbar.{path.stem}")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_exports_exist(path):
    module = _module(path)
    missing = sorted(n for n in _exported(ast.parse(path.read_text())) if not hasattr(module, n))
    assert not missing, f"{path.name} exports names it does not define: {missing}"


def _private_definitions(tree):
    """(name, node) for each top-level private function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _outside_uses(tree, name, node):
    """Reads of name in the module's tree outside node's own lines."""
    return [
        n for n in ast.walk(tree)
        if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id == name
            or isinstance(n, ast.Attribute) and n.attr == name)
        and not node.lineno <= n.lineno <= node.end_lineno
    ]


def _imported_from(tree, stem):
    """Names other modules import from module stem, or read as stem.name."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.level == 1 and n.module == stem:
            out.update(alias.name for alias in n.names)
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == stem:
            out.add(n.attr)
    return out


def test_private_names_are_used():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    unused = []
    for stem, tree in sorted(trees.items()):
        elsewhere = set().union(*(_imported_from(t, stem) for s, t in trees.items() if s != stem))
        for name, node in _private_definitions(tree):
            if name not in elsewhere and not _outside_uses(tree, name, node):
                unused.append(f"{stem}.{name}")
    assert not unused, f"private names that nothing in src/ellbar uses: {unused}"


# The private names each module imports from a sibling, by (importer,
# sibling).  Each entry ties the importer to a name its owner may change
# without notice; a new one fails below, and should become a public name or
# stay in its module instead.
PRIVATE_IMPORTS = {
    ("chenint", "wlattice"): {"_cell_shift"},
    ("cli", "chenint"): {"_p1_word"},
    ("cli", "p1model"): {"_mzv_series"},
    ("cli", "wlattice"): {"_eisenstein"},
    ("logforms", "wlattice"): {"_U", "_eis_constants", "_guarded_shift", "_wp_zeta"},
    ("verify", "barcx"): {"_in_span", "_rref"},
    ("verify", "chenint"): {"_word_table"},
}


def test_private_imports_are_listed():
    found = {}
    for path in SRC.glob("*.py"):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.ImportFrom) and n.level == 1 and n.module:
                names = {alias.name for alias in n.names if alias.name.startswith("_")}
                if names:
                    found.setdefault((path.stem, n.module), set()).update(names)
    assert found == PRIVATE_IMPORTS
