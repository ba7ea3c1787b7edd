"""src/ holds the pipeline: every public module-level function or class of the
package, and every public method or property of such a class, is run by a
CLI command or the benchmark, or is named below with the reason it stays.
Test-only oracles belong in tests/oracles.py.  Every name that a file under
src/ or tests/ imports is read in that file."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sparsetomo"
CALLERS = (ROOT / "src", ROOT / "perfbench")

ALLOWED = {
    "read_image_binary": "reads the reconstruction.bin that reconstruct writes",
    "read_pgm": "reads the reconstruction.pgm preview that reconstruct writes",
    "read_atlas_patches": "reads the atlas file that atlas build writes",
    "quasi_best_sparse_approx": "the paper's quasi-best approximation, criterion 1",
    "stechkin_bound": "the paper's Stechkin tail bound, criterion 1",
    "discrete_gram": "the dictionary's discrete Gram, criterion 2's orthonormality",
}


def _is_click_command(node) -> bool:
    for dec in node.decorator_list:
        fn = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(fn, ast.Attribute) and fn.attr in ("command", "group"):
            return True
    return False


def _public_definitions():
    """(module, name a caller uses, is a click command) of each public
    definition, keyed "name" at module level and "Class.name" in a class."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs[node.name] = (path.name, node.name, _is_click_command(node))
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defs[f"{node.name}.{item.name}"] = (path.name, item.name, False)
    return defs


def _referenced_names():
    """Names used, attributes read and names imported by the callers; the
    package's __init__ re-exports are not callers."""
    names = set()
    for top in CALLERS:
        for path in top.rglob("*.py"):
            if path == PACKAGE / "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_definition_has_a_pipeline_caller():
    used = _referenced_names()
    orphans = sorted(f"{mod}:{key}" for key, (mod, name, command) in _public_definitions().items()
                     if not (name in used or command or key in ALLOWED))
    assert orphans == [], "public definitions in src/ that only tests reach: " + ", ".join(orphans)


def test_allow_list_names_existing_definitions():
    assert set(ALLOWED) <= set(_public_definitions())


def _unused_imports(path):
    """file:line:name of each name the file imports and never reads; a
    __future__ import, or one marked `# noqa: F401`, is not checked."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or any("# noqa: F401" in line
                       for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno}:{name}")
    return unused


def test_every_import_is_read():
    unused = [entry for top in (ROOT / "src", ROOT / "tests")
              for path in sorted(top.rglob("*.py")) if path.name != "__init__.py"
              for entry in _unused_imports(path)]
    assert unused == [], "imported names that are never read: " + ", ".join(unused)
