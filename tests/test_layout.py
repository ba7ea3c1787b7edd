"""src/ holds the pipeline: every public module-level function or class of the
package is run by a CLI command or the benchmark, or is named below
with the reason it stays.  Test-only oracles belong in tests/oracles.py."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sparsetomo"
CALLERS = (ROOT / "src", ROOT / "perfbench")

ALLOWED = {
    "read_image_binary": "reads the reconstruction.bin that reconstruct writes",
    "read_pgm": "reads the reconstruction.pgm preview that reconstruct writes",
    "read_atlas_patches": "reads the atlas file that atlas build writes",
    "read_system_matrices": "reads the system directory that reconstruct writes",
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
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs[node.name] = (path.name, _is_click_command(node))
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
    orphans = sorted(f"{mod}:{name}" for name, (mod, command) in _public_definitions().items()
                     if not (name in used or command or name in ALLOWED))
    assert orphans == [], "public definitions in src/ that only tests reach: " + ", ".join(orphans)


def test_allow_list_names_existing_definitions():
    assert set(ALLOWED) <= set(_public_definitions())
