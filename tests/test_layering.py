"""The package's modules form layers: each imports only the layers below it."""

import ast
from pathlib import Path

import riscplane

PACKAGE = Path(riscplane.__file__).resolve().parent
LAYERS = ["errors", "channel", "control", "frames", "config", "metrics", "cli"]
ENTRY_POINTS = {"__init__", "__main__"}     # above every layer


def _relative_imports(path: Path) -> set[str]:
    """Modules of the package that path imports, wherever the import is (TYPE_CHECKING too)."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:     # from . import a, b
                imported.update(alias.name for alias in node.names)
            else:
                imported.add(node.module.split(".")[0])
    return imported


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules == set(LAYERS) | ENTRY_POINTS


def test_modules_import_only_lower_layers():
    for name in LAYERS:
        below = set(LAYERS[:LAYERS.index(name)])
        upward = _relative_imports(PACKAGE / f"{name}.py") - below
        assert not upward, f"{name} imports {sorted(upward)}, not below it in {LAYERS}"
