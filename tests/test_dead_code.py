"""Static check of src/gcsynth: no unused import, no unreferenced private name.

Built on `ast` alone.  An import counts as used when its bound name is read
anywhere in its module; a private module-level name (one leading underscore)
counts as used when some module of the package reads or imports it.  The
package's `__init__.py` re-exports by importing, so its imports are exempt.
"""

import ast
from pathlib import Path

import gcsynth

PACKAGE = Path(gcsynth.__file__).resolve().parent
MODULES = {path.name: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _names_read(tree):
    """Every identifier a module reads: bare names and attribute names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _imported(tree):
    """(bound name, line) for each name a module imports, `from __future__` aside."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def _private_definitions(tree):
    """(name, line) for each private function, class or variable at module level."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return [(name, line) for name, line in out
            if name.startswith("_") and not name.startswith("__")]


def test_no_unused_imports():
    unused = [f"{module}:{line} {name}"
              for module, tree in MODULES.items() if module != "__init__.py"
              for name, line in _imported(tree) if name not in _names_read(tree)]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_no_unreferenced_private_names():
    used = set()
    for tree in MODULES.values():
        used |= _names_read(tree)
        used |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
    unreferenced = [f"{module}:{line} {name}"
                    for module, tree in MODULES.items()
                    for name, line in _private_definitions(tree) if name not in used]
    assert not unreferenced, "unreferenced private names: " + ", ".join(unreferenced)


def test_checks_catch_planted_dead_code():
    tree = ast.parse("import os\nfrom math import pi\n_SPARE = 1\ndef _helper():\n    pass\n")
    assert [name for name, _ in _imported(tree) if name not in _names_read(tree)] \
        == ["os", "pi"]
    assert [name for name, _ in _private_definitions(tree)] == ["_SPARE", "_helper"]
