"""Static check of src/gcsynth: no unused import, no unreferenced private name,
no export and no class member that only tests use.

Built on `ast` alone.  An import counts as used when its bound name is read
anywhere in its module; a private module-level name (one leading underscore)
counts as used when some module of the package reads or imports it.  The
package's `__init__.py` re-exports by importing, so its imports are exempt
from the first check and subject to the last: each export must be reached
from a demo, the benchmark, the README or the command line.  A class member
(dataclass field, property or method) counts as used when code outside the
tests reads it as an attribute, the member's own body aside.
"""

import ast
from pathlib import Path
import re

import gcsynth

PACKAGE = Path(gcsynth.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]
MODULES = {path.name: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}
# Exports that nothing outside the tests reaches, each with the reason it stays.
EXPORT_EXCEPTIONS = {
    "offdiag_distance": "the tests' oracle for the d trace `diagonalize.run` records",
}
# Class members that nothing outside the tests reads, each with its reason.
MEMBER_EXCEPTIONS = {
    "HiddenGcs.preparation_ops": "the acceptance tests' oracle for the hidden state's recipe",
}


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


def _definitions(statements):
    """(name, line) for each function, class or variable the statements define."""
    out = []
    for node in statements:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return out


def _private_definitions(tree):
    """(name, line) for each private function, class or variable at module level."""
    return [(name, line) for name, line in _definitions(tree.body)
            if name.startswith("_") and not name.startswith("__")]


def _names_used(node):
    """`_names_read` plus imported names and identifier strings: the benchmark's
    tracer looks functions up by name."""
    strings = {n.value for n in ast.walk(node)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)
               and n.value.isidentifier()}
    return _names_read(node) | {name for name, _ in _imported(node)} | strings


def _readme_code():
    """The README's code, one string: its ```sh and ```python blocks and its
    inline code spans.  Other fenced blocks (a formula, the Layout tree) are prose."""
    text = (REPO / "README.md").read_text()
    fenced = re.findall(r"^```(\w*)\n(.*?)^```", text, flags=re.S | re.M)
    prose = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    return " ".join([body for lang, body in fenced if lang in ("sh", "python")]
                    + re.findall(r"`[^`\n]+`", prose))


def _reached_names():
    """Names read by a demo, `perfbench/`, the README's code, or a package
    statement outside any definition and import; then, until nothing grows,
    by each package-level definition whose name is reached."""
    outside = sorted((REPO / "demos").glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
    reached = set().union(*(_names_used(ast.parse(path.read_text())) for path in outside))
    reached |= set(re.findall(r"[A-Za-z_]\w*", _readme_code()))
    definitions = []
    for module, tree in MODULES.items():
        for node in tree.body if module != "__init__.py" else ():
            names = {name for name, _ in _definitions([node])}
            if names:
                definitions.append((names, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached |= _names_used(node)
    while True:
        grown = reached.union(*(_names_used(node) for names, node in definitions
                                if names & reached))
        if grown == reached:
            return reached
        reached = grown


def _attributes_read(tree, skip=None):
    """Attribute names a tree reads, leaving out the subtree `skip`."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _members(tree):
    """(class, member, node) for each annotated field, property and method of a
    class the tree defines at module level; dunders and InitVars left out."""
    out = []
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                out.append((cls.name, node.name, node))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) \
                    and "InitVar" not in ast.unparse(node.annotation):
                out.append((cls.name, node.target.id, node))
    return out


def _asdict_classes(trees):
    """Classes whose fields `dataclasses.asdict` writes: an `asdict(x.name)` call
    names the field `name`, whose annotation names the class."""
    fields = {}
    for tree in trees:
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            fields.update((node.target.id, ast.unparse(node.annotation)) for node in cls.body
                          if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name))
    out = set()
    for tree in trees:
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            func = call.func
            if getattr(func, "attr", getattr(func, "id", None)) == "asdict":
                arg = call.args[0]
                assert isinstance(arg, ast.Attribute) and arg.attr in fields, ast.unparse(call)
                out.add(fields[arg.attr])
    return out


def _test_only_members(trees, outside):
    """`Class.member` for each member of the package trees that neither
    `outside` (names read elsewhere) nor another part of the package reads."""
    written = _asdict_classes(trees.values())
    unused = []
    for tree in trees.values():
        for cls, name, node in _members(tree):
            if cls in written and isinstance(node, ast.AnnAssign):
                continue
            if name in outside or any(name in _attributes_read(other, skip=node)
                                      for other in trees.values()):
                continue
            unused.append(f"{cls}.{name}")
    return unused


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


def _unused_exports(exports, reached):
    return [name for name in exports if name not in reached and name not in EXPORT_EXCEPTIONS]


def test_every_export_has_a_non_test_user():
    # Re-exports are checked under the name they are defined by
    # (`diagonalize_run` as `run`).
    reached = _reached_names()
    exports = [alias.name for node in MODULES["__init__.py"].body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    unused = _unused_exports(exports, reached)
    assert not unused, "exports only tests use: " + ", ".join(unused)
    assert not reached & set(EXPORT_EXCEPTIONS), "a listed exception has a user now"


def test_every_class_member_has_a_non_test_user():
    outside = sorted((REPO / "demos").glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
    reached = set().union(*(_attributes_read(ast.parse(path.read_text())) for path in outside))
    # Only dotted names of the README's code count.
    reached |= set(re.findall(r"\.([A-Za-z_]\w*)", _readme_code()))
    unused = set(_test_only_members(MODULES, reached))
    assert not unused - set(MEMBER_EXCEPTIONS), \
        "class members only tests read: " + ", ".join(sorted(unused - set(MEMBER_EXCEPTIONS)))
    assert set(MEMBER_EXCEPTIONS) <= unused, "a listed exception has a user now"


def test_checks_catch_planted_dead_code():
    tree = ast.parse("import os\nfrom math import pi\n_SPARE = 1\ndef _helper():\n    pass\n")
    assert [name for name, _ in _imported(tree) if name not in _names_read(tree)] \
        == ["os", "pi"]
    assert [name for name, _ in _private_definitions(tree)] == ["_SPARE", "_helper"]
    tree = ast.parse(
        "from dataclasses import InitVar, asdict, dataclass\n"
        "@dataclass\nclass Kept:\n    raw: InitVar\n    read: int\n    spare: float\n"
        "    def used(self):\n        return self.read\n"
        "    def recursive(self):\n        return self.recursive()\n"
        "@dataclass\nclass Dumped:\n    written: int\n"
        "@dataclass\nclass Holder:\n    part: Dumped\n"
        "def dump(holder):\n    return asdict(holder.part), Kept(None, 1, 2.0).used()\n")
    assert _test_only_members({"m.py": tree}, set()) \
        == ["Kept.spare", "Kept.recursive"]
    # An export named like a word of the README's Layout prose is not reached.
    assert "runnable walkthroughs" in (REPO / "README.md").read_text()
    assert _unused_exports(["walkthroughs", "reflect_to_highest_weight"], _reached_names()) \
        == ["walkthroughs"]
