"""The package holds only what the program uses: every name that
`zonorec/__init__.py` imports, and every public function, class and method
that a `zonorec` module defines, is referenced, outside its own definition,
by a `zonorec` module, a demo or a benchmark module.  And no module of the
package, the demos or the tests imports a name it never reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zonorec"


def _exported_names() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _referenced_names(path: Path) -> set:
    """The names a file's code uses: identifiers, attribute names and
    imported names, also those inside f-strings.  A `def` or `class` does
    not use the name it defines; strings and comments are not code."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def _public_definitions() -> list:
    """`module.name` for each public module-level function and class of the
    package, and `module.Class.name` for each public method of its classes."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                out.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out += [f"{path.stem}.{node.name}.{m.name}" for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return out


def _program_files() -> list:
    return ([p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
            + sorted((ROOT / "demos").glob("*.py"))
            + [p for p in (ROOT / "bench").glob("*.py") if p.name != "test_bench.py"])


def test_every_export_is_used_by_the_program():
    used = set().union(*map(_referenced_names, _program_files()))
    exported = _exported_names()
    assert len(exported) > 50
    assert [n for n in exported if n not in used] == []


def test_a_name_only_defined_is_not_a_use(tmp_path):
    src = tmp_path / "m.py"
    src.write_text('def only_defined():\n    return "used_in_a_string"  # used_in_a_comment\n'
                   "class Kept:\n    pass\n\nx = Kept()\n")
    assert _referenced_names(src) & {"only_defined", "used_in_a_string",
                                     "used_in_a_comment", "Kept"} == {"Kept"}


def test_every_public_definition_is_used_by_the_program():
    """Matched by name: a method counts as used when any attribute or
    identifier of the program has its name."""
    used = set().union(*map(_referenced_names, _program_files()))
    defined = _public_definitions()
    assert len(defined) > 100
    assert [d for d in defined if d.rsplit(".", 1)[1] not in used] == []


def test_a_name_in_an_f_string_is_a_use(tmp_path):
    src = tmp_path / "m.py"
    src.write_text('def f(x):\n    return f"{x.only_in_an_f_string()}"\n')
    assert "only_in_an_f_string" in _referenced_names(src)


def _unread_imports(path: Path) -> list:
    """The names a file imports but never reads; `from __future__` imports
    are exempt."""
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    """`zonorec/__init__.py` is exempt: its imports are the package's exports."""
    files = ([p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
             + list((ROOT / "demos").glob("*.py")) + list((ROOT / "tests").glob("*.py")))
    assert len(files) > 20
    unread = {str(p.relative_to(ROOT)): _unread_imports(p) for p in sorted(files)}
    assert {path: names for path, names in unread.items() if names} == {}


def test_an_import_read_nowhere_is_reported(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from __future__ import annotations\n"
                   "import os.path, json as js\nfrom re import sub, fullmatch\n"
                   "def f():\n    import sys\n    return os.sep, sub  # fullmatch, js\n"
                   "doc = 'sys'\n")
    assert _unread_imports(src) == ["js", "fullmatch", "sys"]
