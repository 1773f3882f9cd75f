"""The package exports only what the program uses: every name that
`zonorec/__init__.py` imports is referenced, outside its own definition, by
a `zonorec` module, a demo or a benchmark module."""

import ast
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zonorec"


def _exported_names() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _referenced_names(path: Path) -> set:
    """The identifiers in a file's code, less those a `def` or `class`
    defines; strings and comments are not code."""
    out, prev = set(), None
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NAME and prev not in ("def", "class"):
                out.add(tok.string)
            prev = tok.string if tok.type == tokenize.NAME else None
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
