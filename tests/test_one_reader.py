"""Every JSONL input is parsed by one loop.

`corpus.parse_records` turns lines into records for every reader (documents,
chunk records, language profiles, predictions), so each reports a bad line
as `line N: reason`. Besides it, only the two whole-file readers decode
JSON. This test reads the calls, so a second line loop fails here.
"""

import ast
from pathlib import Path

import lexprep

PACKAGE = Path(lexprep.__file__).parent

DECODERS = {
    "corpus.py: parse_records",
    "pipeline.py: PipelineManifest.from_file",
    "tokenizers.py: VocabTokenizer.from_file",
}


def _is_json_decode(func: ast.expr) -> bool:
    return (
        isinstance(func, ast.Attribute)
        and func.attr in ("load", "loads")
        and isinstance(func.value, ast.Name)
        and func.value.id == "json"
    )


def _decoders(path: Path) -> set[str]:
    """`FILE: QUALNAME` of each function of one file that calls json.load(s)."""
    found = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
            elif isinstance(child, ast.Call) and _is_json_decode(child.func):
                found.add(f"{path.name}: {'.'.join(scope) or '<module>'}")
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def _json_imports(path: Path) -> set[str]:
    """Imports that would hide a decode from `_decoders`: aliases, from-imports."""
    hidden = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            hidden |= {
                f"{path.name}: import json as {alias.asname}"
                for alias in node.names
                if alias.name == "json" and alias.asname
            }
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            hidden.add(f"{path.name}: from json import ...")
    return hidden


def test_only_parse_records_and_the_whole_file_readers_decode_json():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    assert set().union(*map(_decoders, sources)) == DECODERS


def test_json_is_imported_only_by_its_name():
    sources = sorted(PACKAGE.glob("*.py"))
    assert set().union(*map(_json_imports, sources)) == set()
