"""Every file a command writes goes through one writer, `corpus.published`.

It writes each file as a temp file and renames it into place once the
command has succeeded, so no cut-short file looks complete. This test reads
the calls: an `open` in a write, append or exclusive mode anywhere else, or
any `write_text`/`write_bytes`, fails here.
"""

import ast
from pathlib import Path

import lexprep

PACKAGE = Path(lexprep.__file__).parent

WRITERS = {"corpus.py: published"}


def _mode(call: ast.Call) -> ast.expr | None:
    """The mode argument of an `open(path, mode)` or `path.open(mode)` call."""
    at = 1 if isinstance(call.func, ast.Name) else 0
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return call.args[at] if len(call.args) > at else None


def _writes(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return True
    opens = isinstance(func, ast.Name) and func.id == "open"
    opens |= isinstance(func, ast.Attribute) and func.attr in ("open", "fdopen")
    if not opens:
        return False
    mode = _mode(call)
    if mode is None:
        return False
    # A mode that is not a literal string might be any mode.
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(flag in mode.value for flag in "wax+")


def _writers(path: Path) -> set[str]:
    """`FILE: QUALNAME` of each function of one file that opens a file to write."""
    found = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
            elif isinstance(child, ast.Call) and _writes(child):
                found.add(f"{path.name}: {'.'.join(scope) or '<module>'}")
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_only_published_opens_a_file_to_write():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    assert set().union(*map(_writers, sources)) == WRITERS


def test_the_scan_sees_each_kind_of_write(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "def a(p):\n    open(p, 'a')\n"
        "def b(p):\n    p.open(mode='x')\n"
        "def c(p, m):\n    open(p, m)\n"
        "def d(p):\n    p.write_bytes(b'')\n"
        "def e(p):\n    open(p, 'rb+')\n"
        "def r(p):\n    open(p)\n    open(p, 'rb')\n    p.open()\n    p.read_text()\n",
        encoding="utf-8",
    )
    assert _writers(source) == {f"sample.py: {name}" for name in "abcde"}
