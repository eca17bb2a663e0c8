"""Every line-delimited input is opened in one place, `corpus.read_lines`.

It reads UTF-8 with `newline=""`, so a line ends at "\\n", "\\r\\n" or a lone
"\\r" and keeps the end it was written with, and every reader splits lines
by that one rule. Besides it only the one writer, `corpus.published`, calls
the builtin `open`; the two whole-file readers use `Path.read_text`. This
test reads the code: an `open` anywhere else, or any `io.open`,
`codecs.open` or `Path.open`, fails here.
"""

import ast
from pathlib import Path

import lexprep

PACKAGE = Path(lexprep.__file__).parent

OPENERS = {"corpus.py: read_lines", "corpus.py: published"}


def _uses(path: Path) -> tuple[set[str], set[str]]:
    """`FILE: QUALNAME` of each use of the builtin `open`, and of any other opener.

    A use of `open` is any reference to the name, so `reader = open` counts.
    Another opener is a call of any `X.open` or an `open` imported by name.
    """
    builtin, other = set(), set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            where = f"{path.name}: {'.'.join(scope) or '<module>'}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
            elif isinstance(child, ast.Name) and child.id == "open":
                builtin.add(where)
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                if child.func.attr == "open":
                    other.add(where)
            elif isinstance(child, ast.ImportFrom):
                if any(alias.name == "open" for alias in child.names):
                    other.add(where)
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return builtin, other


def test_only_read_lines_and_published_call_open():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    assert set().union(*(_uses(path)[0] for path in sources)) == OPENERS


def test_no_other_opener_is_called():
    sources = sorted(PACKAGE.glob("*.py"))
    assert set().union(*(_uses(path)[1] for path in sources)) == set()


def test_the_scan_sees_each_kind_of_open(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import codecs, io\n"
        "from io import open\n"
        "def a(p):\n    return open(p)\n"
        "def b(p):\n    return io.open(p)\n"
        "def c(p):\n    return codecs.open(p)\n"
        "def d(p):\n    return p.open()\n"
        "class E:\n    reader = open\n"
        "def f(p):\n    return p.read_text()\n",
        encoding="utf-8",
    )
    builtin, other = _uses(source)
    assert builtin == {"sample.py: a", "sample.py: E"}
    assert other == {"sample.py: <module>", "sample.py: b", "sample.py: c", "sample.py: d"}
