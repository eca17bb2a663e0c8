"""Every result leaves through one write: the `print` in `cli.main`.

Each command returns its result text, and `main` prints it after the
command's files are published, so a closed stdout or a reader that is gone
affects every command alike. Besides it only `cli.entry`, which flushes
stdout before the process exits, touches `sys.stdout`. This test reads the
code: a `print` or a `sys.stdout` anywhere else fails here.
"""

import ast
from pathlib import Path

import lexprep

PACKAGE = Path(lexprep.__file__).parent

STREAMS = {"stdout", "__stdout__"}


def _uses(path: Path) -> tuple[set[str], set[str]]:
    """`FILE: QUALNAME` of each use of the builtin `print`, and of `sys.stdout`.

    A use of `print` is any reference to the name, so `say = print` counts.
    A use of stdout is `sys.stdout` or `sys.__stdout__`, or either imported
    by name from `sys`.
    """
    printers, readers = set(), set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            where = f"{path.name}: {'.'.join(scope) or '<module>'}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
            elif isinstance(child, ast.Name) and child.id == "print":
                printers.add(where)
            elif isinstance(child, ast.Attribute) and child.attr in STREAMS:
                if isinstance(child.value, ast.Name) and child.value.id == "sys":
                    readers.add(where)
            elif isinstance(child, ast.ImportFrom) and child.module == "sys":
                if any(alias.name in STREAMS for alias in child.names):
                    readers.add(where)
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return printers, readers


def test_only_main_prints():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    assert set().union(*(_uses(path)[0] for path in sources)) == {"cli.py: main"}


def test_only_entry_touches_stdout():
    sources = sorted(PACKAGE.glob("*.py"))
    assert set().union(*(_uses(path)[1] for path in sources)) == {"cli.py: entry"}


def test_the_scan_sees_each_way_out(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import sys\n"
        "from sys import stdout\n"
        "def _cmd_a(args):\n    print('done')\n    return ''\n"
        "def _cmd_b(args):\n    sys.stdout.write('done')\n    return ''\n"
        "class C:\n    say = print\n"
        "def d(parser):\n    parser.print_usage(sys.stderr)\n"
        "def e():\n    return sys.__stdout__\n",
        encoding="utf-8",
    )
    printers, readers = _uses(source)
    assert printers == {"sample.py: _cmd_a", "sample.py: C"}
    assert readers == {"sample.py: <module>", "sample.py: _cmd_b", "sample.py: e"}
