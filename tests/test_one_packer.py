"""One packer serves every tokenizer, and `concat_stable` is read in one place.

`chunking.iter_chunks` packs every tokenizer's sentences by their summed
counts; the declaration only decides whether each chunk is tokenized once
more. This test reads the code: a second reader of the declaration, such
as a branch that picks another packer, fails here.
"""

import ast
from pathlib import Path

import lexprep

PACKAGE = Path(lexprep.__file__).parent


def _readers(path: Path) -> set[str]:
    """`FILE: QUALNAME` of each read of `concat_stable`.

    A read is an attribute load (`t.concat_stable`) or the name as a
    string, as `getattr` takes it. A class that declares it assigns a
    name, which is no read.
    """
    found = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                if child.attr == "concat_stable":
                    found.add(f"{path.name}: {'.'.join(scope) or '<module>'}")
            elif isinstance(child, ast.Constant) and child.value == "concat_stable":
                found.add(f"{path.name}: {'.'.join(scope) or '<module>'}")
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_concat_stable_is_read_in_iter_chunks_alone():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    assert set().union(*map(_readers, sources)) == {"chunking.py: iter_chunks"}


def test_the_scan_sees_each_kind_of_read(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "class A:\n    concat_stable = True\n"
        "def b(t):\n    return getattr(t, 'concat_stable', False)\n"
        "def c(t):\n    return t.concat_stable\n"
        "def d(t):\n    t.concat_stable = False\n"
        "def e(t):\n    return hasattr(t, 'concat_stable')\n"
        "def f(t):\n    '''Reads no concat_stable.'''\n",
        encoding="utf-8",
    )
    assert _readers(source) == {"sample.py: b", "sample.py: c", "sample.py: e"}
