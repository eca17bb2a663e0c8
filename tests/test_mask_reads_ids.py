"""Masking reads the ids a chunk carries and never tokenizes.

Every `Chunk` holds the token ids it was cut or decoded with, so
`masking.py` needs only `Chunk` from `chunking` and three constants of
the tokenizer. This test reads the module, so a second path that
decodes or tokenizes a chunk again fails here.
"""

import ast
from pathlib import Path

import lexprep

MASKING = Path(lexprep.__file__).parent / "masking.py"

TOKENIZING = {
    "tokenize",
    "encode",
    "iter_words",
    "iter_tokens",
    "encoder",
    "chunk_from_record",
}


def _tree() -> ast.Module:
    return ast.parse(MASKING.read_text(encoding="utf-8"))


def _called_name(func: ast.expr) -> str | None:
    """The name a call goes through; a string literal's `encode` is no tokenizer."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and not isinstance(
        func.value, (ast.JoinedStr, ast.Constant)
    ):
        return func.attr
    return None


def test_masking_imports_only_chunk_from_chunking():
    imported = {
        alias.name
        for node in ast.walk(_tree())
        if isinstance(node, ast.ImportFrom) and node.module == "chunking"
        for alias in node.names
    }
    assert imported == {"Chunk"}


def test_masking_never_tokenizes_or_decodes():
    called = {
        _called_name(node.func)
        for node in ast.walk(_tree())
        if isinstance(node, ast.Call)
    }
    assert called & TOKENIZING == set()
