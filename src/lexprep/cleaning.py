"""Whitespace normalization and unwanted-character removal.

The default policy collapses horizontal whitespace runs to one space,
collapses blank-line runs to a single line break, strips control
characters, and trims the ends. Cleaning is total and idempotent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# Horizontal whitespace: any whitespace except the newline. Covers tabs and
# non-breaking spaces, both common PDF-extraction artifacts.
_HSPACE_RUN = re.compile(r"[^\S\n]+")
# A run of two or more newlines, possibly separated by horizontal whitespace.
_NEWLINE_RUN = re.compile(r"\n(?:[^\S\n]*\n)+")
# Unicode category Cc (U+0000-U+001F and U+007F-U+009F) without \t and \n.
_CONTROL = re.compile(r"[\x00-\x08\x0b-\x1f\x7f-\x9f]")


@dataclass(frozen=True)
class CleanPolicy:
    """Independent switches for the four cleaning rules; all on by default."""

    collapse_spaces: bool = True
    collapse_newlines: bool = True
    strip_control: bool = True
    trim_ends: bool = True


def _strip_control(text: str) -> str:
    # \r\n and bare \r count as line breaks and normalize to \n; every other
    # control character is dropped, except \t which is horizontal whitespace
    # and belongs to the space-collapsing rule.
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return _CONTROL.sub("", text)


def clean_text(text: str, policy: CleanPolicy = CleanPolicy()) -> str:
    """Apply the cleaning policy to one text. clean(clean(x)) == clean(x).

    Non-whitespace, non-control characters are never altered or reordered;
    the output is never longer than the input.
    """
    if policy.strip_control:
        text = _strip_control(text)
    if policy.collapse_spaces:
        text = _HSPACE_RUN.sub(" ", text)
    if policy.collapse_newlines:
        text = _NEWLINE_RUN.sub("\n", text)
    if policy.trim_ends:
        text = text.strip()
    return text
