"""Cleaning rules: the documented examples and the algebraic properties."""

import sys
import unicodedata

from hypothesis import given
from hypothesis import strategies as st

from lexprep.cleaning import CleanPolicy, _strip_control, clean_text

# Random strings that exercise every rule: letters, horizontal whitespace,
# newlines, control characters, and non-breaking spaces. Adjacent \r and
# \n draws also cover the \r\n case.
_noisy_text = st.text(
    alphabet=st.sampled_from(list("abcñé .\t\n\r\x00\x0b\x1f ")),
    max_size=80,
)


def test_example_collapse_spaces():
    assert clean_text("a  b\t c") == "a b c"


def test_example_empty():
    assert clean_text("") == ""


def test_example_all_rules_together():
    assert clean_text("ley 5\n\n\nart. 2 ") == "ley 5\nart. 2"


def test_newline_runs_collapse_to_one():
    assert clean_text("a\n\nb") == "a\nb"
    assert clean_text("a\n \t\nb") == "a\nb"


def test_carriage_returns_normalize_to_newline():
    assert clean_text("a\r\nb\rc") == "a\nb\nc"


def test_nbsp_is_horizontal_whitespace():
    assert clean_text("a  b") == "a b"


@given(_noisy_text)
def test_idempotent(text):
    once = clean_text(text)
    assert clean_text(once) == once


@given(_noisy_text)
def test_non_whitespace_preserved(text):
    def visible(s):
        return [ch for ch in s if not ch.isspace() and ch.isprintable()]

    assert visible(clean_text(text)) == visible(text)


@given(_noisy_text)
def test_never_longer(text):
    assert len(clean_text(text)) <= len(text)


def test_flags_are_independent():
    raw = " a  b\x00\n\n c "
    assert clean_text(raw) == "a b\n c"
    assert clean_text(raw, CleanPolicy(collapse_spaces=False)) == "a  b\n c"
    assert clean_text(raw, CleanPolicy(collapse_newlines=False)) == "a b\n\n c"
    assert clean_text(raw, CleanPolicy(strip_control=False)) == "a b\x00\n c"
    assert clean_text(raw, CleanPolicy(trim_ends=False)) == " a b\n c "


def test_all_flags_off_is_identity():
    raw = " a  b\x00\n\n c "
    policy = CleanPolicy(
        collapse_spaces=False,
        collapse_newlines=False,
        strip_control=False,
        trim_ends=False,
    )
    assert clean_text(raw, policy) == raw


@given(_noisy_text)
def test_default_output_shape(text):
    cleaned = clean_text(text)
    assert "  " not in cleaned
    assert "\t" not in cleaned
    assert "\n\n" not in cleaned
    assert cleaned == cleaned.strip()


def test_strip_control_matches_category_scan_on_every_code_point():
    def reference(text):
        text = text.replace("\r\n", "\n").replace("\r", "\n")
        return "".join(
            ch for ch in text if ch in "\n\t" or unicodedata.category(ch) != "Cc"
        )

    # Every code point once, in order: the outputs are equal iff the same
    # code points are dropped.
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert _strip_control(everything) == reference(everything)
