"""The README's manifest settings table names exactly the keys a manifest takes."""

import re
from pathlib import Path

from lexprep.pipeline import _REQUIRED, _SECTION_KEYS, STAGE_NAMES

README = Path(__file__).parents[1] / "README.md"
HEADER = "| settings | JSON type |"


def _table_names(text: str) -> set[str]:
    """The names in backticks in the first column of the settings table."""
    lines = text.split(f"\n{HEADER}\n", 1)[1].splitlines()
    names = set()
    for line in lines[1:]:  # after the |---|---| rule
        if not line.startswith("|"):
            break
        names.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return names


def test_the_table_lists_every_manifest_key():
    keys = {*_REQUIRED, "seed", *STAGE_NAMES}.union(*_SECTION_KEYS.values())
    assert _table_names(README.read_text(encoding="utf-8")) == keys

