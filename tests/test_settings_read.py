"""Every setting is read: a field of a settings type changes what the code does.

A slot of `CleanPolicy`, `MaskingConfig`, `TrainConfig` or
`PipelineManifest` that nothing reads is a knob that changes nothing, so a
user can only set it wrong. This test reads the code: each slot must be
read somewhere in the package outside an `__init__` (which stores and
checks the fields) and outside `cli.py` (which only turns flags into
settings). A setting that was removed for that reason is refused by name.
"""

import ast
import json
import logging
from pathlib import Path

import pytest

import lexprep
from lexprep.cleaning import CleanPolicy
from lexprep.cli import main
from lexprep.masking import MaskingConfig
from lexprep.pipeline import PipelineManifest
from lexprep.schedule import TrainConfig

PACKAGE = Path(lexprep.__file__).parent
SETTINGS = (CleanPolicy, MaskingConfig, TrainConfig, PipelineManifest)


def _callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _reads(path: Path) -> set[str]:
    """The names read in `path` outside any `__init__`.

    A read is an attribute load (`m.seed`) or the name as a string passed
    to `getattr` or `attrgetter`, as the clean stage reads `clean_policy`.
    An assignment, a docstring or `hasattr` is no read.
    """
    found = set()

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef) and child.name == "__init__":
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                found.add(child.attr)
            elif isinstance(child, ast.Call) and _callee(child.func) in (
                "getattr",
                "attrgetter",
            ):
                for arg in child.args:
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        found.add(arg.value)
            visit(child)

    visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


@pytest.mark.parametrize("kind", SETTINGS, ids=lambda kind: kind.__name__)
def test_every_setting_is_read_outside_init_and_the_cli(kind):
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "cli.py"]
    assert len(sources) > 5
    read = set().union(*map(_reads, sources))
    assert [name for name in kind.__slots__ if name not in read] == []


def test_the_scan_sees_each_kind_of_read(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import operator\n"
        "from operator import attrgetter\n"
        "class A:\n"
        "    def __init__(self, a):\n"
        "        self.a = a\n"
        "        check(self.in_init, getattr(self, 'getattr_in_init'))\n"
        "def b(t):\n    return t.loaded\n"
        "def c(t):\n    t.stored = 1\n"
        "def d(t):\n    return getattr(t, 'by_getattr')\n"
        "e = operator.attrgetter('by_attrgetter')\n"
        "f = attrgetter('bare_attrgetter')\n"
        "def g(t):\n    '''Reads no docstring_name.'''\n"
        "def h(t):\n    return hasattr(t, 'by_hasattr')\n",
        encoding="utf-8",
    )
    assert _reads(source) == {
        "loaded",
        "by_getattr",
        "attrgetter",  # operator.attrgetter is itself an attribute load
        "by_attrgetter",
        "bare_attrgetter",
    }


class TestRemovedSettingsAreRefused:
    """`keep_prob` and the optimizer fields, which nothing read, are unknown names."""

    def test_masking_config_has_no_keep_prob(self):
        with pytest.raises(TypeError, match="keep_prob"):
            MaskingConfig(keep_prob=0.1)

    @pytest.mark.parametrize("name", ["beta1", "beta2", "epsilon", "weight_decay"])
    def test_train_config_has_no_optimizer_fields(self, name):
        with pytest.raises(TypeError, match=name):
            TrainConfig(10, **{name: 0.1})

    def test_keep_prob_flag_is_a_usage_error(self, tmp_path, capsys):
        argv = ["mask", "--keep-prob", "0.1", str(tmp_path / "in"), str(tmp_path / "out")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        captured = capsys.readouterr()
        assert (excinfo.value.code, captured.out) == (1, "")
        assert "unrecognized arguments: --keep-prob" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_keep_prob_manifest_key_is_unknown(self, tmp_path, capsys, caplog):
        record = {
            "input_path": "in.jsonl",
            "output_dir": "out",
            "stages": ["chunk", "mask"],
            "mask": {"keep_prob": 0.1},
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        with caplog.at_level(logging.ERROR, logger="lexprep"):
            assert main(["run", str(path)]) == 2
        assert "unknown mask setting 'keep_prob'" in caplog.text
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "out").exists()


def test_the_keep_share_is_what_mask_and_random_leave():
    # A mask share of 0.9 left 1 - 0.9 - 0.1 = 0 to keep; it was refused
    # while the default keep share of 0.1 had to be overridden too.
    config = MaskingConfig(mask_prob=0.9)
    assert (config.mask_prob, config.random_prob) == (0.9, 0.1)
    assert MaskingConfig(mask_prob=1.0, random_prob=0.0).mask_prob == 1.0
    with pytest.raises(ValueError, match="^mask_prob and random_prob sum to "):
        MaskingConfig(mask_prob=0.95)
