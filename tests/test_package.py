"""The package's names resolve on first use to the objects of their modules."""

from importlib import import_module
from pathlib import Path

import pytest

import lexprep

from .conftest import make_doc, run_python
from .lang_snippets import CA_SNIPPETS, ES_SNIPPETS


def test_every_exported_name_is_its_modules_object():
    star: dict = {}
    exec("from lexprep import *", star)
    assert set(star) - {"__builtins__"} == set(lexprep.__all__)
    for name in lexprep.__all__:
        module = import_module(f"lexprep.{lexprep._MODULE_OF[name]}")
        assert getattr(lexprep, name) is getattr(module, name)
        assert star[name] is getattr(module, name)


def test_dir_lists_every_exported_name():
    # In a fresh process, where no name has been used yet.
    code = (
        "import lexprep; "
        "print(sorted({*lexprep.__all__, '__version__'} - {*dir(lexprep)}))"
    )
    result = run_python("-c", code)
    assert result.stdout.decode().strip() == "[]", result.stderr.decode()


@pytest.mark.parametrize("name", ["no_such_name", "_MODULE_OF_", "metricss"])
def test_an_unknown_name_is_an_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
        getattr(lexprep, name)
    assert not hasattr(lexprep, name)


def test_the_subcommand_modules_import_as_submodules():
    from lexprep import metrics, schedule

    assert metrics is import_module("lexprep.metrics")
    assert schedule is import_module("lexprep.schedule")


def test_readme_library_use_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    docs = [make_doc("es-0", ES_SNIPPETS[0]), make_doc("ca-0", CA_SNIPPETS[0])]
    names = {"docs": docs}
    exec(code, names)
    assert [doc.id for doc in names["kept"]] == ["es-0"]
    assert [doc.id for doc, _ in names["rejected"]] == ["ca-0"]
    assert names["example"].doc_id == "es-0"
