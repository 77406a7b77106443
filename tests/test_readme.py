"""The README's library example, module highlights and scenario field lists match the code."""

import contextlib
import fnmatch
import importlib
import io
import json
import pkgutil
import re
from pathlib import Path

import pytest

import capture_pins
import fps
import fps.errors
from fps.cli import _SCHEMA, _preset, load_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert len(blocks) == 1
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert printed.getvalue().split()[0] == "bell-like"


#: `fps` and its submodules.
MODULES = [fps] + [
    importlib.import_module(f"fps.{info.name}")
    for info in pkgutil.iter_modules(fps.__path__)
    if not info.name.startswith("_")  # importing __main__ would run the CLI
]


def _unknown(names) -> list[str]:
    """The names that are an attribute of neither `fps` nor any submodule."""
    return sorted(name for name in names if not any(hasattr(m, name) for m in MODULES))


def test_readme_highlights_name_existing_attributes():
    """Every backticked bare identifier in the module highlights is a real name."""
    text = README.read_text(encoding="utf-8")
    highlights = text.split("Highlights by module:", 1)[1].split("\n## ", 1)[0]
    names = set(re.findall(r"`([A-Za-z_]\w*)`", highlights))
    assert len(names) > 20
    assert _unknown(names) == []


def test_readme_error_table_names_existing_functions_and_errors():
    """Each row of the error table names real functions and, as its errors,
    only `ValueError` and `fps` exception classes."""
    text = README.read_text(encoding="utf-8")
    table = text.split("| Function | Input | Error |\n| --- | --- | --- |\n", 1)[1]
    rows = table.split("\n\n", 1)[0].splitlines()
    assert len(rows) > 30
    errors = {"ValueError"} | {
        name for name, obj in vars(fps.errors).items()
        if isinstance(obj, type) and issubclass(obj, fps.FpsError)
    }
    for row in rows:
        cells = re.split(r"(?<!\\)\|", row)[1:-1]  # an escaped \| stays in its cell
        assert len(cells) == 3, row
        functions, named = (re.findall(r"`([A-Za-z_]\w*)`", cells[i]) for i in (0, 2))
        assert functions and named, row
        assert _unknown(functions) == [], row
        assert sorted(set(named) - errors) == [], row


def test_readme_highlights_cover_every_module():
    """One highlights bullet per submodule with public names; `fps.errors` has none."""
    text = README.read_text(encoding="utf-8")
    highlights = text.split("Highlights by module:", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- `fps\.(\w+)`", highlights, flags=re.MULTILINE)
    assert len(bullets) == len(set(bullets))
    assert set(bullets) == set(fps._EXPORTS) - {"errors"}


def _scenario_fields(label: str) -> list[str]:
    """Keys the README lists after `label`, up to the end of that sentence.

    A wildcard such as `grid.*` expands to the matching scenario keys;
    a name that matches none is kept, so the coverage check reports it.
    """
    text = README.read_text(encoding="utf-8")
    sentence = re.search(rf"{label}: (.*?)\.\s", text, flags=re.DOTALL).group(1)
    keys = []
    for token in re.findall(r"`([^`]+)`", sentence):
        keys.extend(fnmatch.filter(_SCHEMA, token) or [token])
    return keys


REQUIRED = _scenario_fields("Required fields")
OPTIONAL = _scenario_fields("Optional")


def test_readme_scenario_fields_cover_the_schema():
    assert len(REQUIRED) == len(set(REQUIRED)) == 7
    assert set(REQUIRED).isdisjoint(OPTIONAL)
    assert set(REQUIRED) | set(OPTIONAL) == set(_SCHEMA)


@pytest.mark.parametrize("key", REQUIRED)
def test_readme_required_field_is_required(key):
    flat = {k: v for k, v in _preset("fig2").items() if k != key}
    with pytest.raises(ValueError, match=f"missing required scenario field: {key}"):
        load_scenario(flat)


@pytest.mark.parametrize("key", OPTIONAL)
def test_readme_optional_field_may_be_left_out(key):
    load_scenario({k: v for k, v in _preset("fig2").items() if k != key})


def test_readme_quoted_cli_errors_are_pinned():
    """Every complete `fps: error: ...` or `fps: numerical failure: ...` line
    the README quotes is the stderr of a row of tests/cli_pins.json.  A quote
    ending in `...` is a template and is skipped."""
    text = README.read_text(encoding="utf-8")
    quotes = re.findall(r"`(fps: (?:error|numerical failure): [^`]*)`", text)
    lines = {" ".join(quote.split()) for quote in quotes if not quote.endswith("...")}
    assert len(lines) >= 2
    pins = json.loads(capture_pins.TABLE.read_text(encoding="utf-8"))
    stderr = {row["stderr"] for row in pins["rows"]}
    assert sorted(line for line in lines if line + "\n" not in stderr) == []
