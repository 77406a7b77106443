"""The README's library example and module highlights match the current API."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import fps

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert len(blocks) == 1
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert printed.getvalue().split()[0] == "bell-like"


def test_readme_highlights_name_existing_attributes():
    """Every backticked bare identifier in the module highlights is a real name."""
    text = README.read_text(encoding="utf-8")
    highlights = text.split("Highlights by module:", 1)[1].split("\n## ", 1)[0]
    names = set(re.findall(r"`([A-Za-z_]\w*)`", highlights))
    modules = [fps] + [
        importlib.import_module(f"fps.{info.name}")
        for info in pkgutil.iter_modules(fps.__path__)
        if not info.name.startswith("_")  # importing __main__ would run the CLI
    ]
    assert len(names) > 20
    assert sorted(name for name in names if not any(hasattr(m, name) for m in modules)) == []
