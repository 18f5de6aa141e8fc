"""The documented library surface: the README quick start and ``submoments.__all__``."""

import re
from pathlib import Path

import submoments

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_library_quick_start() -> str:
    section = README.read_text().split("## Quick start (library)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_quick_start_runs(capsys):
    exec(compile(readme_library_quick_start(), str(README), "exec"), {})
    assert "'reversion'" in capsys.readouterr().out


def test_every_exported_name_resolves():
    assert len(set(submoments.__all__)) == len(submoments.__all__)
    assert [name for name in submoments.__all__ if not hasattr(submoments, name)] == []
