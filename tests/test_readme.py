"""The README's library quickstart runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:quickstart", "exec"), {"__name__": "quickstart"})
    printed = capsys.readouterr().out.split("\n")
    assert len([line for line in printed if line]) == 3


def test_layout_names_every_module_of_the_package():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Layout", 1)[1].split("```")[1]
    named = set(re.findall(r"^  (\w+\.py) ", block, re.MULTILINE))
    package = README.parent / "src" / "mesospin"
    modules = {p.name for p in package.glob("*.py") if not p.name.startswith("__")}
    assert named == modules
