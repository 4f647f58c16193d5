"""The README's library quickstart runs as written, and its names exist."""

from __future__ import annotations

import ast
import builtins
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


def _backticked_names(pattern: str) -> set[str]:
    """Every match of pattern inside a backtick span of the README prose."""
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    spans = re.findall(r"`([^`\n]+)`", prose)
    return {m.group(0) for span in spans for m in re.finditer(pattern, span)}


def _package_trees() -> list[ast.Module]:
    package = README.parent / "src" / "mesospin"
    return [ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")]


def test_every_camel_case_name_in_backticks_is_a_package_class_or_a_builtin():
    # a class renamed or deleted in the package leaves no stale name behind
    named = _backticked_names(r"\b[A-Z][a-z0-9]+[A-Z]\w*")
    classes = {
        node.name
        for tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    builtin = {name for name in named if isinstance(getattr(builtins, name, None), type)}
    assert "ModelParams" in named
    assert named - classes - builtin == set()


def test_every_constant_name_in_backticks_is_a_module_level_name_of_the_package():
    # a constant renamed or deleted in the package leaves no stale name behind
    named = _backticked_names(r"\b[A-Z]{2,}(_[A-Z0-9]+)+\b")
    module_level = {
        target.id
        for tree in _package_trees()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    assert "SERIES_SITES" in named
    assert named - module_level == set()
