"""The README's library tour runs and prints what its comments say."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import desguard
from desguard.attacks import AttackedModel
from desguard.diagnosis import Analysis

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_block() -> str:
    text = README.read_text()
    section = text.split("## Library tour", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library tour'"
    return match.group(1)


def test_library_tour_prints_its_comments():
    code = tour_block()
    expected = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert expected == ["False", "uncontrollable-unsafe", "('a', 'b#a', 'c')"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected



def name_heads() -> dict:
    """What a README name may start with: a desguard submodule, with or
    without the `desguard.` prefix, or one of the two classes the prose
    tours."""
    modules = {
        info.name: importlib.import_module(f"desguard.{info.name}")
        for info in pkgutil.iter_modules(desguard.__path__)
    }
    return modules | {"Analysis": Analysis, "AttackedModel": AttackedModel}


def resolves(obj, parts: list[str]) -> bool:
    """Whether `parts`, read from `obj`, are attributes, the last one
    possibly a field of a value class."""
    for index, part in enumerate(parts):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif not (index == len(parts) - 1 and part in getattr(obj, "_fields", ())):
            return False
    return True


def test_readme_names_resolve():
    """Every backticked dotted name the README gives for desguard's modules,
    `Analysis` or `AttackedModel` names something, so a rename or a
    deletion cannot leave the prose pointing at nothing."""
    heads = name_heads()
    checked = set()
    for name in set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README.read_text())):
        head, *rest = name.removeprefix("desguard.").split(".")
        if head in heads:
            assert resolves(heads[head], rest), name
            checked.add(name)
    # Premise: the guard reads the names the prose gives.
    assert len(checked) >= 19 and "Analysis.classify" in checked
