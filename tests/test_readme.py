"""The README's library tour runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

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
