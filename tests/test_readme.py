"""The Python examples of README.md run as written.

Each ```python block is executed in a fresh namespace; the Library
example must print the classes and indices its closing comment states.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                    README.read_text(encoding="utf-8"), re.M | re.S)


def run_block(source):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    return out.getvalue()


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_example_runs(index):
    run_block(BLOCKS[index])


def test_library_example_prints_its_comment():
    assert run_block(BLOCKS[0]).splitlines() == [
        "(0, 1) 3", "(1, 0) 3", "(1, 1) 2"]
