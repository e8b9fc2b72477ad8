"""Every python block in README.md runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS,
                         ids=[f"block{k}" for k in range(1, len(BLOCKS) + 1)])
def test_readme_block_prints_expected(block):
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(") and "#" in line]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
