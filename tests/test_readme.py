"""The README's library quick start runs against the installed package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, str(README), "exec"), {"__name__": "readme_quick_start"})
    out = capsys.readouterr().out
    assert "density error CV:" in out
    assert "estimated ramp flow, last step:" in out


def test_later_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)[1:]
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme_block"})
