"""README.md is executable: its examples run as written.

The ```python blocks run in order, in one namespace, as a reader pasting
them one after another would.  Every ``padelab ...`` line of the "Command
line" block runs through ``cli.main`` in a temporary directory and must
exit 0.
"""

import re
import shlex
from pathlib import Path

import pytest

from padelab import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def command_lines() -> list[str]:
    """The ``padelab`` commands of the "Command line" block, continuations joined."""
    section = README.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    text = re.sub(r"\s*\\\n\s*", " ", block)
    return [line.strip() for line in text.splitlines() if line.strip().startswith("padelab ")]


def test_python_blocks_run_in_order():
    blocks = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


@pytest.mark.parametrize("line", command_lines())
def test_command_line_exits_zero(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line)[1:]) == cli.EXIT_OK, capsys.readouterr().err
