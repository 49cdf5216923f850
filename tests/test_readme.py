"""The README's console examples, run through ``cli.main``.

Every ``$ circsep ...`` line in a ``console`` block is one example; the lines
under it, up to the next ``$`` line or the end of the block, are its output
(stdout, then stderr).  A ``...`` line stands for any leading output: the
example's output must end with the lines after it.
"""

import re
import shlex
from pathlib import Path

import pytest

from circsep import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    examples = []
    for block in re.findall(r"^```console\n(.*?)^```$", README.read_text(),
                            re.MULTILINE | re.DOTALL):
        for line in block.splitlines():
            if line.startswith("$ "):
                examples.append((line[2:], []))
            else:
                examples[-1][1].append(line)
    return examples


EXAMPLES = _examples()


def test_readme_has_console_examples():
    assert len(EXAMPLES) == 9
    assert all(command.startswith("circsep ") for command, _ in EXAMPLES)


@pytest.mark.parametrize("command, expected", EXAMPLES,
                         ids=[command for command, _ in EXAMPLES])
def test_readme_console_example(capsys, command, expected):
    cli.main(shlex.split(command)[1:])
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    if expected and expected[0] == "...":
        assert lines[-len(expected[1:]):] == expected[1:]
    else:
        assert lines == expected
