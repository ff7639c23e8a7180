"""README's command line examples, replayed verbatim.

Every ``$ replab ...`` example in the README's "Command line" block is run
in-process through cli.main, on a fresh cache for the commands that cache,
and its stdout must equal the lines printed under it, byte for byte.
"""

import shlex
from pathlib import Path

import pytest

from replab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples() -> list[tuple[list[str], str]]:
    """(argv, expected stdout) for each example of the Command line block."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    examples = []
    for chunk in block.split("\n$ ")[1:]:
        command, *output = chunk.strip("\n").split("\n")
        words = shlex.split(command)
        assert words[0] == "replab"
        examples.append((words[1:], "".join(line + "\n" for line in output)))
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("argv,expected", EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example(argv, expected, tmp_path, capsys):
    if argv[0] in ("value", "density", "eqn"):  # the commands that cache
        argv = argv + ["--cache-dir", str(tmp_path / "cache")]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == expected
