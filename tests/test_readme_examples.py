"""README's command line examples, replayed verbatim, and its code names.

Every ``$ replab ...`` example in the README's "Command line" block is run
in-process through cli.main, on a fresh cache for the commands that cache,
and its stdout must equal the lines printed under it, byte for byte.

Every dotted name in a code span of the README's prose must resolve, so a
renamed or deleted function cannot stay documented: an attribute chain of
replab, one of its modules or one of their public names, of a builtin or
of a standard library module, or a per-layer metric name of BENCHMARK.json
or a prefix of one.  A name with a file suffix names a file of the repo.
"""

import builtins
import importlib
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

import replab
from replab.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


# identifiers joined by dots, not inside a path or a longer dotted word
DOTTED = re.compile(r"(?<![\w./-])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
FILE_SUFFIXES = (".json", ".py", ".md")


def readme_dotted_names() -> list[str]:
    """The dotted names of the README's inline code spans, outside the
    fenced blocks, which the examples above replay."""
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    return sorted({name for span in re.findall(r"`([^`]+)`", prose)
                   for name in DOTTED.findall(span)})


MODULES = [importlib.import_module(f"replab.{path.stem}")
           for path in sorted((ROOT / "src" / "replab").glob("*.py"))
           if not path.stem.startswith("_")]
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def _resolves(name: str) -> bool:
    if name.endswith(FILE_SUFFIXES):
        return any((folder / name).is_file() for folder in (ROOT, ROOT / "scripts"))
    if any(metric == name or metric.startswith(name + ".") for metric in METRICS):
        return True
    head, *chain = name.split(".")
    roots = [getattr(owner, head) for owner in (replab, *MODULES, builtins)
             if hasattr(owner, head)]
    if head == "replab":
        roots.append(replab)
    if head in sys.stdlib_module_names:
        roots.append(importlib.import_module(head))
    for obj in roots:
        for attr in chain:
            obj = getattr(obj, attr, None)
        if obj is not None:
            return True
    return False


README_NAMES = readme_dotted_names()


def test_readme_names_code():
    assert len(README_NAMES) >= 30
    assert [name for name in README_NAMES if not _resolves(name)] == []
