"""Every flag acts: each flag of each command, density family and verify
check is read by the command, or a request that gives it is refused with
exit 2.

The walk takes the flags from the parser itself, so a flag added later is
checked too.  A request is the leaf's smallest valid one with the flag
given, alone and under each mode flag the leaf takes (--game, --no-cache,
--wcnf), since a mode can leave other flags with nothing to act on.  It runs
twice on one cache, so that flags read only on a cache hit (--recheck) are
seen.  The reads are those of the parsed Namespace's attributes while the
command runs.
"""

import argparse
import json

import pytest

from replab import cli
from replab.games import game_to_json, preset_game

# the smallest valid request of each leaf, flag -> value (None: a switch)
BASE = {
    "value": {"--preset": "anticorr"},
    "density line": {"--n": "2"},
    "density square": {"--n": "1"},
    "density corner": {"--n": "1"},
    "density grid": {"--n": "1"},
    "eqn": {"--preset": "unitvec", "--n": "1"},
    "repeat": {"--preset": "anticorr", "--n": "1"},
    "verify dhj": {},
    "verify square": {},
    "verify grid": {},
    "verify val-bound": {"--preset": "anticorr"},
    "verify thm-answer-game": {"--preset": "unitvec"},
    "fuzz-prop34": {"--preset": "anticorr", "--n": "1", "--trials": "2"},
}
# a valid value for each flag that takes one; {tmp} is the test's directory
VALUES = {
    "--game": "{tmp}/game.json", "--preset": "anticorr", "--q": "3", "--p": "2",
    "--r": "1", "--k": "1", "--n": "1", "--method": "search", "--repeat": "2",
    "--budget": "1000000", "--point-budget": "64", "--wcnf": "{tmp}/out.wcnf",
    "--emit-witness": "{tmp}/witness.json", "--cache-dir": "{tmp}/cache",
    "--trials": "2", "--seed": "1",
}


def _leaves(parser, words=()):
    """(words, parser) for each command, density family and verify check."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(words), parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaves(child, words + (name,))


LEAVES = dict(_leaves(cli._parser()))
MODES = ("--game", "--no-cache", "--wcnf")
CASES = [(leaf, mode, action) for leaf, parser in LEAVES.items()
         for mode in [None] + [m for m in MODES if m in parser._option_string_actions]
         for action in parser._actions
         if action.option_strings and action.dest != "help" and action.option_strings[0] != mode]


def test_every_leaf_has_a_request():
    assert sorted(LEAVES) == sorted(BASE)


@pytest.mark.parametrize("leaf,mode,action", CASES, ids=[
    " ".join(filter(None, [leaf, mode, action.option_strings[0]])) for leaf, mode, action in CASES])
def test_every_flag_is_read_or_refused(tmp_path, capsys, monkeypatch, leaf, mode, action):
    (tmp_path / "game.json").write_text(json.dumps(game_to_json(preset_game("anticorr"))))
    monkeypatch.setenv("REPLAB_CACHE", str(tmp_path / "env-cache"))
    request = dict(BASE[leaf])
    for given in filter(None, [LEAVES[leaf]._option_string_actions.get(mode), action]):
        flag = given.option_strings[0]
        if flag == "--game":
            request.pop("--preset")
        request[flag] = None if given.nargs == 0 else VALUES[flag].format(tmp=tmp_path)
    argv = leaf.split() + [word for item in request.items() for word in item if word]

    real, reads = cli._parser(), set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    class Parser:
        def parse_args(self, argv):
            args = real.parse_args(argv, namespace=Recording())
            reads.clear()  # the parse's own reads are not the command's
            return args

    monkeypatch.setattr(cli, "_parser", Parser)
    read, codes = set(), []
    for _ in range(2):  # a miss, then a hit of the record it stored
        codes.append(cli.main(argv))
        read |= reads
    capsys.readouterr()
    assert action.dest in read or codes[0] == 2, f"{argv} exits {codes} and never reads it"
