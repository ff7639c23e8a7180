"""End-to-end command line checks, driving replab.cli.main directly.

One test goes through ``python3 -m replab`` to cover the module entry
point; everything else calls main() in-process for speed.
"""

import argparse
import ast
import contextlib
import copy
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

import oracles
from replab import cli, forbidden, structures
from replab.cli import main
from replab.games import Game, game_to_json, preset_game, unit_tuples
from replab.search import export_wcnf


def _child_env():
    # A child process may run in another directory, where a relative
    # PYTHONPATH entry such as "src" no longer resolves, so put this
    # checkout's src/ first by its absolute path; the child then imports the
    # tree the other tests import.
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- value --------------------------------------------------------------------


def test_value_report(tmp_path, capsys):
    code, out, err = run(capsys, [
        "value", "--preset", "anticorr", "--q", "3",
        "--cache-dir", str(tmp_path / "cache")])
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "game:          anticorr",
        "params:        q=3, repeat=1",
        "value:         2/3",
        "method:        exact-bb",
        "status:        computed",
    ]


def test_value_second_run_is_cached(tmp_path, capsys):
    argv = ["value", "--preset", "anticorr", "--cache-dir", str(tmp_path / "c")]
    code, out, _ = run(capsys, argv)
    assert code == 0 and "status:        computed" in out
    code, out, _ = run(capsys, argv)
    assert code == 0 and "status:        cached" in out
    assert "value:         2/3" in out


def test_value_json_is_deterministic(capsys):
    argv = ["value", "--preset", "anticorr", "--no-cache", "--json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    doc = json.loads(first)
    assert "timestamp" not in doc
    assert doc["game"] == "anticorr"
    assert doc["value"] == "2/3"
    assert doc["strategy"] is not None


def test_value_recheck_catches_corrupted_record(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["value", "--preset", "anticorr", "--cache-dir", str(cache)]
    assert main(argv) == 0
    capsys.readouterr()
    record_path, = (cache / "records").glob("*.json")
    doc = json.loads(record_path.read_text())
    doc["record"]["value"] = "1/3"
    record_path.write_text(json.dumps(doc))

    # without --recheck the cached record is trusted as-is
    code, out, _ = run(capsys, argv)
    assert code == 0 and "value:         1/3" in out

    code, _, err = run(capsys, argv + ["--recheck"])
    assert code == 1
    assert err.startswith("error: cached record failed recheck")

    # a strategy with no table for some player fails its recheck cleanly
    doc["record"]["strategy"] = {"players": []}
    record_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, argv + ["--recheck"])
    assert code == 1
    assert err.startswith("error: player 0 has no answer")

    # a repeated game's answers must hold one base answer per round: too
    # few, a bare symbol and too many (whose first two rounds are the
    # cached ones) all fail the recheck cleanly
    argv = ["value", "--preset", "anticorr", "--q", "3", "--repeat", "2",
            "--cache-dir", str(tmp_path / "repeat")]
    assert main(argv) == 0
    capsys.readouterr()
    record_path, = (tmp_path / "repeat" / "records").glob("*.json")
    doc = json.loads(record_path.read_text())
    entry = doc["record"]["strategy"]["players"][0][0]
    answer = entry["answer"]
    for bad in (answer[:1], 5, answer + [0]):
        entry["answer"] = bad
        record_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, argv + ["--recheck"])
        assert (code, out) == (1, "")
        assert err.startswith("error: cached record failed recheck")


def test_legacy_timestamp_is_not_served(tmp_path, capsys):
    # records written before timestamps were dropped still carry one
    cache = tmp_path / "cache"
    argv = ["value", "--preset", "anticorr", "--cache-dir", str(cache), "--json"]
    assert main(argv) == 0
    capsys.readouterr()
    record_path, = (cache / "records").glob("*.json")
    doc = json.loads(record_path.read_text())
    assert "timestamp" not in doc["record"]
    doc["record"]["timestamp"] = "2001-01-01T00:00:00+00:00"
    record_path.write_text(json.dumps(doc))

    code, out, _ = run(capsys, argv)
    assert code == 0 and "timestamp" not in json.loads(out)
    _, fresh, _ = run(capsys, ["value", "--preset", "anticorr", "--no-cache", "--json"])
    assert out == fresh


VALUE_ARGV = ["value", "--preset", "anticorr"]
DENSITY_ARGV = ["density", "square", "--n", "1"]
EQN_ARGV = ["eqn", "--preset", "ghz", "--n", "1"]


def _set_field(name, value):
    """Rewrite of a cache file that replaces one field of its record."""
    return lambda doc: json.dumps(dict(doc, record=dict(doc["record"], **{name: value})))


def test_file_at_cache_records_dir_is_named_in_the_error(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "records").touch()
    code, out, err = run(capsys, VALUE_ARGV + ["--cache-dir", str(cache)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {cache / 'records'}: ")


@pytest.mark.parametrize("argv, rewrite, recheck, message", [
    pytest.param(VALUE_ARGV, lambda doc: "{bad", False, "corrupt cache file {path}",
                 id="records/*.json"),
    pytest.param(VALUE_ARGV, lambda doc: json.dumps(dict(doc, record={})), False,
                 "value record lacks field", id="wrong-shape"),
    pytest.param(VALUE_ARGV, lambda doc: json.dumps(dict(doc, record={})), True,
                 "value record lacks field", id="wrong-shape-recheck"),
    pytest.param(VALUE_ARGV, lambda doc: json.dumps(dict(doc, key="other")), False,
                 "corrupt cache file {path}: not a record of", id="other-key"),
    pytest.param(DENSITY_ARGV, _set_field("witness", 5), False,
                 "density record witness is neither null nor a list of lists",
                 id="density-witness-int"),
    pytest.param(DENSITY_ARGV, _set_field("witness", 5), True,
                 "density record witness is neither null nor a list of lists",
                 id="density-witness-int-recheck"),
    pytest.param(EQN_ARGV, _set_field("witness", [5]), True,
                 "density record witness is neither null nor a list of lists",
                 id="eqn-witness-flat-recheck"),
    pytest.param(VALUE_ARGV, _set_field("strategy", 5), False,
                 "strategy document must contain 'players'", id="value-strategy-int"),
    pytest.param(VALUE_ARGV, _set_field("strategy", {"players": 5}), True,
                 "malformed strategy 'players' entry", id="value-strategy-int-recheck"),
    pytest.param(VALUE_ARGV, _set_field("params", 5), False,
                 "value record has an unparsable field", id="value-params-int"),
    pytest.param(DENSITY_ARGV, _set_field("params", 5), False,
                 "density record has an unparsable field", id="density-params-int"),
])
def test_corrupt_cache_file_is_a_clean_error(tmp_path, capsys, argv, rewrite, recheck,
                                             message):
    cache = tmp_path / "cache"
    argv = argv + ["--cache-dir", str(cache)]
    assert main(argv) == 0
    capsys.readouterr()
    path, = cache.glob("records/*.json")
    path.write_text(rewrite(json.loads(path.read_text())))
    code, out, err = run(capsys, argv + ["--recheck"] * recheck)
    assert code == 2 and out == ""
    assert err.startswith("error: " + message.format(path=path))


def test_directory_at_cache_record_path_is_a_clean_error(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = VALUE_ARGV + ["--cache-dir", str(cache)]
    assert main(argv) == 0
    capsys.readouterr()
    path, = cache.glob("records/*.json")
    path.unlink()
    path.mkdir()
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: corrupt cache file {path}")


def test_value_from_game_file(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game_to_json(preset_game("anticorr", q=3))))
    argv = ["value", "--game", str(path), "--cache-dir", str(tmp_path / "c")]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert "game:          file" in out
    assert "value:         2/3" in out
    code, out, _ = run(capsys, argv)
    assert "status:        cached" in out


def test_value_of_an_answer_game_file(tmp_path, capsys):
    # the file names its predicate by the answer-game preset
    support = list(unit_tuples(3))
    rec = forbidden.compute_eq(support, 2)
    game = forbidden.build_answer_game(((0, 1),) * 3, support, 2, rec.witness)
    path = tmp_path / "answer.json"
    path.write_text(json.dumps(game_to_json(game)))
    argv = ["value", "--game", str(path), "--cache-dir", str(tmp_path / "c")]
    code, out, _ = run(capsys, argv)
    assert code == 0 and "value:         2/3" in out
    code, out, _ = run(capsys, argv + ["--recheck"])
    assert code == 0 and "status:        cached" in out


def test_value_game_source_errors(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game_to_json(preset_game("anticorr", q=3))))

    code, _, err = run(capsys, ["value", "--game", str(path),
                                "--preset", "anticorr", "--no-cache"])
    assert code == 2
    assert err == "error: --preset cannot be used with --game, which reads the game from a file\n"

    code, _, err = run(capsys, ["value", "--no-cache"])
    assert code == 2 and "a game is required" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["value", "--game", str(bad), "--no-cache"])
    assert code == 2 and "not JSON" in err

    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    code, _, err = run(capsys, ["value", "--game", str(empty), "--no-cache"])
    assert code == 2

    code, _, err = run(capsys, ["value", "--game", str(tmp_path / "absent.json"),
                                "--no-cache"])
    assert code == 2 and "cannot read" in err


def _two_player_doc(**fields):
    return dict(game_to_json(preset_game("anticorr", q=2)), **fields)


@pytest.mark.parametrize("doc", [
    _two_player_doc(support=5),
    _two_player_doc(question_alphabets=5),
    _two_player_doc(predicate={"type": "table", "accepts": 5}),
    _two_player_doc(predicate={"type": "preset", "name": "answer-game"}),
    _two_player_doc(predicate={"type": "preset", "name": "answer-game", "params": 5}),
    # answers that are not (i, y) pairs over one round
    _two_player_doc(predicate={"type": "preset", "name": "answer-game",
                               "params": {"n": 1, "witness": [[0]]}}),
    # support tuple 2 of 2 does not exist
    _two_player_doc(predicate={"type": "table", "accepts": [[2, 0]]}),
    _two_player_doc(support=[], answer_alphabets=[[[0, [0]]], [[0, [0]]]],
                    predicate={"type": "preset", "name": "answer-game", "params": {"n": 1}}),
    # a preset predicate that game_to_json never writes
    _two_player_doc(predicate={"type": "preset", "name": "allaccept"}),
], ids=["support-int", "question-alphabets-int", "table-accepts-int",
        "answer-game-no-n", "answer-game-params-int", "answer-game-int-answers",
        "table-entry-outside", "answer-game-empty-support", "preset-allaccept"])
def test_malformed_game_file_is_a_clean_error(tmp_path, capsys, doc):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    for argv in (["value", "--no-cache"], ["verify", "val-bound"]):
        code, out, err = run(capsys, argv + ["--game", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["value", "--no-cache"], ["value", "--repeat", "2", "--no-cache"],
    ["verify", "val-bound"], ["fuzz-prop34", "--n", "2"],
], ids=["value", "value-repeat", "val-bound", "fuzz-prop34"])
def test_scalar_answer_alphabet_is_a_schema_error(tmp_path, capsys, argv):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(_two_player_doc(answer_alphabets=[0, [0, 1]])))
    code, out, err = run(capsys, argv + ["--game", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: alphabet 0 is not a sequence of symbols\n"


@pytest.mark.parametrize("argv", [
    ["value", "--no-cache"], ["value", "--repeat", "2", "--no-cache"],
    ["verify", "val-bound"], ["fuzz-prop34", "--n", "2"],
], ids=["value", "value-repeat", "val-bound", "fuzz-prop34"])
@pytest.mark.parametrize("field", ["question_alphabets", "answer_alphabets"])
def test_unhashable_alphabet_symbol_is_a_schema_error(tmp_path, capsys, argv, field):
    # a JSON object is no symbol: refused with the game file, before any
    # codec hashes the alphabet
    path = tmp_path / "game.json"
    path.write_text(json.dumps(_two_player_doc(**{field: [[0, 1, {}], [0, 1]]})))
    code, out, err = run(capsys, argv + ["--game", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: alphabet symbol {} is not hashable\n"


FUZZ_DOCS = [json.loads(json.dumps(game_to_json(preset_game(name, **params))))
             for name, params in (("anticorr", {"q": 3}), ("unitvec", {"q": 3}),
                                  ("ghz", {}), ("grid", {"p": 3, "k": 2}))]
FUZZ_ARGV = [["value", "--no-cache"], ["value", "--repeat", "2", "--no-cache"],
             ["verify", "thm-answer-game"], ["verify", "val-bound"],
             ["fuzz-prop34", "--trials", "4"]]


def _slots(doc, path=()):
    """The path, as keys and indices, of every value inside doc."""
    items = (doc.items() if isinstance(doc, dict) else
             enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _slots(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_game_files(draw):
    """A preset's game file with one to three mutations: a key or entry
    dropped, two values swapped, or a JSON scalar or an empty object where
    a list goes."""
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        kind = draw(st.sampled_from(["drop", "swap", "scalar"]))
        if kind == "scalar":
            slots = [path for path in slots if isinstance(_at(doc, path), list)]
        if not slots:
            continue
        path = draw(st.sampled_from(slots))
        parent, key = _at(doc, path[:-1]), path[-1]
        if kind == "drop":
            del parent[key]
        elif kind == "scalar":
            parent[key] = draw(st.sampled_from([0, 1, -1, 7, 1.5, "0", "1/2", None, True, {}]))
        else:
            # neither value may hold the other
            others = [p for p in slots if path[:len(p)] != p and p[:len(path)] != path]
            if others:
                other = draw(st.sampled_from(others))
                other_parent = _at(doc, other[:-1])
                parent[key], other_parent[other[-1]] = other_parent[other[-1]], parent[key]
    return doc


@settings(max_examples=30, derandomize=True)
@given(mutated_game_files())
def test_mutated_game_files_end_in_an_exit_code(doc):
    # every request ends in a report or a mapped exit code, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "game.json"
        path.write_text(json.dumps(doc))
        for argv in FUZZ_ARGV:
            with (contextlib.redirect_stdout(io.StringIO()),
                  contextlib.redirect_stderr(io.StringIO())):
                code = main(argv + ["--game", str(path)])
            assert code in range(5), argv


def test_oversize_preset_support_is_refused_before_it_is_built():
    # 3**30 support tuples: refused with exit 3 before any is built.  The
    # child caps its own address space, so a preset that builds them anyway
    # fails there rather than taking the host's memory.
    limit = 1 << 30
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from replab.cli import main\n"
            "sys.exit(main(['value', '--preset', 'grid', '--p', '3', '--k', '30', "
            "'--no-cache']))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "error: 3**30 points exceed the budget 4194304\n"


def test_value_budget_exceeded(capsys):
    code, _, err = run(capsys, ["value", "--preset", "anticorr",
                                "--budget", "10", "--no-cache"])
    assert code == 3 and err.startswith("error:")


def test_value_repeat_over_budget_exits_3(capsys):
    refused = (3, "", "error: strategy space exceeds budget 100000000; "
                      "raise the budget to force the search\n")
    assert run(capsys, ["value", "--preset", "anticorr", "--q", "3",
                        "--repeat", "3", "--no-cache"]) == refused


def test_value_table_work_over_budget_exits_3(capsys):
    argv = ["value", "--preset", "grid", "--p", "3", "--k", "2", "--no-cache"]
    code, out, _ = run(capsys, argv + ["--budget", "9"])
    assert code == 0 and "value:         0/1" in out
    code, out, err = run(capsys, argv + ["--budget", "8"])
    assert code == 3 and out == ""
    assert err.startswith("error: 9 support tuples x 1 answer combinations")


def test_value_budget_is_checked_before_the_cache(tmp_path, capsys):
    # the cache key omits the budget: a record stored under the default
    # budget is not served to a request whose budget refuses the search
    argv = ["value", "--preset", "anticorr", "--q", "3", "--cache-dir", str(tmp_path)]
    refused = (3, "", "error: strategy space exceeds budget 10; "
                      "raise the budget to force the search\n")
    assert run(capsys, argv + ["--budget", "10"]) == refused
    code, out, _ = run(capsys, argv)
    assert code == 0 and "status:        computed" in out
    assert run(capsys, argv + ["--budget", "10"]) == refused
    code, out, _ = run(capsys, argv)
    assert code == 0 and "status:        cached" in out


def test_value_searches_more_cells_than_python_can_recurse(tmp_path, capsys):
    # one player, 2000 questions, one answer: a strategy space of size 1,
    # but a search 2000 cells deep, past the default recursion limit of 1000
    questions = list(range(2000))
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "k": 1, "question_alphabets": [questions], "answer_alphabets": [[0]],
        "support": [{"x": [q], "weight": "1/2000"} for q in questions],
        "predicate": {"type": "table", "accepts": [[q, 0] for q in questions]},
    }))
    code, out, _ = run(capsys, ["value", "--game", str(path), "--no-cache"])
    assert code == 0 and "value:         1/1" in out


def _no_player_game(tmp_path):
    """A game file of no players: one empty support tuple, accepted."""
    path = tmp_path / "none.json"
    path.write_text(json.dumps({
        "k": 0, "question_alphabets": [], "answer_alphabets": [],
        "support": [{"x": [], "weight": "1"}],
        "predicate": {"type": "table", "accepts": [[0, 0]]},
    }))
    return path


def test_a_game_of_no_players_is_not_repeated(tmp_path, capsys):
    path = _no_player_game(tmp_path)
    code, out, _ = run(capsys, ["value", "--game", str(path), "--no-cache"])
    assert code == 0 and "value:         1/1" in out
    code, out, err = run(capsys, ["value", "--game", str(path), "--repeat", "2", "--no-cache"])
    assert (code, out, err) == (2, "", "error: a game of no players cannot be repeated\n")


def test_a_game_of_no_players_has_no_answer_game(tmp_path, capsys):
    path = _no_player_game(tmp_path)
    code, out, err = run(capsys, ["verify", "thm-answer-game", "--game", str(path)])
    assert (code, out, err) == (2, "", "error: an answer game needs at least one player\n")
    # nor does a game file that names the answer-game predicate
    doc = json.loads(path.read_text())
    doc["predicate"] = {"type": "preset", "name": "answer-game",
                        "params": {"n": 1, "witness": [[0]]}}
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["value", "--game", str(path), "--no-cache"])
    assert (code, out) == (2, "")
    assert err == "error: malformed game document: an answer game needs at least one player\n"


# -- density ------------------------------------------------------------------


def test_density_line_search(capsys):
    code, out, _ = run(capsys, ["density", "line", "--q", "2", "--n", "3",
                                "--no-cache"])
    assert code == 0
    assert "family:        line" in out
    assert "value:         3/8" in out
    assert "witness size:  3 of 8" in out
    assert "method:        exact-bb" in out


def test_density_line_closed_form(capsys):
    code, out, _ = run(capsys, ["density", "line", "--q", "2", "--n", "5",
                                "--method", "closed-form", "--no-cache"])
    assert code == 0
    assert "value:         5/16" in out
    assert "method:        closed-form" in out


def test_density_line_method_is_part_of_the_cache_key(tmp_path, capsys):
    argv = ["density", "line", "--q", "2", "--n", "5", "--cache-dir", str(tmp_path)]
    code, out, _ = run(capsys, argv + ["--method", "closed-form"])
    assert code == 0 and "method:        closed-form" in out
    code, out, _ = run(capsys, argv + ["--method", "search"])
    assert code == 0
    assert "method:        exact-bb" in out and "status:        computed" in out
    _, fresh, _ = run(capsys, ["density", "line", "--q", "2", "--n", "5",
                               "--method", "search", "--no-cache"])
    assert fresh == out
    code, out, _ = run(capsys, argv + ["--method", "closed-form"])
    assert "method:        closed-form" in out and "status:        cached" in out


def test_density_square_and_corner(capsys):
    code, out, _ = run(capsys, ["density", "square", "--n", "1", "--no-cache"])
    assert code == 0 and "value:         3/4" in out
    code, out, _ = run(capsys, ["density", "corner", "--n", "1", "--no-cache"])
    assert code == 0 and "value:         1/2" in out


def test_density_square_n_zero_names_only_n(capsys):
    code, out, err = run(capsys, ["density", "square", "--n", "0", "--no-cache"])
    assert (code, out, err) == (2, "", "error: need n >= 1\n")


def test_density_grid(capsys):
    code, out, _ = run(capsys, ["density", "grid", "--p", "3", "--k", "2",
                                "--n", "1", "--no-cache"])
    assert code == 0
    assert "value:         8/9" in out
    assert "witness size:  8 of 9" in out


def test_density_recheck_passes_on_good_records(tmp_path, capsys):
    # witness-carrying record: recheck re-verifies freeness of the witness
    argv = ["density", "line", "--q", "2", "--n", "3",
            "--cache-dir", str(tmp_path / "c")]
    assert main(argv) == 0
    code, out, _ = run(capsys, argv + ["--recheck"])
    assert code == 0 and "status:        cached" in out

    # witness-free record (large closed form): recheck recomputes the value
    argv = ["density", "line", "--q", "2", "--n", "13",
            "--method", "closed-form", "--cache-dir", str(tmp_path / "c")]
    assert main(argv) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, argv + ["--recheck"])
    assert code == 0 and "status:        cached" in out


@pytest.mark.parametrize("argv", [
    "square --n 2", "corner --n 2", "grid --p 3 --k 1 --n 2", "grid --p 2 --r 2 --k 2 --n 1",
])
def test_density_recheck_passes_on_vector_families(tmp_path, capsys, argv):
    # the cached witness points are lists of lists, read back as tuples of tuples
    argv = ["density"] + argv.split() + ["--cache-dir", str(tmp_path / "c")]
    assert main(argv) == 0
    capsys.readouterr()
    path, = (tmp_path / "c").glob("records/*.json")
    witness = json.loads(path.read_text())["record"]["witness"]
    assert witness and all(isinstance(v, list) for p in witness for v in p)
    code, out, _ = run(capsys, argv + ["--recheck"])
    assert code == 0 and "status:        cached" in out


def test_density_recheck_fails_on_a_foreign_witness_point(tmp_path, capsys):
    argv = ["density", "square", "--n", "1", "--cache-dir", str(tmp_path / "c")]
    assert main(argv) == 0
    capsys.readouterr()
    path, = (tmp_path / "c").glob("records/*.json")
    doc = json.loads(path.read_text())
    doc["record"]["witness"] = [[{}]]
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, argv + ["--recheck"])
    assert code == 1
    assert err.startswith("error: cached record failed recheck")


REPEATED_POINT = {"witness": [[0], [0], [1]], "witness_size": 3, "value": "3/3"}


@pytest.mark.parametrize("argv, rewrite", [
    pytest.param(["density", "line", "--q", "3", "--n", "1"], REPEATED_POINT,
                 id="density-repeated-point"),
    pytest.param(["eqn", "--preset", "unitvec", "--q", "3", "--n", "1"], REPEATED_POINT,
                 id="eqn-repeated-point"),
    pytest.param(["eqn", "--preset", "unitvec", "--q", "3", "--n", "1"],
                 {"witness": [[0], [3]]}, id="eqn-foreign-point"),
    pytest.param(["eqn", "--preset", "unitvec", "--q", "3", "--n", "1"],
                 {"witness": [[0], [0, 1]]}, id="eqn-short-point"),
    pytest.param(["eqn", "--preset", "unitvec", "--q", "3", "--n", "1"],
                 {"witness": [[0], [1], [2]], "witness_size": 3, "value": "3/3"},
                 id="eqn-holds-a-configuration"),
    pytest.param(["eqn", "--preset", "unitvec", "--q", "3", "--n", "1"],
                 {"universe_size": 4}, id="eqn-universe-size"),
])
def test_recheck_fails_on_a_bad_witness(tmp_path, capsys, argv, rewrite):
    argv = argv + ["--cache-dir", str(tmp_path / "c")]
    assert main(argv) == 0
    capsys.readouterr()
    path, = (tmp_path / "c").glob("records/*.json")
    doc = json.loads(path.read_text())
    doc["record"].update(rewrite)
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, argv + ["--recheck"])
    assert code == 1 and out == ""
    assert err.startswith("error: cached record failed recheck")


def test_density_wcnf_export(tmp_path, capsys):
    out_path = tmp_path / "line.wcnf"
    code, out, _ = run(capsys, ["density", "line", "--q", "2", "--n", "3",
                                "--wcnf", str(out_path)])
    assert code == 0
    hyper = structures.lines(2, 3).to_hypergraph()
    assert out_path.read_text() == export_wcnf(hyper)
    assert out.strip() == (f"wrote WCNF: 8 points, {len(hyper.edges)} "
                           f"hard clauses -> {out_path}")


# -- eqn ----------------------------------------------------------------------


def test_eqn_unitvec(capsys):
    code, out, _ = run(capsys, ["eqn", "--preset", "unitvec", "--q", "3",
                                "--n", "2", "--no-cache"])
    assert code == 0
    assert "family:        forbidden-free" in out
    assert "value:         2/3" in out
    assert "witness size:  6 of 9" in out


def test_eqn_grid(capsys):
    code, out, _ = run(capsys, ["eqn", "--preset", "grid", "--p", "3",
                                "--k", "2", "--n", "1", "--no-cache"])
    assert code == 0
    assert "value:         8/9" in out
    assert "witness size:  8 of 9" in out


def test_eqn_emit_witness(tmp_path, capsys):
    payload_path = tmp_path / "witness.json"
    code, _, _ = run(capsys, ["eqn", "--preset", "unitvec", "--q", "3",
                              "--n", "2", "--no-cache",
                              "--emit-witness", str(payload_path)])
    assert code == 0
    eq = forbidden.compute_eq(list(unit_tuples(3)), 2)
    assert json.loads(payload_path.read_text()) == {
        "support": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "n": 2,
        "witness": sorted([list(w) for w in eq.witness]),
        "value": "2/3",
    }


def test_eqn_wcnf_matches_brute_force(tmp_path, capsys):
    out_path = tmp_path / "eq.wcnf"
    code, out, _ = run(capsys, ["eqn", "--preset", "unitvec", "--q", "3",
                                "--n", "2", "--wcnf", str(out_path)])
    assert code == 0 and "wrote WCNF: 9 points" in out
    header, clauses = oracles.parse_wcnf(out_path.read_text())
    assert header == (9, 16, 10)
    # minimum unsatisfied soft clauses = points outside a maximum free set
    assert oracles.wcnf_optimum(header, clauses) == 9 - 6


def test_eqn_wcnf_exports_past_the_solver_budget(tmp_path, capsys):
    # the export is for instances the solver refuses: unitvec(3) at n = 5
    # has 243 points, past the solver's 128, and its configurations are the
    # combinatorial lines of [3]^5
    eqn, line = tmp_path / "eqn.wcnf", tmp_path / "line.wcnf"
    code, out, _ = run(capsys, ["eqn", "--preset", "unitvec", "--q", "3", "--n", "5",
                                "--wcnf", str(eqn)])
    assert (code, out) == (0, f"wrote WCNF: 243 points, 781 hard clauses -> {eqn}\n")
    code, _, _ = run(capsys, ["density", "line", "--q", "3", "--n", "5", "--wcnf", str(line)])
    assert code == 0
    (header, eqn_clauses), (line_header, line_clauses) = (
        oracles.parse_wcnf(path.read_text()) for path in (eqn, line))
    assert header == line_header == (243, 243 + 781, 244)
    assert sorted(eqn_clauses) == sorted(line_clauses)


@pytest.mark.parametrize("request_", [
    "density square --n 2",
    "eqn --preset unitvec --q 3 --n 2",
], ids=["density", "eqn"])
def test_wcnf_summary_text_and_json(tmp_path, capsys, request_):
    out_path = tmp_path / "out.wcnf"
    argv = request_.split() + ["--wcnf", str(out_path)]
    code, text, _ = run(capsys, argv)
    assert code == 0
    wcnf = out_path.read_text()
    (points, nclauses, _), _ = oracles.parse_wcnf(wcnf)
    hard = nclauses - points  # one soft unit clause per point
    assert text == f"wrote WCNF: {points} points, {hard} hard clauses -> {out_path}\n"
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 0 and out_path.read_text() == wcnf
    assert json.loads(out) == {"hard_clauses": hard, "points": points,
                               "wcnf": str(out_path)}


WCNF_CACHE_FLAGS = ["--recheck", "--no-cache", "--cache-dir {tmp}/cache"]


@pytest.mark.parametrize("request_,flag", [
    *[("density square --n 1", flag) for flag in WCNF_CACHE_FLAGS],
    *[("eqn --preset unitvec --q 3 --n 2", flag)
      for flag in WCNF_CACHE_FLAGS + ["--emit-witness {tmp}/w.json", "--point-budget 300"]],
    ("density line --q 3 --n 2", "--method search"),
], ids=["density-recheck", "density-no-cache", "density-cache-dir",
        "eqn-recheck", "eqn-no-cache", "eqn-cache-dir", "eqn-emit-witness",
        "eqn-point-budget", "line-method"])
def test_wcnf_refuses_the_flags_it_would_ignore(tmp_path, capsys, request_, flag):
    # nothing is written: not the WCNF file, the witness or a cache
    argv = request_.split() + ["--wcnf", str(tmp_path / "out.wcnf")]
    argv += flag.format(tmp=tmp_path).split()
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: {flag.split()[0]} cannot be used with --wcnf, " \
                  "which only writes the instance\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    ("value --preset anticorr --no-cache --recheck",
     "--recheck cannot be used with --no-cache, which skips the cache"),
    ("density square --n 1 --no-cache --cache-dir {tmp}/cache",
     "--cache-dir cannot be used with --no-cache, which skips the cache"),
    ("value --game {tmp}/game.json --q 3",
     "--q cannot be used with --game, which reads the game from a file"),
    ("fuzz-prop34 --game {tmp}/game.json --k 2",
     "--k cannot be used with --game, which reads the game from a file"),
    ("value --preset ghz --q 3", "preset ghz does not take q; it takes no parameters"),
    ("eqn --preset unitvec --k 2 --n 1", "preset unitvec does not take k; it takes q"),
    ("verify val-bound --preset anticorr --r 1", "preset anticorr does not take r; it takes q"),
], ids=["no-cache-recheck", "no-cache-cache-dir", "game-q", "game-k", "ghz-q",
        "unitvec-k", "anticorr-r"])
def test_flags_left_idle_are_refused(tmp_path, capsys, monkeypatch, argv, message):
    # refused before anything runs: no cache is made, not even the default one
    monkeypatch.setenv("REPLAB_CACHE", str(tmp_path / "env-cache"))
    (tmp_path / "game.json").write_text(json.dumps(game_to_json(preset_game("anticorr"))))
    code, out, err = run(capsys, argv.format(tmp=tmp_path).split())
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["game.json"]


def test_eqn_record_files_are_deterministic(tmp_path, capsys):
    files = []
    for name in ("a", "b"):
        cache = tmp_path / name
        assert main(["eqn", "--preset", "unitvec", "--q", "3", "--n", "2",
                     "--cache-dir", str(cache)]) == 0
        files.append({p.relative_to(cache): p.read_bytes()
                      for p in cache.rglob("*") if p.is_file()})
    capsys.readouterr()
    assert len(files[0]) == 1
    assert files[0] == files[1]
    assert not any(b"timestamp" in data for data in files[0].values())


def test_eqn_point_budget(capsys):
    code, _, err = run(capsys, ["eqn", "--preset", "unitvec", "--q", "3",
                                "--n", "5", "--no-cache"])
    assert code == 3 and err.startswith("error:")


def test_eqn_point_budget_reaches_the_solver(capsys):
    argv = ["eqn", "--preset", "unitvec", "--q", "13", "--n", "2", "--no-cache"]
    code, out, _ = run(capsys, argv + ["--point-budget", "200"])
    assert code == 0 and "value:         12/13" in out
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert err == ("error: 169 points exceed the solver budget 128; "
                   "use export_wcnf and an external MaxSAT solver\n")


def test_eqn_refuses_a_cached_record_over_the_budget(tmp_path, capsys):
    argv = ["eqn", "--preset", "unitvec", "--q", "13", "--n", "2",
            "--cache-dir", str(tmp_path / "c")]
    code, out, _ = run(capsys, argv + ["--point-budget", "200"])
    assert code == 0 and "status:        computed" in out
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert err == ("error: 169 points exceed the solver budget 128; "
                   "use export_wcnf and an external MaxSAT solver\n")
    code, out, _ = run(capsys, argv + ["--point-budget", "200"])
    assert code == 0 and "status:        cached" in out


def test_eqn_runs_past_the_recursion_limit(capsys):
    # the configuration search takes one DFS level per round: 1,000 rounds
    # of a one-symbol support used to end in a RecursionError traceback
    code, out, err = run(capsys, ["eqn", "--preset", "unitvec", "--q", "1", "--n", "1000",
                                  "--no-cache"])
    assert (code, err) == (0, "")
    assert "value:         0/1" in out and "witness:       []" in out


def test_density_refusal_names_the_solver_budget(capsys):
    code, out, err = run(capsys, ["density", "square", "--n", "4", "--no-cache"])
    assert (code, out) == (3, "")
    assert err == ("error: 256 points exceed the solver budget 128; "
                   "use export_wcnf and an external MaxSAT solver\n")
    # one point is within the solver budget, however many coordinates
    code, out, _ = run(capsys, ["density", "line", "--q", "1", "--n", "200", "--no-cache"])
    assert code == 0 and "value:         0/1" in out


def _value_or_refusal(capsys, argv):
    """Exit code, reported value (or stdout when refused) and stderr."""
    code, out, err = run(capsys, argv + ["--no-cache", "--json"])
    return code, json.loads(out)["value"] if code == 0 else out, err


@pytest.mark.parametrize("eqn,density,ns", [
    (["--preset", "unitvec", "--q", "1"], ["line", "--q", "1"], (129, 4097)),
    (["--preset", "unitvec", "--q", "3"], ["line", "--q", "3"], (4, 5, 8)),
    (["--preset", "unitvec", "--q", "4"], ["line", "--q", "4"], (3, 4, 7)),
    (["--preset", "ghz"], ["square"], (2, 4, 7)),
    (["--preset", "grid", "--p", "3", "--k", "2"], ["grid", "--p", "3", "--k", "2"], (2, 3, 4)),
], ids=["unitvec1-line", "unitvec3-line", "unitvec4-line", "ghz-square", "grid3-grid3"])
def test_eqn_and_density_treat_one_instance_alike(capsys, eqn, density, ns):
    # E_Q(n) of these supports is the family's density (verify dhj, square,
    # grid): within the solver budget, past it and past the enumeration
    # budget, both commands give the same value or the same refusal
    seen = []
    for n in ns:
        (code, value, err), other = (_value_or_refusal(capsys, [command, *argv, "--n", str(n)])
                                     for command, argv in (("eqn", eqn), ("density", density)))
        assert (code, value) == other[:2]
        # a vector family counts k*n coordinates, so past the enumeration
        # budget it writes the same point count in another base
        if density[0] == "line" or code == 0 or "solver" in err:
            assert err == other[2]
        seen.append("solved" if code == 0 else "solver" if "solver" in err else "built")
    assert seen[0] == "solved" and seen[-1] == "built" and set(seen[1:-1]) <= {"solver"}


def test_eqn_with_a_large_support_group_finishes():
    # unit_tuples(13) has 13! relabellings: deriving and closing the group
    # must stay bounded, not list it
    argv = ["eqn", "--preset", "unitvec", "--q", "13", "--n", "2",
            "--point-budget", "200", "--no-cache"]
    proc = subprocess.run([sys.executable, "-m", "replab", *argv], capture_output=True,
                          text=True, env=_child_env(), timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert "value:         12/13" in proc.stdout


def test_eqn_recheck_passes_on_a_good_record(tmp_path, capsys):
    argv = ["eqn", "--preset", "ghz", "--n", "2", "--cache-dir", str(tmp_path / "c")]
    assert main(argv) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, argv + ["--recheck"])
    assert code == 0 and "status:        cached" in out


@pytest.mark.parametrize("argv", [
    ["repeat", "--preset", "anticorr"],
    ["eqn", "--preset", "unitvec", "--no-cache"],
    ["eqn", "--preset", "unitvec", "--wcnf", "out.wcnf"],
    ["density", "line", "--q", "3", "--no-cache"],
    ["density", "line", "--q", "2", "--no-cache"],
    ["density", "square", "--no-cache"],
    ["density", "grid", "--no-cache"],
    # one symbol: q**n is 1, so only the coordinate count can trip the budget
    ["density", "line", "--q", "1", "--no-cache"],
    ["eqn", "--preset", "unitvec", "--q", "1", "--wcnf", "out.wcnf"],
    ["eqn", "--preset", "unitvec", "--q", "1", "--no-cache"],
], ids=["repeat", "eqn", "eqn-wcnf", "line", "line-closed-form", "square", "grid",
        "line-q1", "eqn-wcnf-q1", "eqn-q1"])
def test_huge_round_counts_exit_3_at_once(argv, tmp_path):
    # the budget checks must not build q**n first: at n = 10**9 that alone
    # takes longer than any timeout here
    proc = subprocess.run(
        [sys.executable, "-m", "replab", *argv, "--n", "1000000000"],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(), timeout=10)
    assert proc.returncode == 3 and proc.stderr.startswith("error:")
    assert not (tmp_path / "out.wcnf").exists()


def test_one_symbol_lines_do_not_walk_the_templates(tmp_path):
    # 2**64 templates over {0, *} all name the one point, which is itself a
    # line, so only the empty set is line-free
    proc = subprocess.run(
        [sys.executable, "-m", "replab", "density", "line", "--q", "1", "--n", "64",
         "--no-cache"],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(), timeout=10)
    assert proc.returncode == 0 and "value:         0/1" in proc.stdout


def test_closed_form_line_density_stops_at_the_int_string_limit(capsys):
    # 2**14000 has 4,215 digits, 2**20000 has 6,021; the default limit is 4,300
    code, out, _ = run(capsys, ["density", "line", "--q", "2", "--n", "14000",
                                "--no-cache"])
    assert code == 0 and "closed-form" in out
    code, _, err = run(capsys, ["density", "line", "--q", "2", "--n", "20000",
                                "--no-cache"])
    assert code == 3 and err.startswith("error:")


# -- repeat ---------------------------------------------------------------------


def test_repeat_summary(capsys):
    code, out, _ = run(capsys, ["repeat", "--preset", "anticorr", "--q", "3",
                                "--n", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "game:              anticorr {'q': 3}"
    assert "players:           3" in lines
    assert "rounds:            2" in lines
    assert "support:           3 -> 9" in lines
    assert "question tuples:   [4, 4, 4]" in lines
    assert "answer tuples:     [4, 4, 4]" in lines


def test_repeat_solve(capsys):
    # repeat only summarises; value --repeat solves the repeated game
    code, out, _ = run(capsys, ["value", "--preset", "unitvec", "--q", "3",
                                "--repeat", "2", "--no-cache"])
    assert code == 0
    assert "value:         0/1" in out
    with pytest.raises(SystemExit) as exc:
        main(["repeat", "--preset", "unitvec", "--n", "2", "--solve"])
    assert exc.value.code == 2


def test_repeat_json(capsys):
    code, out, _ = run(capsys, ["repeat", "--preset", "anticorr", "--q", "3",
                                "--n", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["support"] == 9
    assert payload["base_support"] == 3
    assert payload["question_alphabets"] == [4, 4, 4]


# -- verify ---------------------------------------------------------------------


def test_verify_dhj_range(capsys):
    code, out, _ = run(capsys, ["verify", "dhj", "--q", "3", "--n", "1..2"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("PASS dhj") for line in lines)


@pytest.mark.parametrize("q, message", [
    # with two symbols every pair of distinct points is a forbidden
    # configuration, so E_Q(2) = 1/4 while r_line(2, 2) = 1/2
    ("2", "verify dhj needs q = 1 or q >= 3"),
    ("0", "the support must be non-empty"),
])
def test_verify_dhj_refuses_bad_q(capsys, q, message):
    code, out, err = run(capsys, ["verify", "dhj", "--q", q, "--n", "1..3"])
    assert code == 2 and out == ""
    assert err.startswith("error: " + message)


@pytest.mark.parametrize("span, message", [
    ("x", "--n must be N or LO..HI, got 'x'"),
    ("1..", "--n must be N or LO..HI, got '1..'"),
    ("..2", "--n must be N or LO..HI, got '..2'"),
    ("1..2..3", "--n must be N or LO..HI, got '1..2..3'"),
    ("3..2", "empty range '3..2'"),
], ids=["word", "no-high", "no-low", "three-parts", "empty"])
def test_verify_bad_round_range_names_the_flag(capsys, span, message):
    code, out, err = run(capsys, ["verify", "dhj", "--n", span])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_verify_dhj_one_symbol(capsys):
    code, out, _ = run(capsys, ["verify", "dhj", "--q", "1", "--n", "1..2"])
    assert code == 0 and out.startswith("PASS dhj q=1 n=1: density 0/1 vs line bound 0/1")


def test_verify_square_range(capsys):
    code, out, _ = run(capsys, ["verify", "square", "--n", "1..2"])
    assert code == 0
    assert all(line.startswith("PASS square") for line in out.splitlines())


def test_verify_grid(capsys):
    code, out, _ = run(capsys, ["verify", "grid", "--p", "3", "--k", "2",
                                "--n", "1"])
    assert code == 0
    assert "8/9" in out and out.startswith("PASS grid")


def test_verify_val_bound(capsys):
    code, out, _ = run(capsys, ["verify", "val-bound", "--preset", "anticorr",
                                "--q", "3", "--n", "1"])
    assert code == 0
    assert out.startswith("PASS val-bound anticorr n=1")


def test_verify_val_bound_refuses_perfect_base_game(capsys):
    # val(G^n) <= E_Q(n) needs a base value below 1: anticorr(2) has value 1
    code, out, err = run(capsys, ["verify", "val-bound", "--preset", "anticorr",
                                  "--q", "2", "--n", "1..2"])
    assert code == 4 and out == ""
    assert err == "error: val-bound needs a base game of value below 1; anticorr has value 1/1\n"


def test_verify_val_bound_rejects_nonuniform_weights(tmp_path, capsys):
    game = Game(
        question_alphabets=((0, 1), (0, 1)),
        answer_alphabets=((0, 1), (0, 1)),
        support=((0, 0), (1, 1)),
        weights=(Fraction(1, 3), Fraction(2, 3)),
        predicate=lambda x, a: a[0] == a[1],
    )
    path = tmp_path / "lopsided.json"
    path.write_text(json.dumps(game_to_json(game)))
    code, _, err = run(capsys, ["verify", "val-bound", "--game", str(path),
                                "--n", "1"])
    assert code == 2 and "uniformly weighted" in err


def test_verify_thm_answer_game_full_search(capsys):
    code, out, _ = run(capsys, ["verify", "thm-answer-game", "--preset",
                                "unitvec", "--q", "3", "--n", "1"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("PASS") for line in lines)
    assert "full search value 2/3" in out


def test_verify_thm_answer_game_budget_skip(capsys):
    code, out, _ = run(capsys, ["verify", "thm-answer-game", "--preset", "ghz",
                                "--n", "2"])
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())
    assert "full search skipped (budget)" in out


def test_verify_thm_answer_game_full_search_at_two_rounds(capsys):
    # with the strategy-space gate lifted, the repeated search proves the
    # density at n = 2
    code, out, _ = run(capsys, ["verify", "thm-answer-game", "--preset", "ghz",
                                "--n", "2", "--budget", str(10**30)])
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())
    assert "thm ghz n=2: full search value 3/4 = density 3/4" in out


def test_verify_thm_answer_game_single_round_only(capsys):
    code, _, err = run(capsys, ["verify", "thm-answer-game", "--preset",
                                "unitvec", "--n", "1..2"])
    assert code == 2 and "one round count" in err


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_verify_reports_a_mismatch_and_exits_1(capsys, monkeypatch, json_flag):
    # lines that lose their first configuration are not the forbidden ones
    real = structures.lines

    def one_line_short(q, n):
        family = real(q, n)
        return replace(family, _enumerate=lambda: itertools.islice(family.configurations(), 1, None))

    monkeypatch.setattr(structures, "lines", one_line_short)
    code, out, err = run(capsys, ["verify", "dhj", "--q", "3", "--n", "1..2"] + json_flag)
    assert code == 1
    assert err == "error: dhj: 2 case(s) failed\n"
    rows = [f"dhj q=3 n={n}: the line configurations are not the forbidden ones"
            for n in (1, 2)]
    if json_flag:
        assert json.loads(out)["results"] == [{"case": row, "ok": False} for row in rows]
    else:
        assert out.splitlines() == ["FAIL " + row for row in rows]


def test_verify_square_fails_on_codes_that_swap_two_points(capsys, monkeypatch):
    real = structures.grid_round_codes

    def swapped(field, k, n):
        codes = real(field, k, n)
        codes[0], codes[1] = codes[1], codes[0]
        return codes

    monkeypatch.setattr(structures, "grid_round_codes", swapped)
    # at n = 1 the one square is the whole universe, which the swap maps onto itself
    code, out, err = run(capsys, ["verify", "square", "--n", "1..2"])
    assert (code, err) == (1, "error: square: 1 case(s) failed\n")
    assert out.splitlines() == [
        "PASS square n=1: density 3/4 vs square bound 3/4",
        "FAIL square n=2: the square configurations are not the forbidden ones"]


# -- fuzz -----------------------------------------------------------------------


def test_fuzz_reports_zero_violations(capsys):
    code, out, _ = run(capsys, ["fuzz-prop34", "--preset", "anticorr",
                                "--q", "3", "--n", "2", "--trials", "50",
                                "--seed", "7"])
    assert code == 0
    assert "violations:  0" in out
    assert "trials:      50" in out


def test_fuzz_refuses_perfect_base_game(capsys):
    code, _, err = run(capsys, ["fuzz-prop34", "--preset", "anticorr",
                                "--q", "2"])
    assert code == 4
    assert "below 1" in err


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_fuzz_reports_a_violation_and_exits_1(capsys, monkeypatch, json_flag):
    monkeypatch.setattr(forbidden, "check_winning_set_free", lambda game, strategy: False)
    code, out, _ = run(capsys, ["fuzz-prop34", "--preset", "anticorr", "--q", "3",
                                "--n", "2", "--trials", "3", "--seed", "7"] + json_flag)
    assert code == 1
    if json_flag:
        payload = json.loads(out)
        assert payload["violations"] == 3
        assert payload["counterexample"]["trial"] == 0
        assert set(payload["counterexample"]["strategy"]) == {"players"}
    else:
        assert "violations:  3" in out


# -- a closed stdout --------------------------------------------------------------


def _run_into_a_closed_pipe(args):
    """Run python with args, its stdout a pipe whose reader is closed before
    the child starts, so that every write to it fails with EPIPE."""
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run([sys.executable, *args], stdout=write, stderr=subprocess.PIPE,
                              text=True, env=_child_env(), timeout=60)
    finally:
        os.close(write)


@pytest.mark.parametrize("argv", [
    ["value", "--preset", "anticorr", "--q", "3", "--no-cache"],
    ["eqn", "--preset", "unitvec", "--q", "3", "--n", "2", "--no-cache", "--json"],
], ids=["value", "eqn-json"])
def test_a_closed_stdout_ends_without_a_traceback(argv):
    proc = _run_into_a_closed_pipe(["-m", "replab", *argv])
    assert (proc.returncode, proc.stderr) == (0, "")


def test_a_closed_stdout_keeps_the_exit_code_of_a_failed_check():
    # the report goes nowhere, but the violations still fail the command
    code = ("import sys\n"
            "from replab import forbidden\n"
            "from replab.cli import main\n"
            "forbidden.check_winning_set_free = lambda game, strategy: False\n"
            "sys.exit(main(['fuzz-prop34', '--preset', 'anticorr', '--q', '3', '--n', '2',"
            " '--trials', '3']))\n")
    proc = _run_into_a_closed_pipe(["-c", code])
    assert (proc.returncode, proc.stderr) == (1, "")


def test_only_emit_writes_to_stdout():
    # _emit is the one stdout writer, the one that survives a closed pipe:
    # every other print in the CLI goes to stderr, and no other code
    # touches sys.stdout
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    emit = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "_emit")
    inside = set(map(id, ast.walk(emit)))
    prints = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id == "print"]
    assert any(id(node) in inside for node in prints)
    stray = [node.lineno for node in prints if id(node) not in inside
             and not any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                         for kw in node.keywords)]
    stray += [node.lineno for node in ast.walk(tree) if id(node) not in inside
              and isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout"]
    assert stray == []


# -- parser ---------------------------------------------------------------------


VERIFY_CHECKS = ["dhj", "square", "grid", "val-bound", "thm-answer-game"]


@pytest.mark.parametrize("command", ["repeat", "verify", "fuzz-prop34"])
def test_uncached_commands_take_no_cache_flags(capsys, command):
    # verify takes its check as a sub-command, and each check its own flags
    words = [[command, check] for check in VERIFY_CHECKS] if command == "verify" else [[command]]
    for prefix in words:
        with pytest.raises(SystemExit):
            main(prefix + ["--help"])
        out = capsys.readouterr().out
        assert "--json" in out
        assert not any(flag in out for flag in ("--cache-dir", "--no-cache", "--recheck"))


@pytest.mark.parametrize("argv", [
    "verify grid --p 4 --n 1",
    "eqn --preset grid --p 4 --n 1 --no-cache",
    "value --preset anticorr --q 1 --no-cache",
    "eqn --preset anticorr --q 1 --n 1 --no-cache",
    "eqn --preset unitvec --q 3 --n 0 --no-cache",
    "eqn --preset unitvec --q 0 --n 1 --no-cache",
    "density line --q 3 --n 0 --no-cache",
    "repeat --preset anticorr --n 0",
    "value --preset anticorr --q 3 --repeat 0 --no-cache",
    "value --preset anticorr --q 3 --repeat -3 --no-cache",
    "fuzz-prop34 --preset anticorr --q 3 --n 2 --trials -5",
])
def test_invalid_parameters_exit_2(capsys, argv):
    code, out, err = run(capsys, argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    "eqn --preset ghz --n 2 --wcnf {missing}",
    "density square --n 1 --wcnf {missing}",
    "eqn --preset ghz --n 1 --no-cache --emit-witness {missing}",
    "value --preset anticorr --q 3 --cache-dir {file}/cache",
], ids=["eqn-wcnf", "density-wcnf", "emit-witness", "cache-dir"])
def test_unwritable_output_path_exits_2(capsys, tmp_path, argv):
    (tmp_path / "file").write_text("")
    argv = argv.format(missing=tmp_path / "missing" / "x", file=tmp_path / "file")
    code, out, err = run(capsys, argv.split())
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {tmp_path}")


def test_huge_verify_range_exits_3_at_once(capsys):
    # the range is never materialised: its first round count is over budget
    code, out, err = run(capsys, ["verify", "dhj", "--n", "5..99999999999"])
    assert code == 3 and out == ""
    assert err.startswith("error: ")


def test_missing_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# -- one parser per process ----------------------------------------------------


def test_reused_parser_restores_defaults(capsys):
    code, out, _ = run(capsys, ["value", "--preset", "anticorr", "--q", "4",
                                "--no-cache"])
    assert code == 0 and "params:        q=4, repeat=1" in out
    code, out, _ = run(capsys, ["value", "--preset", "anticorr", "--no-cache"])
    assert code == 0 and "params:        q=3, repeat=1" in out


@pytest.mark.parametrize("rejected", [
    "value --preset anticorr --q 5 --bogus",
    "value --preset nope",
    "density line --n x",
])
def test_rejected_argv_leaves_next_request_unchanged(capsys, rejected):
    argv = ["value", "--preset", "anticorr", "--no-cache"]
    _, first, _ = run(capsys, argv)
    with pytest.raises(SystemExit) as exc:
        main(rejected.split())
    assert exc.value.code == 2
    capsys.readouterr()
    code, again, _ = run(capsys, argv)
    assert code == 0 and again == first


def test_help_twice_prints_the_same(capsys):
    outs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0].startswith("usage: replab")


def test_parser_is_built_once(capsys, monkeypatch):
    run(capsys, ["repeat", "--preset", "anticorr", "--n", "1"])  # warm-up
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    for argv in (["repeat", "--preset", "anticorr", "--n", "1"],
                 ["value", "--preset", "anticorr", "--q", "2", "--no-cache"]) * 5:
        assert run(capsys, argv)[0] == 0
    assert calls == []


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "replab", "value", "--preset", "anticorr",
         "--no-cache"],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert "value:         2/3" in proc.stdout
