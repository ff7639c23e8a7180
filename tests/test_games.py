"""Game construction, evaluation, exact values, presets, and JSON I/O."""

from fractions import Fraction
import itertools
import os
from pathlib import Path
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

import oracles
from replab import games, search
from replab.codec import TupleCodec
from replab.errors import (BudgetExceededError, IncompleteStrategyError,
                           SchemaError)
from replab.fields import FiniteField
from replab.forbidden import build_answer_game, compute_eq
from replab.games import (Game, Strategy, evaluate, exact_value,
                          game_from_json, game_to_json, parse_fraction,
                          predicate_from_spec, preset_game, strategy_from_json,
                          strategy_to_json, unit_tuples)
from replab.repetition import independent_strategy, repeat
from replab.structures import grid_question_set, r_grid, r_line

QUESTION_PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1)]


@st.composite
def random_games(draw):
    """Small 2-player games with a random table predicate and rational
    weights; question alphabets are (0, 1) for both players."""
    support = draw(st.lists(st.sampled_from(QUESTION_PAIRS),
                            unique=True, min_size=1, max_size=4))
    raw = draw(st.lists(st.integers(1, 5), min_size=len(support),
                        max_size=len(support)))
    total = sum(raw)
    weights = [Fraction(w, total) for w in raw]
    second_alphabet = draw(st.sampled_from([(0, 1), (0, 1, 2)]))
    combos = 2 * len(second_alphabet)
    mask = draw(st.integers(0, 2 ** (len(support) * combos) - 1))
    accepts = set()
    for xi in range(len(support)):
        for ai in range(combos):
            if (mask >> (xi * combos + ai)) & 1:
                accepts.add((xi, ai))
    support_pos = {x: i for i, x in enumerate(support)}
    answer_pos = {sym: i for i, sym in enumerate(second_alphabet)}

    def predicate(x, a):
        return (support_pos[tuple(x)], a[0] + 2 * answer_pos[a[1]]) in accepts

    return Game(((0, 1), (0, 1)), ((0, 1), second_alphabet),
                support, weights, predicate)


@st.composite
def random_three_player_games(draw):
    """Small 3-player games with a JSON table predicate.  Questions are bits,
    so support tuples share question cells; weights are proportional to
    r/d with d in {1, 2, 3, 5, 6}, so their denominators are mixed; each
    tuple accepts nothing, everything or a random set of answers."""
    triples = list(itertools.product((0, 1), repeat=3))
    support = draw(st.lists(st.sampled_from(triples), unique=True,
                            min_size=1, max_size=8))
    raw = [Fraction(draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 3, 5, 6])))
           for _ in support]
    weights = [w / sum(raw) for w in raw]
    answer_alphabets = [draw(st.sampled_from([(0,), (0, 1), (0, 1, 2)])) for _ in range(3)]
    combos = len(answer_alphabets[0]) * len(answer_alphabets[1]) * len(answer_alphabets[2])
    full = (1 << combos) - 1
    accepts = []
    for xi in range(len(support)):
        mask = draw(st.sampled_from([0, full]) | st.integers(0, full))
        accepts += [[xi, ai] for ai in range(combos) if mask >> ai & 1]
    spec = {"type": "table", "accepts": accepts}
    alphabets = [(0, 1)] * 3
    return Game(alphabets, answer_alphabets, support, weights,
                predicate_from_spec(spec, alphabets, answer_alphabets, support), spec)


# -- strategies ----------------------------------------------------------------


def test_strategy_answers():
    # Strategy.columns looks each player's questions up in their own table,
    # lazily and in the order given, and ignores tables past the domains
    s = Strategy.from_tables([{0: "x", 1: "y"}, {0: "z"}, {0: "w"}])
    columns = s.columns([[0, 1], [0]], [[1, 0, 1], [0, 0]])
    assert [list(c) for c in columns] == [["y", "x", "y"], ["z", "z"]]


def test_strategy_answers_matches_the_per_player_answers():
    tables = [{(0, 1): (1, 0), (1, 1): (0, 0)}, {(1, 0): (1, 1)}, {(0, 0): (0, 1)}]
    s = Strategy.from_tables(tables)
    questions = [[(1, 1), (0, 1)], [(1, 0)], [(0, 0)]]
    columns = [list(c) for c in s.columns(questions, questions)]
    assert columns == [[tables[j][q] for q in qs] for j, qs in enumerate(questions)]
    assert columns == [[(0, 0), (1, 0)], [(1, 1)], [(0, 1)]]
    # evaluate zips the support's columns back into per-tuple answers: here
    # only the second tuple's answers win
    game = Game([[(0, 1), (1, 1)], [(1, 0)], [(0, 0)]], [[(0, 0), (1, 0)], [(1, 1)], [(0, 1)]],
                [((1, 1), (1, 0), (0, 0)), ((0, 1), (1, 0), (0, 0))], [Fraction(1, 2)] * 2,
                lambda x, a: a == ((1, 0), (1, 1), (0, 1)))
    assert evaluate(game, s) == Fraction(1, 2)


def test_strategy_answers_refuses_a_missing_question():
    s = Strategy.from_tables([{0: "x", 1: "y"}, {0: "z"}])

    def unread():
        raise AssertionError("a question was looked up before the check")
        yield

    # the check runs over the domains, before any question is read
    with pytest.raises(IncompleteStrategyError, match="^player 1 has no answer for question 1$"):
        s.columns([[0, 1], [0, 1]], [unread(), unread()])
    game = Game([(0, 1), (0, 1)], [("x", "y"), ("z",)], [(0, 0), (1, 1)],
                [Fraction(1, 2)] * 2, lambda x, a: True)
    with pytest.raises(IncompleteStrategyError, match="^player 1 has no answer for question 1$"):
        evaluate(game, s)


def test_strategy_answers_refuses_fewer_tables_than_players():
    # a missing table counts as empty
    s = Strategy.from_tables([{0: "x"}, {0: "z"}])
    with pytest.raises(IncompleteStrategyError, match="^player 2 has no answer for question 0$"):
        s.columns([[0]] * 3, [[0]] * 3)
    with pytest.raises(IncompleteStrategyError, match="^player 2 has no answer for question 0$"):
        evaluate(preset_game("anticorr", q=3), Strategy.from_tables([{0: 0, 1: 0}] * 2))


def test_a_game_of_no_players_answers_its_one_tuple():
    game = Game([], [], [()], [Fraction(1)], lambda x, a: (x, a) == ((), ()))
    assert evaluate(game, Strategy(())) == 1
    assert games.attains(game, exact_value(game).strategy, Fraction(1))


# -- game validation -----------------------------------------------------------


def _tiny(support=((0, 0), (1, 1)), weights=(Fraction(1, 2), Fraction(1, 2)),
          question_alphabets=((0, 1), (0, 1)), answer_alphabets=((0,), (0,))):
    return Game(question_alphabets, answer_alphabets, support, weights,
                lambda x, a: True)


def test_game_validation_errors():
    with pytest.raises(SchemaError):
        _tiny(support=((0, 0), (0, 0)))  # duplicate
    with pytest.raises(SchemaError):
        _tiny(weights=(Fraction(1, 2), Fraction(1, 3)))  # sum != 1
    with pytest.raises(SchemaError):
        _tiny(weights=(Fraction(3, 2), Fraction(-1, 2)))  # negative
    with pytest.raises(SchemaError):
        _tiny(support=((0, 2), (1, 1)))  # symbol outside alphabet
    with pytest.raises(SchemaError):
        _tiny(support=((0, 0, 0), (1, 1, 1)))  # wrong arity
    with pytest.raises(SchemaError):
        _tiny(answer_alphabets=((0,),))  # player count mismatch
    with pytest.raises(SchemaError):
        Game(((0, 1),), ((0,),), (), (), lambda x, a: True)  # empty support


def test_question_domain_in_alphabet_order():
    g = Game(((2, 0, 1),), ((0,),), ((1,), (2,)), (Fraction(1, 2),) * 2,
             lambda x, a: True)
    assert g.question_domain(0) == [2, 1]


def test_evaluate_hand_example():
    g = Game(((0, 1), (0, 1)), ((0, 1), (0, 1)),
             ((0, 0), (1, 1)), (Fraction(1, 3), Fraction(2, 3)),
             lambda x, a: a[0] == x[1])
    s = Strategy.from_tables([{0: 0, 1: 0}, {0: 0, 1: 0}])
    assert evaluate(g, s) == Fraction(1, 3)
    sel = Strategy.from_tables([{0: 0, 1: 1}, {0: 0, 1: 0}])
    assert evaluate(g, sel) == 1


# -- exact_value against the brute-force oracle ---------------------------------


@given(random_games())
def test_exact_value_matches_brute_force(game):
    result = exact_value(game)
    value, tables = oracles.brute_force_value(game)
    assert result.value == value
    # same canonical enumeration order, so the witness must agree exactly
    assert tuple(result.strategy.tables) == tables
    assert evaluate(game, result.strategy) == value


@settings(max_examples=300)
@given(random_three_player_games())
def test_three_player_exact_value_matches_brute_force(game):
    result = exact_value(game)
    value, tables = oracles.brute_force_value(game)
    assert result.value == value
    assert tuple(result.strategy.tables) == tables


def _counted_searches(monkeypatch) -> list:
    """The _StrategySearch objects built from now on, in construction order;
    each counts in built the cell orders it has built tables for."""
    searches = []

    class CountedSearch(games._StrategySearch):
        def __init__(self, *args):
            super().__init__(*args)
            self.built = 0
            searches.append(self)

        def _losses(self, cells):
            self.built += 1
            return super()._losses(cells)

    monkeypatch.setattr(games, "_StrategySearch", CountedSearch)
    return searches


def _answer_game(support, n):
    witness = [tuple(w) for w in compute_eq(support, n).witness]
    return build_answer_game(((0, 1),) * len(support[0]), support, n, witness)


def test_repeated_anticorr_value_strategy_and_node_count(monkeypatch):
    searches = _counted_searches(monkeypatch)
    result = exact_value(repeat(preset_game("anticorr", q=3), 2))
    assert result.value == Fraction(2, 3)
    # the lex-first optimal strategy: only players 1 and 2 answer (1, 1),
    # and only to the question (0, 0)
    first = {(0, 0): (0, 0), (1, 0): (0, 0), (0, 1): (0, 0), (1, 1): (0, 0)}
    second = dict(first)
    second[(0, 0)] = (1, 1)
    assert result.strategy.tables == (first, second, second)
    # nodes and cell orders tabled per search, in construction order: the
    # repeated game's, one lex probe that stops at the base value 2/3, then
    # the base game's two phases; a change to these counts is a change to
    # the search, not noise
    assert [s.nodes for s in searches] == [70, 25]
    assert [s.built for s in searches] == [1, 2]


@pytest.mark.parametrize("game,nodes,built", [
    (lambda: preset_game("anticorr", q=3), [25], [2]),
    (lambda: repeat(preset_game("grid", p=3, k=2), 4), [244, 20], [1, 2]),
    (lambda: repeat(_answer_game(list(unit_tuples(3)), 1), 2), [57, 22], [2, 2]),
], ids=["anticorr(3)", "repeat(grid(p=3,k=2),4)", "repeat(answer-game(unitvec(3),1),2)"])
def test_each_path_builds_each_cell_order_once(monkeypatch, game, nodes, built):
    game = game()
    searches = _counted_searches(monkeypatch)
    exact_value(game)
    # per search, in construction order (the repeated game's, then its base
    # game's), the nodes and the cell orders tables were built for.  A plain
    # game (bound 1) runs phase one and phase two.  A repeated game whose
    # value is its base value ends in the lex probe: the bare grid question
    # set settles every tuple, so its probe walks its 243 cells once.  The
    # unitvec(3) answer game's square, 4/9 below 2/3, falls back to phase
    # one, and phase two reuses the probe's lex tables
    assert [s.nodes for s in searches] == nodes
    assert [s.built for s in searches] == built


@pytest.mark.parametrize("game,nodes", [
    (lambda: preset_game("anticorr", q=4), 18),
    (lambda: preset_game("anticorr", q=5), 22),
    (lambda: _answer_game(list(unit_tuples(3)), 2), 31),
    (lambda: _answer_game(list(preset_game("ghz").support), 2), 36),
], ids=["anticorr(4)", "anticorr(5)", "answer-game(unitvec(3),2)", "answer-game(ghz,2)"])
def test_exact_value_node_count(monkeypatch, game, nodes):
    game = game()
    searches = _counted_searches(monkeypatch)
    exact_value(game)
    # nodes over both phases; the look-ahead cuts those of anticorr(4) and
    # (5), and leaves the single-shot answer games' as they were
    assert [s.nodes for s in searches] == [nodes]


def test_undo_restores_two_checks_released_together_in_reverse():
    # in both phases' cell orders, two checks are released at one depth
    # into one later depth (asserted below); backing up must restore that
    # depth's loss vector and least entry to what they were before both.
    # Undoing the releases in the order they were made gives 25/34.
    support = [(1, 1, 1), (1, 1, 0), (0, 1, 1), (0, 0, 1)]
    raw = [Fraction(1), Fraction(1, 2), Fraction(2, 5), Fraction(3, 2)]
    answer_alphabets = [(0,), (0, 1, 2), (0, 1, 2)]
    accepts = [[0, 2], [0, 5], [0, 6], [0, 7], [2, 0], [2, 2], [2, 3], [2, 5],
               [2, 8], [3, 0], [3, 3], [3, 5], [3, 6], [3, 8]]
    spec = {"type": "table", "accepts": accepts}
    alphabets = [(0, 1)] * 3
    game = Game(alphabets, answer_alphabets, support, [w / sum(raw) for w in raw],
                predicate_from_spec(spec, alphabets, answer_alphabets, support), spec)
    search = games._StrategySearch(game, games.DEFAULT_STRATEGY_BUDGET)
    for cells in (search.cells_by_first_use(), search.cells_lex()):
        _, released = search._losses(cells)
        targets = [[c for c, _, _ in checks] for checks in released]
        assert any(len(set(t)) < len(t) for t in targets)
    result = exact_value(game)
    value, tables = oracles.brute_force_value(game)
    assert result.value == value == Fraction(29, 34)
    assert tuple(result.strategy.tables) == tables


@pytest.mark.parametrize("solve,nodes", [
    (lambda: compute_eq(list(grid_question_set(FiniteField(3), 2)), 2), 412),
    (lambda: compute_eq(list(unit_tuples(4)), 3), 112),
    (lambda: r_grid(FiniteField(3), 1, 3), 233),
    (lambda: r_grid(FiniteField(5), 1, 2), 786),
    (lambda: r_line(3, 4), 377),
], ids=["grid(GF3,k=2)", "unitvec(4)", "r_grid(GF3,1,3)", "r_grid(GF5,1,2)", "r_line(3,4)"])
def test_compute_eq_node_count(monkeypatch, solve, nodes):
    searches = []

    class CountedSearch(search._BranchAndBound):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(search, "_BranchAndBound", CountedSearch)
    solve()
    # nodes of the one max_free call, over both phases; they pin the child
    # orders and the family's symmetry group, which orbital branching uses
    assert [s.nodes for s in searches] == [nodes]


def test_untabled_game_value():
    # 257 * 256 answer combinations: one large acceptance table, well within
    # the default budget
    g = Game(((0,), (0,)), (range(257), range(256)), ((0, 0),), (Fraction(1),),
             lambda x, a: a == (200, 100))
    result = exact_value(g)
    assert result.value == 1
    assert result.strategy.tables == ({0: 200}, {0: 100})


@pytest.mark.parametrize("patch, message", [
    ("orig = g._StrategySearch.run\n"
     "g._StrategySearch.run = lambda self, cells, cutoff, stop: "
     "(orig(self, cells, cutoff, stop)[0], None)\n",
     "phase two must rediscover the optimum"),
    ("g.evaluate = lambda game, strategy: -1\n",
     "reconstructed strategy must attain the optimum"),
    # below the value 2/3, so the lex probe runs and ends at a leaf above it
    ("g.Game.value_bound = lambda self, budget: g.Fraction(1, 2)\n",
     "phase one must not exceed the value bound"),
], ids=["phase-two", "re-evaluation", "value-bound"])
def test_value_checks_are_kept_under_python_O(patch, message):
    # the independent checks must not be asserts, which -O strips
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import replab.games as g\n" + patch
            + "print(g.exact_value(g.preset_game('anticorr', q=3)))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1 and proc.stdout == ""
    assert f"AssertionError: {message}" in proc.stderr


def test_exact_value_budget():
    with pytest.raises(BudgetExceededError):
        exact_value(preset_game("anticorr", q=3), budget=10)


def test_exact_value_counts_table_work_against_the_budget():
    # one answer per player: a strategy space of size 1, but each of the 9
    # support tuples gets an acceptance table over one answer combination
    g = preset_game("grid", p=3, k=2)
    assert len(g.support) == 9
    assert exact_value(g, budget=9).value == 0
    with pytest.raises(BudgetExceededError,
                       match="9 support tuples x 1 answer combinations exceed budget 8"):
        exact_value(g, budget=8)


# -- presets --------------------------------------------------------------------


def test_unit_tuples():
    assert unit_tuples(3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert unit_tuples(1) == ((1,),)


def test_anticorr_values():
    assert exact_value(preset_game("anticorr", q=3)).value == Fraction(2, 3)
    # with one zero-receiver the distinctness condition is vacuous
    assert exact_value(preset_game("anticorr", q=2)).value == 1
    # three zero-receivers cannot be pairwise distinct over two answers
    assert exact_value(preset_game("anticorr", q=4)).value == 0


def test_anticorr_optimal_strategy_is_lex_first():
    g = preset_game("anticorr", q=3)
    result = exact_value(g)
    value, tables = oracles.brute_force_value(g)
    assert result.value == value
    assert tuple(result.strategy.tables) == tables


def test_attains_checks_alphabets_and_value():
    game = preset_game("anticorr", q=3)
    result = exact_value(game)
    assert games.attains(game, result.strategy, Fraction(2, 3))
    assert not games.attains(game, result.strategy, Fraction(1, 3))
    off = Strategy.from_tables([{**result.strategy.tables[0], 0: 2}]
                               + list(result.strategy.tables[1:]))
    assert not games.attains(game, off, evaluate(game, off))
    rep = repeat(game, 2)
    indep = independent_strategy(result.strategy, 2)
    assert games.attains(rep, indep, Fraction(4, 9))
    # a player answering one question in three rounds of a two-round game
    question = rep.question_domain(0)[0]
    short = Strategy.from_tables([{**indep.tables[0], question: (0, 0, 0)}]
                                 + list(indep.tables[1:]))
    assert not games.attains(rep, short, evaluate(rep, short))


def test_preset_support_shapes():
    ghz = preset_game("ghz")
    assert ghz.support == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
    grid = preset_game("grid", p=3, r=1, k=2)
    assert grid.k == 3
    assert len(grid.support) == 9
    assert exact_value(preset_game("unitvec", q=3)).value == 0


def test_ghz_preset_is_the_binary_grid_game():
    ghz, grid = preset_game("ghz"), preset_game("grid", p=2, r=1, k=2)
    for attr in ("question_alphabets", "answer_alphabets", "support", "weights",
                 "predicate", "predicate_spec"):
        assert getattr(ghz, attr) == getattr(grid, attr)


def test_preset_rejects_bad_input():
    with pytest.raises(ValueError):
        preset_game("nope")
    with pytest.raises(ValueError):
        preset_game("anticorr", q=1)
    with pytest.raises(ValueError):
        preset_game("ghz", q=3)


# -- JSON round trips -------------------------------------------------------------


@given(random_games())
def test_game_json_round_trip(game):
    doc = game_to_json(game)
    back = game_from_json(doc)
    assert back.k == game.k
    assert tuple(back.support) == tuple(game.support)
    assert tuple(back.weights) == tuple(game.weights)
    for x in game.support:
        for a in TupleCodec(game.answer_alphabets):
            assert back.predicate(x, a) == game.predicate(x, a)


def test_preset_json_round_trip():
    g = preset_game("anticorr", q=3)
    back = game_from_json(game_to_json(g))
    assert exact_value(back).value == Fraction(2, 3)


def test_game_from_json_rejects_malformed():
    good = game_to_json(preset_game("anticorr", q=3))
    for key in ("k", "support", "predicate"):
        broken = {k: v for k, v in good.items() if k != key}
        with pytest.raises(SchemaError):
            game_from_json(broken)
    with pytest.raises(SchemaError):
        game_from_json("not a dict")
    bad_weight = game_to_json(preset_game("anticorr", q=3))
    bad_weight["support"][0]["weight"] = "x"
    with pytest.raises(SchemaError):
        game_from_json(bad_weight)
    bad_pred = game_to_json(preset_game("anticorr", q=3))
    bad_pred["predicate"] = {"type": "nope"}
    with pytest.raises(SchemaError):
        game_from_json(bad_pred)
    bad_table = game_to_json(preset_game("anticorr", q=3))
    bad_table["predicate"] = {"type": "table", "accepts": [[0]]}
    with pytest.raises(SchemaError):
        game_from_json(bad_table)


def test_untabulatable_predicate_refused():
    big = tuple(range(1 << 13))
    g = Game(((0,), (0,)), (big, big), ((0, 0),), (Fraction(1),),
             lambda x, a: False)
    with pytest.raises(SchemaError):
        game_to_json(g)


def test_strategy_json_round_trip():
    g = preset_game("anticorr", q=3)
    strategy = exact_value(g).strategy
    back = strategy_from_json(strategy_to_json(g, strategy))
    assert back == strategy
    with pytest.raises(SchemaError):
        strategy_from_json({"nope": 1})


def test_strategy_to_json_refuses_an_incomplete_strategy():
    g = preset_game("anticorr", q=3)
    tables = [dict(t) for t in exact_value(g).strategy.tables]
    del tables[2][1]
    with pytest.raises(IncompleteStrategyError, match="^player 2 has no answer for question 1$"):
        strategy_to_json(g, Strategy(tuple(tables)))


def test_parse_fraction():
    assert parse_fraction("2/3") == Fraction(2, 3)
    assert parse_fraction("1") == 1
    with pytest.raises(SchemaError):
        parse_fraction("x")
    with pytest.raises(SchemaError):
        parse_fraction("1/0")
