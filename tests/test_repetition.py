"""Tuple codecs, lazy repeated games, and independent strategies."""

import itertools
import math
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given
from hypothesis import strategies as st
import pytest

import oracles
from replab import forbidden, games, repetition, structures
from replab.errors import BudgetExceededError, IncompleteStrategyError
from replab.games import (Game, Strategy, evaluate, exact_value, game_from_json,
                          preset_game)
from replab.codec import ProductTuples, TupleCodec, oversize, power_exceeds
from replab.repetition import independent_strategy, repeat


# -- codecs ---------------------------------------------------------------------


def test_codec_is_little_endian():
    codec = TupleCodec([(0, 1, 2)] * 2)
    assert codec.encode((1, 0)) == 1
    assert codec.encode((0, 1)) == 3
    assert codec.decode(5) == (2, 1)
    assert codec.size == 9


@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 10**6))
def test_codec_round_trip(radix, n, raw):
    codec = TupleCodec([range(radix)] * n)
    code = raw % codec.size
    assert codec.encode(codec.decode(code)) == code


def test_codec_errors():
    codec = TupleCodec([(0, 1)] * 2)
    with pytest.raises(ValueError):
        codec.encode((0, 1, 0))
    with pytest.raises(ValueError):
        codec.encode((0, 2))
    with pytest.raises(ValueError):
        codec.decode(4)


def test_codec_mixed_radix_answer_tuples():
    # per-player answer alphabets of sizes 2 and 3, player 0 least significant
    codec = TupleCodec([(0, 1), (0, 1, 2)])
    assert codec.size == 6
    assert [codec.decode(c) for c in range(6)] == list(codec)
    assert len(set(codec)) == 6
    for code, a in enumerate(codec):
        assert codec.encode(a) == code
    assert codec.decode(1) == (1, 0)
    assert codec.decode(2) == (0, 1)
    with pytest.raises(ValueError):
        codec.encode((5, 0))


def test_codec_module_imports_no_other_replab_module():
    # load the file alone, outside the package, in a fresh interpreter: a
    # relative import would fail there and an absolute one would show up
    path = Path(__file__).resolve().parents[1] / "src" / "replab" / "codec.py"
    code = ("import importlib.util, sys; "
            f"spec = importlib.util.spec_from_file_location('codec', {str(path)!r}); "
            "spec.loader.exec_module(importlib.util.module_from_spec(spec)); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'replab'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_product_tuples_order_and_lookup():
    seq = ProductTuples("ab", 2)
    assert list(seq) == [("a", "a"), ("b", "a"), ("a", "b"), ("b", "b")]
    assert seq[-1] == ("b", "b")
    assert seq[1:3] == [("b", "a"), ("a", "b")]
    assert ("a", "b") in seq
    assert ("a", "c") not in seq
    assert ("a",) not in seq
    with pytest.raises(IndexError):
        seq[4]


@given(st.integers(0, 4), st.integers(0, 4))
def test_product_tuples_iteration_matches_indexing(size, n):
    pt = ProductTuples("abcd"[:size], n)
    assert list(pt) == [pt[i] for i in range(len(pt))]


def test_power_exceeds():
    for base, exp in itertools.product(range(5), range(5)):
        for budget in (-1, 0, 1, 15, 16, 17):
            assert power_exceeds(base, exp, budget) == (base**exp > budget)
    # the product stops at the budget, so a huge exponent answers at once
    assert power_exceeds(2, 10**18, 10**6)
    assert not power_exceeds(1, 10**18, 1)
    assert not power_exceeds(0, 10**18, 0)


def test_oversize_boundary():
    assert oversize(2, 4, 16) is None
    assert oversize(2, 4, 15) == "2**4 points exceed the budget 15"
    # one symbol: size**n is 1, but each coordinate holds a codec slot
    assert oversize(1, 16, 16) is None
    assert oversize(1, 17, 16) == "17 coordinates exceed the budget 16"
    assert oversize(0, 16, 16) is None


# -- repeated games ----------------------------------------------------------------


def _base_game():
    # 2 players, value 1: win when answers agree on question (0, 0),
    # disagree otherwise
    def predicate(x, a):
        return (a[0] == a[1]) == (x == (0, 0))

    return Game(((0, 1), (0, 1)), ((0, 1), (0, 1)),
                ((0, 0), (0, 1), (1, 0)),
                (Fraction(1, 3),) * 3, predicate)


def _unequal_base_game():
    # _base_game's predicate under weights 1/2, 1/3, 1/6
    base = _base_game()
    return Game(base.question_alphabets, base.answer_alphabets, base.support,
                (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), base.predicate)


BIT_PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1)]


@st.composite
def unequal_base_games(draw):
    """2-player bit games with a random accept set and weights c_i / d
    summing to 1, for d in {2, 3, 5, 6}."""
    d = draw(st.sampled_from([2, 3, 5, 6]))
    support = draw(st.lists(st.sampled_from(BIT_PAIRS), unique=True,
                            min_size=1, max_size=min(4, d)))
    cuts = sorted(draw(st.lists(st.integers(1, d - 1), unique=True,
                                min_size=len(support) - 1, max_size=len(support) - 1)))
    weights = [Fraction(hi - lo, d) for lo, hi in zip([0, *cuts], [*cuts, d])]
    accepts = draw(st.sets(st.tuples(st.sampled_from(support), st.sampled_from(BIT_PAIRS))))
    return _bit_game(support, weights, accepts)


def _bit_game(support, weights, accepts) -> Game:
    """A 2-player bit game that accepts the (questions, answers) pairs in
    accepts."""
    return Game(((0, 1), (0, 1)), ((0, 1), (0, 1)), support, weights,
                lambda x, a: (x, a) in accepts)


@given(unequal_base_games(), st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans())
def test_scaled_weights_and_evaluate_match_the_product_walk(base, n, salt, wrong_length):
    # evaluate and winning_points against the oracle and the walk of the
    # repeated predicate over the support, for a random strategy, not a
    # product of base strategies; with wrong_length, one player's answers
    # all hold n - 1 or n + 1 rounds, which both walks truncate as zip does
    # and attains refuses
    game = repeat(base, n)
    scale, ints = game.scaled_weights()
    assert [Fraction(i, scale) for i in ints] == [
        math.prod(ws) for ws in itertools.product(base.weights, repeat=n)]
    rng = random.Random(salt)
    short = rng.randrange(game.k) if wrong_length else None

    def answer(j):
        rounds = rng.choice([n - 1, n + 1]) if j == short else n
        return tuple(rng.choice(base.answer_alphabets[j]) for _ in range(rounds))

    strategy = Strategy.from_tables([{q: answer(j) for q in game.question_domain(j)}
                                     for j in range(game.k)])
    wins = [game.predicate(x, tuple(t[q] for t, q in zip(strategy.tables, x)))
            for x in game.support]
    value = evaluate(game, strategy)
    assert forbidden.winning_points(game, strategy) == list(itertools.compress(game.rounds, wins))
    assert value == sum(itertools.compress(game.weights, wins))
    if wrong_length:
        assert not games.attains(game, strategy, value)
    else:
        assert value == oracles.repeated_win_probability(base, n, strategy)


@pytest.mark.parametrize("consumer,n", [
    (evaluate, 3), (forbidden.winning_points, 3), (evaluate, None),
], ids=["evaluate", "winning_points", "evaluate-plain"])
def test_the_column_walk_refuses_incomplete_strategies(consumer, n):
    # a repeated game's walk and a plain game's read the tables alike;
    # n None is the plain base game
    base = preset_game("anticorr", q=3)
    strategy = exact_value(base).strategy
    if n is not None:
        strategy = independent_strategy(strategy, n)
    tables = [dict(t) for t in strategy.tables]
    one, zero = ((1,) * n, (0,) * n) if n else (1, 0)
    del tables[1][one]
    incomplete = [Strategy(tuple(tables)), Strategy(strategy.tables[:2])]
    def asked(x, a):
        raise AssertionError("the predicate was asked before the refusal")

    # the refusal comes before the predicate is asked about any tuple
    predicate, base.predicate = base.predicate, asked
    game = base if n is None else repeat(base, n)
    with pytest.raises(IncompleteStrategyError,
                       match=rf"^player 1 has no answer for question {re.escape(repr(one))}$"):
        consumer(game, incomplete[0])
    with pytest.raises(IncompleteStrategyError,
                       match=rf"^player 2 has no answer for question {re.escape(repr(zero))}$"):
        consumer(game, incomplete[1])
    # a table past the last player is ignored
    base.predicate = predicate
    game = base if n is None else repeat(base, n)
    assert consumer(game, Strategy((*strategy.tables, {}))) == consumer(game, strategy)


def test_repeated_game_shape():
    game = repeat(preset_game("anticorr", q=3), 2)
    assert len(game.support) == 9
    assert game.n == 2
    assert game.base.k == 3
    # element c stacks base tuples little-endian: round 0 is c % q
    assert game.support[0] == ((1, 1), (0, 0), (0, 0))
    # c = 5 is rounds (2, 1): base tuples (0,0,1) then (0,1,0), transposed
    assert game.support[5] == ((0, 0), (0, 1), (1, 0))
    assert game.rounds[5] == (2, 1)
    assert all(w == Fraction(1, 9) for w in game.weights)
    assert sum(game.weights) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("make_base", [_base_game, _unequal_base_game,
                                       lambda: preset_game("anticorr", q=3)],
                         ids=["base", "unequal", "anticorr3"])
def test_repeated_support_matches_transpose(make_base, n):
    base = make_base()
    game = repeat(base, n)
    q = len(base.support)
    rounds, support, weights = list(game.rounds), list(game.support), list(game.weights)
    assert len(rounds) == len(support) == len(weights) == len(game.support) == q**n
    # the materialised product, in the little-endian order of the rounds
    assert weights == [math.prod(ws) for ws in itertools.product(base.weights, repeat=n)]
    for c in range(q**n):
        w = tuple((c // q**m) % q for m in range(n))
        assert rounds[c] == game.rounds[c] == w
        expected = tuple(tuple(base.support[v][j] for v in w) for j in range(base.k))
        assert support[c] == game.support[c] == expected
        assert weights[c] == game.weights[c]


def _sparse_domain_game():
    # player 0 is never asked 2, and its alphabet is not in sorted order
    return Game(((2, 1, 0), (0, 1)), ((0, 1), (0, 1)),
                ((1, 0), (0, 1), (0, 0)),
                (Fraction(1, 3),) * 3, lambda x, a: a[0] == a[1])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("make_base", [
    lambda: preset_game("anticorr", q=3),
    lambda: preset_game("ghz"),
    lambda: preset_game("grid", p=3, k=2),
    _sparse_domain_game,
], ids=["anticorr3", "ghz", "grid3", "sparse"])
def test_repeated_question_domain_matches_generic_walk(make_base, n):
    game = repeat(make_base(), n)
    for j in range(game.k):
        assert game.question_domain(j) == Game.question_domain(game, j)


def test_repeated_predicate_requires_all_rounds():
    base = _base_game()
    game = repeat(base, 2)
    strategy = Strategy.from_tables([
        {q: (0, q[1]) for q in ProductTuples((0, 1), 2)},
        {q: (0, 0) for q in ProductTuples((0, 1), 2)},
    ])
    for c in range(len(game.support)):
        x = game.support[c]
        a = tuple(strategy.tables[j][x[j]] for j in range(base.k))
        per_round = []
        for i in range(2):
            xi = tuple(x[j][i] for j in range(base.k))
            ai = tuple(a[j][i] for j in range(base.k))
            per_round.append(base.predicate(xi, ai))
        assert game.predicate(x, a) == all(per_round)


def _raise(*args):
    raise AssertionError("the re-check read what the search reads")


@pytest.mark.parametrize("make_base,n", [
    (lambda: preset_game("anticorr", q=3), 3),
    (_unequal_base_game, 3),
    (lambda: preset_game("grid", p=2, k=2), 2),
], ids=["anticorr3", "unequal", "grid2"])
def test_the_recheck_reads_neither_the_coded_support_nor_the_tables(monkeypatch, make_base, n):
    # evaluate and winning_points walk the base columns, so a fault in what
    # the search reads cannot agree with itself
    game = repeat(make_base(), n)
    strategy = independent_strategy(exact_value(game.base).strategy, n)
    value = oracles.repeated_win_probability(game.base, n, strategy)
    points = [w for w, x in zip(game.rounds, game.support)
              if game.predicate(x, tuple(t[q] for t, q in zip(strategy.tables, x)))]
    monkeypatch.setattr(repetition.RepeatedGame, "coded_support", _raise)
    monkeypatch.setattr(repetition.RepeatedGame, "acceptance", _raise)
    assert evaluate(game, strategy) == value
    assert forbidden.winning_points(game, strategy) == points


@pytest.mark.parametrize("name,params,n", [
    ("anticorr", {"q": 3}, 2), ("anticorr", {"q": 3}, 4), ("anticorr", {"q": 4}, 2),
    ("grid", {"p": 2, "k": 2}, 6), ("grid", {"p": 3, "k": 2}, 4), ("ghz", {}, 2),
])
def test_product_tables_match_the_predicate(name, params, n):
    game = repeat(preset_game(name, **params), n)
    tables = game.acceptance()
    assert Game.acceptance(game) == tables
    # the grids' placeholder predicate rejects everything: the empty tables
    # are one shared object
    assert len({id(t) for t in tables if not t}) <= 1


@st.composite
def table_games(draw):
    """A game file with a random table predicate: 2 or 3 players, bit
    questions, answer alphabets of 1 to 3 symbols, and a round count that
    keeps the repeated support x answer combinations small."""
    k = draw(st.integers(2, 3))
    support = draw(st.lists(st.sampled_from(list(itertools.product((0, 1), repeat=k))),
                            unique=True, min_size=1, max_size=3))
    answers = [list(range(draw(st.integers(1, 3)))) for _ in range(k)]
    combos = math.prod(map(len, answers))
    accepts = draw(st.sets(st.tuples(st.integers(0, len(support) - 1),
                                     st.integers(0, combos - 1))))
    doc = {"k": k, "question_alphabets": [[0, 1]] * k, "answer_alphabets": answers,
           "support": [{"x": list(x), "weight": f"1/{len(support)}"} for x in support],
           "predicate": {"type": "table", "accepts": sorted(map(list, accepts))}}
    n = draw(st.integers(1, max(m for m in (1, 2, 3) if (len(support) * combos) ** m <= 5000)))
    return game_from_json(doc), n


@given(table_games())
def test_product_tables_match_the_predicate_on_table_games(case):
    base, n = case
    game = repeat(base, n)
    assert Game.acceptance(game) == game.acceptance()


def test_a_faulty_table_fails_the_recheck(monkeypatch):
    # one product table wrongly accepts every answer combination: the
    # search trusts it, and the re-check, which never reads it, refuses
    # the strategy found
    acceptance = repetition.RepeatedGame.acceptance

    def faulty(self):
        tables = acceptance(self)
        tables[1] = frozenset(itertools.product(*(range(len(a)) for a in self.answer_alphabets)))
        return tables

    monkeypatch.setattr(repetition.RepeatedGame, "acceptance", faulty)
    with pytest.raises(AssertionError, match="^reconstructed strategy must attain the optimum$"):
        exact_value(repeat(preset_game("anticorr", q=3), 2))


def _ghz_answer_game():
    support = structures.ghz_support()
    record = forbidden.compute_eq(list(support), 1)
    return forbidden.build_answer_game(((0, 1),) * 3, support, 1, record.witness)


def _unequal_file_game():
    # a game file with weights 1/2, 1/3, 1/6 and a table predicate
    return game_from_json({
        "k": 2, "question_alphabets": [[1, 0], [0, 1]], "answer_alphabets": [[0, 1], [0, 1]],
        "support": [{"x": [0, 0], "weight": "1/2"}, {"x": [1, 1], "weight": "1/3"},
                    {"x": [0, 1], "weight": "1/6"}],
        "predicate": {"type": "table", "accepts": [[0, 0], [0, 3], [1, 1], [2, 2]]}})


@pytest.mark.parametrize("make_base,n", [
    (lambda: preset_game("anticorr", q=3), 1),
    (lambda: preset_game("anticorr", q=3), 2),
    (lambda: preset_game("anticorr", q=3), 3),
    (lambda: preset_game("grid", p=2, k=2), 2),
    (_ghz_answer_game, 2),
    (_unequal_file_game, 2),
], ids=["anticorr3-1", "anticorr3-2", "anticorr3-3", "grid2-2", "answer-game", "file-unequal"])
def test_coded_support_matches_the_materialised_support(make_base, n):
    game = repeat(make_base(), n)
    scale, weights, positions = game.coded_support()
    expected_scale, expected_weights = game.scaled_weights()
    assert (scale, list(weights)) == (expected_scale, list(expected_weights))
    support = list(game.support)
    for j in range(game.k):
        domain = game.question_domain(j)
        assert list(positions[j]) == [domain.index(x[j]) for x in support]


def test_exact_value_does_not_walk_the_repeated_support():
    # the search reads coded_support and the re-check walks the base
    # columns, so neither iterates the lazy support, weights or rounds
    game = repeat(preset_game("anticorr", q=3), 2)
    expected = exact_value(game)
    points = forbidden.winning_points(game, expected.strategy)

    class Unwalkable(type(game.support)):
        def __iter__(self):
            raise AssertionError("the repeated support or weights were iterated")

    class UnwalkableRounds(type(game.rounds)):
        def __iter__(self):
            raise AssertionError("the repeated rounds were iterated")

    rounds = UnwalkableRounds(range(3), 2)
    game.rounds = rounds
    game.support = Unwalkable(game.support.f, rounds)
    game.weights = Unwalkable(game.weights.f, rounds)
    for lazy in (game.support, game.weights, game.rounds):
        with pytest.raises(AssertionError, match="iterated"):
            list(lazy)
    assert exact_value(game) == expected
    assert evaluate(game, expected.strategy) == expected.value
    assert forbidden.winning_points(game, expected.strategy) == points


def test_repeated_predicate_calls_the_base_predicate_once_per_round():
    calls = []
    base = preset_game("anticorr", q=3)
    strategy = independent_strategy(exact_value(base).strategy, 3)
    predicate = base.predicate
    base.predicate = lambda x, a: calls.append((x, a)) or predicate(x, a)
    game = repeat(base, 3)
    # 27 repeated tuples, twice, but 3 distinct rounds under this strategy
    assert evaluate(game, strategy) == evaluate(game, strategy) == Fraction(8, 27)
    assert len(calls) == len(set(calls)) == 3


def test_repeat_validation(monkeypatch):
    base = _base_game()
    with pytest.raises(ValueError):
        repeat(base, 0)
    with pytest.raises(ValueError, match="^a game of no players cannot be repeated$"):
        repeat(Game([], [], [()], [Fraction(1)], lambda x, a: True), 2)
    with pytest.raises(BudgetExceededError):
        repeat(base, 50)
    assert repeat(base, 1).n == 1
    # one question, one answer: only the round count can exceed the budget
    trivial = Game(((0,),), ((0,),), ((0,),), (Fraction(1),), lambda x, a: True)
    monkeypatch.setattr(repetition, "TUPLE_BUDGET", 8)
    assert len(repeat(trivial, 8).support) == 1
    with pytest.raises(BudgetExceededError, match="^9 coordinates exceed the budget 8$"):
        repeat(trivial, 9)


def _dense_product(base: Game, n: int) -> Game:
    """The n-fold repetition of base written out as a plain Game, with its
    alphabets in the little-endian order of the repeated game's."""

    def little_endian(alphabet):
        return [tuple(reversed(t)) for t in itertools.product(alphabet, repeat=n)]

    support, weights = [], []
    for rounds in itertools.product(range(len(base.support)), repeat=n):
        xs = [base.support[r] for r in rounds]
        support.append(tuple(zip(*xs)))
        weights.append(math.prod(base.weights[r] for r in rounds))

    def predicate(x, a):
        return all(base.predicate(tuple(xj[i] for xj in x), tuple(aj[i] for aj in a))
                   for i in range(n))

    return Game(list(map(little_endian, base.question_alphabets)),
                list(map(little_endian, base.answer_alphabets)),
                support, weights, predicate)


@given(unequal_base_games())
@example(_base_game())
# value 2/3, also of the square: phase one stops at the base value
@example(_bit_game(((1, 0), (0, 0), (0, 1)), [Fraction(1, 3)] * 3,
                   {((0, 0), (0, 1)), ((0, 0), (1, 0)), ((0, 1), (0, 1)), ((1, 0), (1, 0))}))
# value 2/5, of the square 6/25: no leaf reaches the bound
@example(_bit_game(((0, 0), (1, 0), (0, 1), (1, 1)),
                   [Fraction(1, 5), Fraction(1, 5), Fraction(2, 5), Fraction(1, 5)],
                   {((0, 0), (0, 0)), ((1, 0), (0, 0)), ((1, 0), (1, 1)), ((1, 1), (1, 1))}))
def test_repeat_value_matches_the_dense_product(base):
    # the repeated game's phase one stops at a leaf worth the base value;
    # the plain game gets bound 1 and runs the full phase one
    lazy = exact_value(repeat(base, 2))
    dense = exact_value(_dense_product(base, 2))
    assert lazy.value == dense.value
    assert lazy.strategy == dense.strategy
    assert lazy.value <= exact_value(base).value


def test_over_budget_repeat_never_builds_the_base_search(monkeypatch):
    # the repeated search refuses its strategy space before value_bound
    # solves the base game
    built = []

    class RecordedSearch(games._StrategySearch):
        def __init__(self, game, budget):
            built.append(game)
            super().__init__(game, budget)

    monkeypatch.setattr(games, "_StrategySearch", RecordedSearch)
    game = repeat(preset_game("anticorr", q=3), 3)
    with pytest.raises(BudgetExceededError, match="^strategy space exceeds budget"):
        exact_value(game)
    assert built == [game]


@given(st.integers(0, 2**32 - 1))
def test_independent_strategy_value_is_power(salt):
    from replab.rng import SplitMix64

    base = _base_game()
    rng = SplitMix64(salt)
    tables = []
    for j in range(2):
        tables.append({q: rng.below(2) for q in base.question_domain(j)})
    s = Strategy.from_tables(tables)
    rep = repeat(base, 2)
    s2 = independent_strategy(s, 2)
    assert evaluate(rep, s2) == evaluate(base, s) ** 2


def test_independent_strategy_tables_cover_product_domain():
    base = preset_game("anticorr", q=3)
    s = exact_value(base).strategy
    s2 = independent_strategy(s, 2)
    for j in range(3):
        keys = set(s2.tables[j])
        assert keys == {(a, b) for a in (0, 1) for b in (0, 1)}
        for (a, b) in keys:
            assert s2.tables[j][(a, b)] == (s.tables[j][a], s.tables[j][b])


def test_two_round_anticorr_support_weights_are_uniform():
    game = repeat(preset_game("anticorr", q=3), 2)
    assert [game.weights[c] for c in range(9)] == [Fraction(1, 9)] * 9
