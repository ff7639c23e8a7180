"""Parallel repetition of games.

The n-fold repetition plays n independent rounds of the base game at once:
the referee draws n support tuples independently, each player sees their own
n questions as a single tuple and answers all rounds in one shot, and the
players win only if every round's predicate accepts.

Round tuples are indexed little-endian: the repeated support element with
index c plays base round c % q first (coordinate 0), then (c // q) % q, and
so on.  Per-player question and answer tuples use the same convention, the
little-endian code of the codec module.  A repeated game's rounds are
ProductTuples(range(q), n), the index vectors of its base rounds, and its
support and weights are maps over them; nothing of size alphabet**n is
materialised until something iterates it.  repeat refuses, with
codec.oversize's reason, a round count whose repeated support or any
repeated alphabet exceeds codec.TUPLE_BUDGET.  A repeated weight is the
product of its rounds' scaled base ints over the base scale to the n-th
power, so no Fraction is multiplied.  Likewise the tables the exact_value search reads
are round-by-round products of the base game's: the acceptance tables, and
the coded support (each tuple's weight and each player's question position),
so the search never calls the repeated predicate or forms a question tuple.
A repeated game's value_bound is the base game's value, which exact_value's
phase one stops at.  The repeated support is the full product of base rounds
under product weights, so val(G^n) <= val(G): fix the questions of every
round but one, and each player's answers in that round depend on their own
question in it alone, a strategy of G, which wins that round, and so every
round, with probability at most val(G); average over the fixed rounds.
evaluate and forbidden.winning_points re-check a strategy through
RepeatedGame.walk, one column walk of the rounds made of itertools products
and C-level maps, with no Python frame per repeated tuple.  Per player, the
question tuples are the n-fold product of the player's column of the base
support, and the answers their lookups in the player's table.  A tuple wins
when the base predicate accepts every round, its answers zipped per round
as the repeated predicate zips them, and its weight's factors are its
rounds' base ints, which evaluate multiplies out for the winners alone.
The walk runs in itertools.product order, the last round fastest: a sum
does not see the order, and winning_points sorts only its winners back.  It
reads the base support, weights and predicate and the strategy's tables,
never coded_support or acceptance, so the re-check stays independent of
what the search read.  It reads the tables through Strategy.columns, as a
plain game's walk does, with the n-fold base domains as the domains: the
full product of rounds asks every question of them, so a table that misses
one is refused before the walk.  The base predicate is asked once per
distinct round, through a memo bounded at PREDICATE_MEMO entries that the
walk and the repeated predicate share: a round recurs in many repeated
tuples, and a product strategy often answers it alike each time.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from collections.abc import Iterator, Sequence
from fractions import Fraction

from .codec import TUPLE_BUDGET, ProductTuples, oversize
from .errors import BudgetExceededError
from .games import Game, Strategy, exact_value

# distinct base rounds a repeated predicate remembers the base verdict of
PREDICATE_MEMO = 1 << 14


class _RoundMap(Sequence):
    """Lazy sequence whose element c is f(rounds[c])."""

    def __init__(self, f, rounds: ProductTuples):
        self.f = f
        self.rounds = rounds

    def __len__(self) -> int:
        return len(self.rounds)

    def __getitem__(self, c):
        return self.f(self.rounds[c])

    def __iter__(self):
        return map(self.f, self.rounds)


class RepeatedGame(Game):
    """The n-fold parallel repetition of a base game."""

    def __init__(self, base: Game, n: int):
        self.base = base
        self.n = n
        self.k = base.k
        self.rounds = ProductTuples(range(len(base.support)), n)
        support = base.support
        base_scale, base_ints = base.scaled_weights()
        scale = base_scale ** n

        def weight(w):
            return math.prod(map(base_ints.__getitem__, w))

        self._scaled = scale, _RoundMap(weight, self.rounds)
        # the base predicate once per distinct (questions, answers) round
        self._round_predicate = base_predicate = functools.lru_cache(
            maxsize=PREDICATE_MEMO)(base.predicate)
        self.question_alphabets = tuple(ProductTuples(a, n) for a in base.question_alphabets)
        self.answer_alphabets = tuple(ProductTuples(a, n) for a in base.answer_alphabets)
        # per player, the transpose of the rounds' base support tuples
        self.support = _RoundMap(lambda w: tuple(zip(*map(support.__getitem__, w))),
                                 self.rounds)
        self.weights = _RoundMap(lambda w: Fraction(weight(w), scale), self.rounds)
        self.predicate = lambda x, a: all(map(base_predicate, zip(*x), zip(*a)))
        self.predicate_spec = None

    def scaled_weights(self) -> tuple[int, Sequence[int]]:
        """The base scale to the n-th power, over lazy products of base ints."""
        return self._scaled

    def coded_support(self) -> tuple[int, Sequence[int], list[Sequence[int]]]:
        """The round-by-round product of the base game's coded support, as
        acceptance builds its tables: each pass adds one round as the most
        significant digit, multiplying the weights and adding the round's
        base position times the base domain size to the power of the rounds
        so far.  The positions are int arrays, so no int object is kept per
        tuple."""
        _, base_weights, base_positions = self.base.coded_support()
        radices = [len(self.base.question_domain(j)) for j in range(self.k)]
        weights = [1]
        positions = [array("q", [0]) for _ in range(self.k)]
        place = [1] * self.k
        for _ in range(self.n):
            weights = [prev * w for w in base_weights for prev in weights]
            positions = [array("q", [prev + b * p for b in base for prev in codes])
                         for codes, base, p in zip(positions, base_positions, place)]
            place = [p * r for p, r in zip(place, radices)]
        return self._scaled[0], weights, positions

    def acceptance(self) -> list[frozenset[tuple[int, ...]]]:
        """The round-by-round product of the base tables: a repeated answer's
        position is the little-endian code of its rounds' base positions.
        Each pass adds one round as the most significant digit, so the
        tables stay in round order.  The empty tables are one shared
        frozenset, which keeps a game that rejects most tuples small."""
        base = self.base.acceptance()
        radices = [len(a) for a in self.base.answer_alphabets]
        empty = frozenset()
        tables = [frozenset([(0,) * self.k])]
        place = [1] * self.k
        for _ in range(self.n):
            tables = [frozenset(tuple(c + b * p for c, b, p in zip(prefix, combo, place))
                                for combo in table for prefix in prefixes)
                      if table and prefixes else empty
                      for table in base for prefixes in tables]
            place = [p * r for p, r in zip(place, radices)]
        return tables

    def walk(self, strategy: Strategy) -> tuple[int, Iterator[tuple], Iterator[bool]]:
        """The column walk of the module docstring, in itertools.product
        order (the last round fastest), not the codec's.  Strategy.columns
        raises IncompleteStrategyError, before walking, naming the first
        player whose table misses a question of the n-fold base domain."""
        base, n = self.base, self.n
        answers = strategy.columns(
            [itertools.product(base.question_domain(j), repeat=n) for j in range(self.k)],
            [itertools.product(column, repeat=n) for column in zip(*base.support)])
        wins = map(all, map(map, itertools.repeat(self._round_predicate),
                            itertools.product(base.support, repeat=n),
                            map(zip, *answers)))
        base_scale, base_ints = base.scaled_weights()
        return base_scale ** n, itertools.product(base_ints, repeat=n), wins

    def value_bound(self, budget: int) -> Fraction:
        """The base game's value, which no repetition exceeds (see the
        module docstring); one exact_value of the base game under budget."""
        return exact_value(self.base, budget).value

    def question_domain(self, player: int) -> list:
        """The n-fold product of the base domain: the repeated support is the
        full product of base rounds, so every such tuple occurs."""
        return list(ProductTuples(self.base.question_domain(player), self.n))

    def __repr__(self) -> str:
        return f"RepeatedGame(base={self.base!r}, n={self.n})"


def repeat(game: Game, n: int) -> RepeatedGame:
    """The n-fold repetition of game.

    Construction is lazy, but refuses instances whose support or any single
    alphabet codec.oversize rejects under TUPLE_BUDGET, since every consumer
    of the result eventually walks those sequences, and a game of no
    players, whose rounds have no column to zip.
    """
    if n < 1:
        raise ValueError("repetition count must be >= 1")
    if not game.k:
        raise ValueError("a game of no players cannot be repeated")
    for size in map(len, (game.support, *game.question_alphabets,
                           *game.answer_alphabets)):
        if reason := oversize(size, n, TUPLE_BUDGET):
            raise BudgetExceededError(reason)
    return RepeatedGame(game, n)


def independent_strategy(strategy: Strategy, n: int) -> Strategy:
    """Play a base strategy independently in each of n rounds.

    The resulting tables are total on the n-fold product of each base table's
    domain, so the strategy is valid for repeat(g, n) whenever the base
    strategy is valid for g.  Its winning probability factorises across
    rounds; in particular it attains value(g)**n when the base strategy is
    optimal, the generic lower bound for repeated values.
    """
    tables = []
    for table in strategy.tables:
        domain = ProductTuples(list(table.keys()), n)
        new = {}
        for xs in domain:
            new[xs] = tuple(table[x] for x in xs)
        tables.append(new)
    return Strategy(tuple(tables))
