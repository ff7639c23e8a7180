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
lex probe looks for before anything else runs.  The repeated support is the
full product of base rounds under product weights, so val(G^n) <= val(G):
fix the questions of every round but one, and each player's answers in that
round depend on their own question in it alone, a strategy of G, which wins
that round, and so every round, with probability at most val(G); average
over the fixed rounds.
evaluate and forbidden.winning_points re-check a strategy through
RepeatedGame.walk, which gives each repeated tuple's win flag in
itertools.product order, the last round fastest: a sum does not see the
order, and winning_points sorts only its winners back.  A tuple wins when
the base predicate accepts every round, its answers zipped per round as the
repeated predicate zips them, and its weight's factors are its rounds' base
ints, which evaluate multiplies out for the winners alone.  The walk reads
the base support, weights and predicate and the strategy's tables, never
coded_support or acceptance, so the re-check stays independent of what the
search read.  It reads the tables through Strategy.columns, as a plain
game's walk does, with the n-fold base domains as the domains: the full
product of rounds asks every question of them, so a table that misses one
is refused before the base predicate is asked anything.
From LANE_MIN_TUPLES repeated tuples on, when a round's key s + q * c (s
the round's base support index, c the TupleCodec code of its answer
combination over the base answer alphabets) fits in a byte, the walk
decides the rounds in byte lanes.  Each answer of a player's table becomes
n bytes, its base answer positions round by round.  Pulled back along the
player's column of the base support, one round at a time from the last,
the answers form the player's lane, n bytes per repeated tuple in walk
order, in about d**n joins for a base domain of d questions.  The support
lane holds each round's base support index in the same layout; it and the
lanes times their players' strides add up, as big ints and without a
carry, to every round's key at once; one bytes.translate through
a 256-byte verdict table, built once per game, decides every round, and
the AND of the n round slices gives the flags.  An answer that is not an
n-tuple over its player's base alphabet, a key past a byte or a smaller
support takes the per-tuple walk, a column walk made of itertools products
and C-level maps: per player, the question tuples are the n-fold product
of the player's column of the base support, and the answers their lookups
in the table.  Both ask the base predicate through one memo bounded at
PREDICATE_MEMO entries, which the repeated predicate shares: the per-tuple
walk once per distinct round, the verdict table once per entry.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from array import array
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

from .codec import TUPLE_BUDGET, ProductTuples, TupleCodec, oversize
from .errors import BudgetExceededError
from .games import Game, Strategy, exact_value

# distinct base rounds a repeated predicate remembers the base verdict of
PREDICATE_MEMO = 1 << 14
# repeated support size from which walk decides its rounds in byte lanes
LANE_MIN_TUPLES = 64


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

    def walk(self, strategy: Strategy) -> tuple[int, Iterator[tuple], Iterable[int]]:
        """The support as evaluate reads it, in itertools.product order (the
        last round fastest), not the codec's: (scale, factors, wins), with
        factors each tuple's rounds' base ints and wins its 0/1 flags.  The
        byte lanes of the module docstring decide every round at once when
        _lane_plan allows them and every answer read is an n-tuple over its
        player's base alphabet; any other walk is _tuple_walk.  Either way
        Strategy.columns raises IncompleteStrategyError, before the base
        predicate is asked anything, naming the first player whose table
        misses a question of the n-fold base domain."""
        plan = self._lane_plan
        if plan is None:
            return self._tuple_walk(strategy)
        n, size = self.n, len(self.support)
        key, players = plan
        answers = strategy.columns(
            [itertools.product(domain, repeat=n) for domain, *_ in players],
            [itertools.product(domain, repeat=n) for domain, *_ in players])
        for column, (domain, place, pick, stride) in zip(answers, players):
            column = list(column)
            try:
                if set(map(len, column)) != {n}:
                    return self._tuple_walk(strategy)
                codes = bytes(map(place.__getitem__, itertools.chain.from_iterable(column)))
            except (KeyError, TypeError):
                return self._tuple_walk(strategy)
            # pull the answers back along the support column, last round first
            blocks, d = [codes[i:i + n] for i in range(0, len(codes), n)], len(domain)
            for _ in range(n):
                blocks = [b"".join(pick(blocks[i:i + d])) for i in range(0, len(blocks), d)]
            key += stride * int.from_bytes(blocks[0], "little")
        verdicts = key.to_bytes(n * size, "little").translate(self._verdicts)
        wins = functools.reduce(operator.and_, (int.from_bytes(verdicts[r::n], "little")
                                               for r in range(n)))
        base_scale, base_ints = self.base.scaled_weights()
        return (base_scale ** n, itertools.product(base_ints, repeat=n),
                wins.to_bytes(size, "little"))

    @functools.cached_property
    def _lane_plan(self) -> tuple[int, list[tuple]] | None:
        """What the lanes read of the base game whatever the strategy, or
        None when the walk goes per tuple: the support lane as an int, and
        per player their base question domain, the positions of their base
        answer alphabet, the getter of their column of the base support as
        domain positions, and the stride of their answer position in a key.
        It asks the base predicate nothing, so a refusal still comes first."""
        base, n, q = self.base, self.n, len(self.base.support)
        radices = [len(a) for a in base.answer_alphabets]
        if q ** n < LANE_MIN_TUPLES or q * math.prod(radices) > 256:
            return None
        lane = bytearray(n * q ** n)
        for r in range(n):
            lane[r::n] = b"".join(bytes([s]) * q ** (n - 1 - r) for s in range(q)) * q ** r
        players, stride = [], q
        for j, (alphabet, radix) in enumerate(zip(base.answer_alphabets, radices)):
            domain = base.question_domain(j)
            where = {x: i for i, x in enumerate(domain)}
            players.append((domain, {a: i for i, a in enumerate(alphabet)},
                            operator.itemgetter(*[where[x[j]] for x in base.support]), stride))
            stride *= radix
        return int.from_bytes(lane, "little"), players

    @functools.cached_property
    def _verdicts(self) -> bytes:
        """The lanes' verdict table: at key s + q * c, whether the base
        predicate accepts base support tuple s under the answer combination
        whose TupleCodec code over the base answer alphabets is c.  It asks
        the round memo, so the base predicate once per entry at most."""
        base, q = self.base, len(self.base.support)
        table = bytearray(256)
        for code, answers in enumerate(TupleCodec(base.answer_alphabets)):
            for s, x in enumerate(base.support):
                table[s + q * code] = bool(self._round_predicate(x, answers))
        return bytes(table)

    def _tuple_walk(self, strategy: Strategy) -> tuple[int, Iterator[tuple], Iterator[bool]]:
        """The column walk of the module docstring, per repeated tuple, in
        itertools.product order (the last round fastest), not the codec's.
        Strategy.columns raises IncompleteStrategyError, before walking,
        naming the first player whose table misses a question of the n-fold
        base domain."""
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
