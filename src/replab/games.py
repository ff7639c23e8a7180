"""Finite k-player cooperative games and their exact values.

A game consists of per-player question and answer alphabets, a rational
probability distribution over a support of question tuples, and a win
predicate.  Players answer through deterministic strategies (one table per
player, no communication); the value of the game is the maximum winning
probability over product strategies.  All probabilities are Fractions, so
every reported value is exact.

exact_value runs a branch and bound over the joint strategy space, pruning
a branch as soon as the weight already lost makes the incumbent unbeatable,
and stopping at the first leaf that reaches Game.value_bound, an upper bound
on the value: 1 for a plain game, the base game's value for a repeated one
(repetition module).  Below 1, a lex probe runs first: the search in
canonical order (players ascending, questions in alphabet order, answers in
alphabet order) with the bound as its cutoff.  No leaf beats the bound, so
the first leaf that reaches it is the lexicographically first maximiser,
and a repeated game that keeps its base value is solved by that one walk.
At bound 1, or when no leaf reaches the bound, two phases run: phase one
finds the optimal winning probability over a cell order that completes
support tuples early, and phase two re-walks the space in canonical order,
on the probe's tables when it ran, and returns the first strategy attaining
the optimum.  A leaf above the bound, in the probe or in phase one, raises
AssertionError; a bound below the optimum that some leaf reaches exactly
cannot show, so the bound is trusted as the pruning is.

The search reads ints only.  Per support tuple, Game.coded_support gives
its weight over one common denominator (Game.scaled_weights), turned back
into a Fraction only for the result, and each player's position in
question_domain; a cell (player, question) is then one number, and no
question tuple is hashed.  It checks forward: from each support tuple's
table of accepted answer combinations (Game.acceptance) it precomputes, for
each of the tuple's cells in search order, which answers so far no accepted
combination starts with, and counts the tuple's weight as lost at the first
cell where that happens.  A lost prefix loses under every completion, so the
optimum and the lex-first strategy are those of scoring each tuple at its
last cell.  It also looks ahead, as the partial forward checking of Max-CSP
does (Freuder & Wallace, Partial constraint satisfaction, AI 58, 1992): a
tuple's check at a later cell is released once its earlier cells are all
answered, and a branch is bounded by the weight lost so far plus, for every
cell further down the order, the least weight that any answer there loses
under the checks released so far.  Each tuple counts at one cell at most,
so no completion loses less than that bound, and only node counts depend on
it.  A predicate that lists the answer tuples it accepts on a support
tuple (an accepted method, which the answer game's predicate has) gives the
tables straight from those lists; any other is called on support x answer
combinations.  Either way the table work counts against the same budget as
the strategy space.  A tuple that accepts no combination at all is settled
before any search: every strategy loses its weight, so each search starts
with that weight lost, and the tables hold only the other tuples.  A
repeated game builds its tables and its coded support as round-by-round
products of its base game's, without calling the predicate or forming a
question tuple.  The search is a loop over per-depth arrays, so its depth
is bounded by memory, not by Python's recursion limit.  The strategy found
is re-checked by attains, which a value record's --recheck also runs: every
answer lies in its player's alphabet, and evaluate gives the value.
evaluate sums the weights of the support tuples that Game.walk says the
strategy wins: a plain game calls the predicate on each question tuple of
its support, and a repeated game decides its rounds from its base game's
columns: in byte lanes, through one verdict table of the base predicate
per game, or round by round for a small support or answers that do not fit
the lanes (repetition module).  Both read the strategy through
Strategy.columns, which checks every table against the player's questions
before the first lookup, so a missing answer is refused in one place by one
rule.  Neither walk reads the coded support or the tables, so the re-check
shares nothing the search read, and a fault there shows up as a mismatch.
The presets' question supports (unit_tuples, grid_question_set), refused
past codec.TUPLE_BUDGET before they are built, and the answer game's
predicate live here.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .codec import TUPLE_BUDGET, TupleCodec, from_jsonable, oversize, to_jsonable
from .errors import BudgetExceededError, IncompleteStrategyError, SchemaError
from .fields import FiniteField

DEFAULT_STRATEGY_BUDGET = 10**8


@dataclass(frozen=True, eq=True)
class Strategy:
    """One answer table per player, mapping each question to an answer."""

    tables: tuple[Mapping, ...]

    def columns(self, domains: Sequence[Iterable], questions: Sequence[Iterable]) -> list[Iterator]:
        """Per player j, the lazy lookups of questions[j] in their table.
        Raises IncompleteStrategyError, before any lookup, naming the first
        player whose table misses a question of domains[j], and the first
        such question; a missing table counts as empty, and tables past the
        last domain are ignored."""
        tables = [*self.tables, *[{}] * (len(domains) - len(self.tables))]
        for j, (table, domain) in enumerate(zip(tables, domains)):
            for missing in itertools.filterfalse(table.__contains__, domain):
                raise IncompleteStrategyError(
                    f"player {j} has no answer for question {missing!r}")
        return [map(table.__getitem__, column) for table, column in zip(tables, questions)]

    @staticmethod
    def from_tables(tables: Sequence[Mapping]) -> "Strategy":
        return Strategy(tuple(dict(t) for t in tables))


def _alphabet(symbols) -> tuple:
    """symbols as a tuple, or SchemaError unless they are a sequence (not a
    string) of hashable symbols."""
    if isinstance(symbols, str) or not isinstance(symbols, Sequence):
        raise SchemaError(f"alphabet {symbols!r} is not a sequence of symbols")
    for sym in symbols:
        try:
            hash(sym)
        except TypeError:
            raise SchemaError(f"alphabet symbol {sym!r} is not hashable") from None
    return tuple(symbols)


class Game:
    """A finite k-player game.

    question_alphabets / answer_alphabets: one ordered alphabet of hashable
    symbols per player.  support: distinct question k-tuples with positive
    rational weights summing to one.  predicate(x, a) decides whether answer
    tuple a wins on question tuple x; it must be total on support x answer
    tuples.

    The constructor validates its input and stores it as tuples; a repeated
    game (repetition module) sets lazy sequences of its own instead, so
    that nothing of size alphabet**n is materialised up front.
    predicate_spec optionally carries a JSON-serialisable description of the
    predicate for round-tripping through game files.
    """

    def __init__(self, question_alphabets, answer_alphabets, support, weights,
                 predicate: Callable[[tuple, tuple], bool],
                 predicate_spec: dict | None = None):
        self.question_alphabets = tuple(map(_alphabet, question_alphabets))
        self.answer_alphabets = tuple(map(_alphabet, answer_alphabets))
        self.support = tuple(map(tuple, support))
        self.weights = tuple(map(Fraction, weights))
        self.predicate = predicate
        self.predicate_spec = predicate_spec
        self.k = len(self.question_alphabets)
        self._validate()

    def _validate(self) -> None:
        if len(self.answer_alphabets) != self.k:
            raise SchemaError("question and answer alphabets disagree on player count")
        if len(self.support) != len(self.weights):
            raise SchemaError("support and weights must have equal length")
        if not self.support:
            raise SchemaError("support must be non-empty")
        seen = set()
        for x in self.support:
            if len(x) != self.k:
                raise SchemaError(f"support tuple {x!r} is not a {self.k}-tuple")
            for j, sym in enumerate(x):
                if sym not in self.question_alphabets[j]:
                    raise SchemaError(f"symbol {sym!r} not in player {j} question alphabet")
            if x in seen:
                raise SchemaError(f"duplicate support tuple {x!r}")
            seen.add(x)
        for w in self.weights:
            if w <= 0:
                raise SchemaError("support weights must be positive")
        if sum(self.weights) != 1:
            raise SchemaError("support weights must sum to 1")

    def scaled_weights(self) -> tuple[int, Sequence[int]]:
        """The weights over one common denominator: (scale, ints) with
        weights[i] == Fraction(ints[i], scale)."""
        weights = list(self.weights)
        scale = math.lcm(*(w.denominator for w in weights))
        return scale, [w.numerator * (scale // w.denominator) for w in weights]

    def coded_support(self) -> tuple[int, Sequence[int], list[Sequence[int]]]:
        """The support as exact_value's search reads it: (scale, weights,
        positions), with weights the ints of scaled_weights() and
        positions[j][i] the position of support tuple i's question to player
        j in question_domain(j), both in support order."""
        scale, weights = self.scaled_weights()
        places = [{q: pos for pos, q in enumerate(self.question_domain(j))}
                  for j in range(self.k)]
        return scale, list(weights), [[place[x[j]] for x in self.support]
                                      for j, place in enumerate(places)]

    def acceptance(self) -> list[frozenset[tuple[int, ...]]]:
        """Per support tuple, in support order, the answer combinations the
        predicate accepts, each a tuple of per-player answer positions.

        A predicate with an accepted(x) method, listing the answer tuples it
        accepts on x, is read through it: a listed answer stands for every
        position of its alphabet that holds it, and for none when it lies
        outside.  Any other predicate is called on every combination."""
        accepted = getattr(self.predicate, "accepted", None)
        if accepted is None:
            positions = TupleCodec([range(len(a)) for a in self.answer_alphabets])
            answers = TupleCodec(self.answer_alphabets)
            return [frozenset(combo for combo, a in zip(positions, answers)
                              if self.predicate(x, a))
                    for x in self.support]
        places: list[dict] = [{} for _ in self.answer_alphabets]
        for place, alphabet in zip(places, self.answer_alphabets):
            for pos, a in enumerate(alphabet):
                place.setdefault(a, []).append(pos)
        return [frozenset(itertools.chain.from_iterable(
                    itertools.product(*(place.get(a, ()) for place, a in zip(places, answers)))
                    for answers in accepted(x)))
                for x in self.support]

    def walk(self, strategy: Strategy) -> tuple[int, Iterable[tuple], Iterable[bool]]:
        """The support as evaluate reads it: (scale, factors, wins), with
        factors the 1-tuples of scaled_weights()'s ints and wins whether the
        predicate accepts the strategy's answers, both in support order.
        The answers are Strategy.columns of the support's own columns, so a
        missing answer raises IncompleteStrategyError before the walk."""
        scale, ints = self.scaled_weights()
        columns = list(zip(*self.support))
        # a game of no players has no column to zip, and answers () to its one tuple
        answers = zip(*strategy.columns(columns, columns)) if self.k else [()]
        return scale, zip(ints), map(self.predicate, self.support, answers)

    def value_bound(self, budget: int) -> Fraction:
        """An upper bound on the game's value, at which exact_value's
        searches stop: 1 for a plain game.  Below 1, exact_value first
        looks for a strategy in lex order that reaches it.  budget bounds
        any search the bound itself needs."""
        return Fraction(1)

    def question_domain(self, player: int) -> list:
        """Questions player may receive, in alphabet order."""
        seen = {x[player] for x in self.support}
        return [s for s in self.question_alphabets[player] if s in seen]

    def __repr__(self) -> str:
        return f"Game(k={self.k}, support={len(self.support)})"


@dataclass(frozen=True)
class GameValue:
    value: Fraction
    strategy: Strategy


def evaluate(game: Game, strategy: Strategy) -> Fraction:
    """Exact winning probability of a product strategy: the game's scaled
    int weights, products of Game.walk's factors, summed over the support
    tuples its predicate accepts, as one Fraction.  It reads Game.walk,
    never the search's coded support or acceptance tables."""
    scale, factors, wins = game.walk(strategy)
    return Fraction(sum(map(math.prod, itertools.compress(factors, wins))), scale)


def attains(game: Game, strategy: Strategy, value: Fraction) -> bool:
    """Whether the strategy certifies value for the game: every answer lies
    in its player's answer alphabet, so that a repeated answer with the
    wrong number of rounds is no strategy of the game, and evaluate gives
    exactly value."""
    fits = all(a in alphabet for table, alphabet in
               zip(strategy.tables, game.answer_alphabets) for a in table.values())
    return fits and evaluate(game, strategy) == value


def search_domains(game: Game, budget: int) -> list[list]:
    """Each player's question domain, once exact_value's search over them is
    within budget: BudgetExceededError when the joint strategy space, or the
    support size times the answer combinations (the table work), exceeds it."""
    domains = [game.question_domain(j) for j in range(game.k)]
    sizes = [len(a) for a in game.answer_alphabets]
    space = 1
    for j in range(game.k):
        if sizes[j] == 0:
            raise SchemaError(f"player {j} has an empty answer alphabet")
        space *= sizes[j] ** len(domains[j])
        if space > budget:
            raise BudgetExceededError(
                f"strategy space exceeds budget {budget}; "
                "raise the budget to force the search")
    combos = math.prod(sizes)
    if len(game.support) * combos > budget:
        raise BudgetExceededError(
            f"{len(game.support)} support tuples x {combos} answer combinations "
            f"exceed budget {budget}; raise the budget to force the search")
    return domains


class _StrategySearch:
    """Shared machinery for exact_value's lex probe and two phases.

    A cell is a pair (player, question), numbered offsets[player] + the
    question's position in the player's domain; a joint strategy is an
    assignment of an answer index to every cell.  The support is read as
    Game.coded_support gives it: an int weight per tuple, from
    game.scaled_weights(), and per player a list of question positions, so
    no question tuple is hashed.  The tuples whose acceptance table is empty
    are settled here: every strategy loses them, and settled is their total
    weight, which run counts as lost from the start.  Any other tuple's
    weight counts as lost at the first of its cells whose assigned answers
    no accepted answer combination starts with.  nodes counts the depths
    the searches visit, leaves included.
    """

    def __init__(self, game: Game, budget: int):
        self.domains = search_domains(game, budget)
        self.k = game.k
        self.scale, self.weights, self.positions = game.coded_support()
        self.total = sum(self.weights)
        self.nodes = 0
        self.answers = [list(a) for a in game.answer_alphabets]
        self.sizes = [len(a) for a in self.answers]
        self.offsets = list(itertools.accumulate(map(len, self.domains), initial=0))
        self.player = [j for j, domain in enumerate(self.domains) for _ in domain]
        accept = game.acceptance()
        # the tuples that accept some combination; the others are settled
        self._live = list(map(bool, accept))
        self._accept = list(filter(None, accept))
        self.settled = self.total - sum(itertools.compress(self.weights, self._live))

    def cells_lex(self) -> range:
        return range(len(self.player))

    def cells_by_first_use(self) -> list[int]:
        """The cells in the order the support tuples first use them, players
        ascending within a tuple."""
        uses = []
        for j, (offset, column) in enumerate(zip(self.offsets, self.positions)):
            # walked backwards, so the first use is the one written last
            first = dict(zip(reversed(column), range(len(column) - 1, -1, -1)))
            uses.extend((i, j, offset + pos) for pos, i in first.items())
        return [cell for _, _, cell in sorted(uses)]

    def _losses(self, cells: Sequence[int]):
        """Where each live support tuple's weight is lost, for one cell
        order: the tuples that accept some combination, their positions,
        weights and tables compressed before any depth is mapped, as the
        settled ones lose the same weight at every depth.  exact_value
        builds them once per cell order.

        Returns two per-depth lists.  static[c][pos] is the weight lost by
        answering pos at depth c whatever was answered before: tuples whose
        first cell is at c and that accept no combination starting with pos.
        released[r] lists the checks that the answer at depth r releases,
        as (c, getter, table): per later depth c and set of earlier depths
        of tuples with a cell at c, r the largest of those earlier depths,
        getter reads the answers at them and table maps those answers to
        the weight lost by each pos at c.  A table holds only answers that
        some accepted combination starts with and that leave some pos with
        none, so a tuple's weight counts at one depth at most.
        """
        depth = [0] * len(cells)
        for c, cell in enumerate(cells):
            depth[cell] = c
        # per player, the depth of each question position
        depth_of = [depth[lo:hi] for lo, hi in itertools.pairwise(self.offsets)]
        # per player, the depth of each live tuple's cell
        columns = [list(map(d.__getitem__, itertools.compress(column, self._live)))
                   for d, column in zip(depth_of, self.positions)]
        sizes_at = [self.sizes[self.player[cell]] for cell in cells]
        static = [[0] * s for s in sizes_at]
        # per (later depth, earlier depths), the tables of its tuples
        checks: dict[tuple, dict] = {}
        weights = itertools.compress(self.weights, self._live)
        for by_player, w, acc in zip(zip(*columns), weights, self._accept):
            order = sorted(range(self.k), key=by_player.__getitem__)
            at = [by_player[j] for j in order]
            first = {combo[order[0]] for combo in acc}
            for pos, lost in enumerate(static[at[0]]):
                if pos not in first:
                    static[at[0]][pos] = lost + w
            for s in range(1, self.k):
                # answers at the earlier cells (a scalar for one cell, as
                # itemgetter returns) -> the answers at cell at[s] that
                # some accepted combination continues with
                earlier = operator.itemgetter(*order[:s])
                allowed: dict = {}
                for combo in acc:
                    allowed.setdefault(earlier(combo), set()).add(combo[order[s]])
                size = sizes_at[at[s]]
                tables = checks.setdefault((at[s], tuple(at[:s])), {})
                for key, ok in allowed.items():
                    if len(ok) < size:
                        vec = tables.setdefault(key, [0] * size)
                        for pos in range(size):
                            if pos not in ok:
                                vec[pos] += w
        released: list[list] = [[] for _ in cells]
        for (c, prev), tables in checks.items():
            if tables:
                released[prev[-1]].append((c, operator.itemgetter(*prev), tables))
        return static, released

    def run(self, losses: tuple[list, list], cutoff: Fraction,
            stop: Fraction) -> tuple[Fraction, list[int] | None]:
        """Branch and bound over one cell order, given as its _losses tables.

        Prunes any branch whose lost weight exceeds total - cutoff, counting
        ahead: a branch at depth c has lost the settled weight and the
        weight before c, what its answer at c loses, and at least the least
        loss of every later depth.  The incumbent is raised as better leaves
        appear and branches that cannot beat it are pruned; the search ends
        at the first leaf worth at least stop, or once every branch is
        pruned.  Returns the best value with its assignment, None when no
        leaf reaches cutoff.  With stop = cutoff = the optimum, that is the
        first leaf attaining it.

        cur[d] is depth d's loss vector so far: static[d] plus the checks
        into d released by the answers assigned, each read at them.
        Entering depth c adds those released at c - 1, logging each vector
        and least entry it replaces, and backing up past c restores them in
        reverse, since two checks released together may target one depth.
        On entering c, cur[c] is the whole loss vector of its answers, and
        a later depth's least entry can only grow, so the bound is sound:
        _losses counts each tuple at one depth, and no check left to
        release lowers any.
        """
        # per depth: its loss vector so far, static at first, and that
        # vector's least entry.  A run that ends short of stop has backed
        # up past every depth and restored every vector, so exact_value's
        # phase two can reuse the tables of a probe that found no leaf
        cur, released = losses
        ncells = len(cur)
        low = list(map(min, cur))
        # entering depth c releases the checks of depth c - 1
        releases = [(), *released]
        # per depth: the answer chosen, the weight lost before it, its loss
        # vector's (answer, loss) pairs not yet tried, the sum of the least
        # losses of the later depths and the log's length before its releases
        assign = [0] * ncells
        lost = [0] * ncells
        untried: list = [None] * ncells
        ahead = [0] * ncells
        marks = [0] * ncells
        # (depth, vector, least entry) replaced by a release, in order
        log: list[tuple] = []
        # the least losses summed over depth ci and later ones
        rest = sum(low)
        # the most weight a branch may lose and still be searched
        slack = self.total - int(cutoff * self.scale)
        best = cutoff
        best_assign: list[int] | None = None
        nodes = 0
        ci = 0
        so_far = self.settled
        while True:
            # enter depth ci, having lost so_far
            nodes += 1
            if ci == ncells:
                best_assign = assign.copy()
                best = Fraction(self.total - so_far, self.scale)
                if best >= stop:
                    break
                slack = so_far - 1
            else:
                marks[ci] = len(log)
                for c, earlier, table in releases[ci]:
                    vec = table.get(earlier(assign))
                    if vec is not None:
                        old, least = cur[c], low[c]
                        log.append((c, old, least))
                        cur[c] = new = list(map(operator.add, old, vec))
                        low[c] = min(new)
                        rest += low[c] - least
                ahead[ci] = rest = rest - low[ci]
                lost[ci] = so_far
                untried[ci] = enumerate(cur[ci])
                ci += 1
            # back up to the deepest depth with an answer left within slack
            while ci:
                ci -= 1
                so_far = lost[ci]
                room = slack - so_far - ahead[ci]
                for pos, more in untried[ci]:
                    if more <= room:
                        break
                else:
                    # undo depth ci's releases, the last first
                    for _ in range(len(log) - marks[ci]):
                        c, cur[c], low[c] = log.pop()
                    continue
                assign[ci] = pos
                so_far += more
                rest = ahead[ci]
                ci += 1
                break
            else:
                break
        self.nodes += nodes
        return best, best_assign

    def strategy_from(self, cells: Sequence[int], assign: list[int]) -> Strategy:
        tables: list[dict] = [dict() for _ in range(self.k)]
        for cell, pos in zip(cells, assign):
            j = self.player[cell]
            tables[j][self.domains[j][cell - self.offsets[j]]] = self.answers[j][pos]
        return Strategy.from_tables(tables)


def exact_value(game: Game, budget: int = DEFAULT_STRATEGY_BUDGET) -> GameValue:
    """Exact game value and the lexicographically first optimal strategy.

    The strategy order is: players ascending, each player's questions in
    alphabet order, answers compared by alphabet position.  When
    game.value_bound is below 1, the lex probe searches that order for a
    leaf reaching the bound and returns the first it finds; only when none
    does, and always at bound 1, phase one finds the optimum in first-use
    order and phase two the first leaf in lex order attaining it (module
    docstring).  Each cell order's tables are built once, and phase one's
    are dropped before phase two.  Raises BudgetExceededError as
    search_domains does.
    """
    # built first, so that its budget refusal comes before any work,
    # a repeated game's base solve included
    search = _StrategySearch(game, budget)
    bound = game.value_bound(budget)
    cells = search.cells_lex()
    lex = assign = None
    if bound < 1:
        # the probe: no leaf beats the bound, so the first leaf in canonical
        # order that reaches it is the lex-first optimum
        lex = search._losses(cells)
        optimum, assign = search.run(lex, bound, bound)
    if assign is None:
        # phase one: optimum value, over a cell order that completes support
        # tuples early so losses prune aggressively, ending at a leaf that
        # reaches the bound; its tables go before phase two builds or reuses
        # the lex ones
        optimum, _ = search.run(search._losses(search.cells_by_first_use()),
                                Fraction(0), bound)
    # explicit raises, not asserts, so that python -O keeps the checks
    if optimum > bound:
        raise AssertionError("phase one must not exceed the value bound")
    if assign is None:
        # phase two: first leaf in canonical order reaching the optimum
        _, assign = search.run(search._losses(cells) if lex is None else lex,
                               optimum, optimum)
        if assign is None:
            raise AssertionError("phase two must rediscover the optimum")
    strategy = search.strategy_from(cells, assign)
    if not attains(game, strategy, optimum):
        raise AssertionError("reconstructed strategy must attain the optimum")
    return GameValue(value=optimum, strategy=strategy)


# -- presets ---------------------------------------------------------------


def _anticorr_predicate(x: tuple, a: tuple) -> bool:
    hot = [a[j] for j in range(len(x)) if x[j] == 0]
    return len(set(hot)) == len(hot)


def _always_reject(x: tuple, a: tuple) -> bool:
    return False


def _refuse_oversize(size: int, n: int) -> None:
    """BudgetExceededError, before anything is built, when size**n exceeds
    TUPLE_BUDGET."""
    if reason := oversize(size, n, TUPLE_BUDGET):
        raise BudgetExceededError(reason)


def unit_tuples(q: int) -> tuple[tuple[int, ...], ...]:
    """The q question tuples (1,0,..,0), (0,1,0,..,0), .., (0,..,0,1); their
    q**2 entries are refused past TUPLE_BUDGET."""
    _refuse_oversize(q, 2)
    return tuple(tuple(1 if j == s else 0 for j in range(q)) for s in range(q))


def grid_question_set(field: FiniteField, k: int) -> tuple[tuple[int, ...], ...]:
    """The question support tying grid density to repeated game values.

    k + r players over GF(p**r): the first k players receive arbitrary field
    elements x_1 .. x_k and the last r players receive g * x_1 + x_2 + ..
    + x_k, one per additive generator g.  For GF(2) with k = 2 this is the
    even-parity triple support.  Requires k >= 2, which makes the projected
    graph complete multipartite and in particular connected.  Its |F|**k
    tuples are refused past TUPLE_BUDGET.
    """
    if k < 2:
        raise ValueError("the grid question set needs k >= 2")
    _refuse_oversize(len(field.elements), k)
    gens = field.additive_generators()
    support = []
    for x in itertools.product(field.elements, repeat=k):
        tail = []
        for g in gens:
            acc = field.mul(g, x[0])
            for v in x[1:]:
                acc = field.add(acc, v)
            tail.append(acc)
        support.append(tuple(x) + tuple(tail))
    return tuple(support)


def answer_game_predicate(support: Sequence[tuple], n: int,
                          free_points: Iterable[Sequence[int]]):
    """Predicate of the answer game: every player names the same coordinate
    i and a full question vector; the named vectors must assemble to a point
    of the free set whose coordinate-i column is the question actually
    asked.

    Its accepted(x) lists the answer tuples it accepts on support tuple x,
    for Game.acceptance: for each free point w of n support indices and
    each round i with support[w[i]] == x, player j answers (i, (support[
    w[0]][j], .., support[w[n-1]][j])).  The lists are built on the first
    call, so a malformed game is refused by Game's checks before they are.
    A support of no players is refused: there is no player to name i.
    """
    if not all(map(len, support)):
        raise ValueError("an answer game needs at least one player")
    support_pos = {tuple(x): s for s, x in enumerate(support)}
    wset = {tuple(int(v) for v in w) for w in free_points}

    def predicate(x, a):
        i0 = a[0][0]
        if any(aj[0] != i0 for aj in a):
            return False
        vec = []
        for m in range(n):
            s = support_pos.get(tuple(aj[1][m] for aj in a))
            if s is None:
                return False
            vec.append(s)
        if tuple(vec) not in wset:
            return False
        return tuple(aj[1][i0] for aj in a) == tuple(x)

    @functools.cache
    def by_index() -> dict[int, list[tuple]]:
        groups: dict[int, list[tuple]] = {}
        for w in wset:
            if len(w) == n and all(s in range(len(support)) for s in w):
                # per player, their question in each round
                rows = tuple(zip(*(support[s] for s in w)))
                for i, s in enumerate(w):
                    groups.setdefault(s, []).append(tuple((i, row) for row in rows))
        return groups

    predicate.accepted = lambda x: by_index().get(support_pos.get(tuple(x)), ())
    return predicate


# each built-in game family's parameters, with their defaults
PRESETS = {"anticorr": {"q": 3}, "unitvec": {"q": 3}, "ghz": {},
           "grid": {"p": 2, "r": 1, "k": 2}}


def preset_game(name: str, **params) -> Game:
    """Built-in game families, each taking the parameters PRESETS lists and
    refusing any other.

    anticorr(q): q players, uniform over the unit question tuples; the
        players receiving 0 must produce pairwise different answers in
        {0, 1}.  At q = 3 (two zero-receivers per question) the value is
        2/3; at q = 2 the condition is vacuous and the value is 1.
    unitvec(q): the same question support with a placeholder always-reject
        predicate; useful as a bare question set.
    ghz: 3 players, questions the even-parity bit triples, placeholder
        predicate: the grid game with p = 2, r = 1 and k = 2.
    grid(p, r, k): k+r players with the grid question set over GF(p**r),
        placeholder predicate.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    if unknown := [p for p in params if p not in PRESETS[name]]:
        raise ValueError(f"preset {name} does not take {', '.join(unknown)}; "
                         f"it takes {', '.join(PRESETS[name]) or 'no parameters'}")
    params = {p: int(params.get(p, default)) for p, default in PRESETS[name].items()}
    if name == "anticorr":
        q = params["q"]
        if q < 2:
            raise ValueError("anticorr needs q >= 2")
        support = unit_tuples(q)
        return Game(
            question_alphabets=((0, 1),) * q,
            answer_alphabets=((0, 1),) * q,
            support=support,
            weights=(Fraction(1, q),) * q,
            predicate=_anticorr_predicate,
            predicate_spec={"type": "preset", "name": "anticorr", "params": {"q": q}},
        )
    if name == "unitvec":
        q = params["q"]
        if q < 1:
            raise ValueError("unitvec needs q >= 1")
        return _question_set(((0, 1),) * q, unit_tuples(q))
    if name == "ghz":
        params = {"p": 2, "r": 1, "k": 2}
    field = FiniteField(params["p"], params["r"])
    return _question_set((tuple(field.elements),) * (params["k"] + params["r"]),
                         grid_question_set(field, params["k"]))


def _question_set(question_alphabets: tuple, support: Sequence[tuple]) -> Game:
    """A bare question set: uniform weights over the support, the single
    answer 0 for every player and the always-reject placeholder predicate."""
    return Game(
        question_alphabets=question_alphabets,
        answer_alphabets=((0,),) * len(question_alphabets),
        support=support,
        weights=(Fraction(1, len(support)),) * len(support),
        predicate=_always_reject,
        predicate_spec={"type": "preset", "name": "allreject"},
    )


# -- JSON round-tripping -----------------------------------------------------


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational literal {text!r}") from exc


_TABLE_EXPORT_LIMIT = 1 << 24


def game_to_json(game: Game) -> dict:
    """JSON-serialisable description of a game.

    Predicates described by a predicate_spec are exported as-is; otherwise a
    dense accept table is enumerated, provided support x answers stays under
    the export limit.
    """
    doc = {
        "k": game.k,
        "question_alphabets": [to_jsonable(tuple(a)) for a in game.question_alphabets],
        "answer_alphabets": [to_jsonable(tuple(a)) for a in game.answer_alphabets],
        "support": [
            {"x": to_jsonable(x), "weight": str(w)}
            for x, w in zip(game.support, game.weights)
        ],
    }
    if game.predicate_spec is not None:
        doc["predicate"] = game.predicate_spec
    else:
        answers = TupleCodec(game.answer_alphabets)
        if answers.size * len(game.support) > _TABLE_EXPORT_LIMIT:
            raise SchemaError("predicate has no spec and is too large to tabulate")
        accepts = [[xi, ai] for xi, x in enumerate(game.support)
                   for ai, a in enumerate(answers) if game.predicate(x, a)]
        doc["predicate"] = {"type": "table", "accepts": accepts}
    return doc


def predicate_from_spec(spec: dict, question_alphabets, answer_alphabets,
                        support) -> Callable[[tuple, tuple], bool]:
    """Build a predicate callable from its JSON description."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise SchemaError("predicate spec must be an object with a 'type'")
    ptype = spec["type"]
    if ptype == "table":
        support_pos = {x: i for i, x in enumerate(support)}
        answers = TupleCodec(answer_alphabets)
        encode = answers.encode
        items = spec.get("accepts", [])
        if not isinstance(items, list):
            raise SchemaError("table accepts must be a list")
        accepts = set()
        for item in items:
            if not (isinstance(item, (list, tuple)) and len(item) == 2):
                raise SchemaError("table accepts entries must be [x_index, answer_index]")
            entry = (int(item[0]), int(item[1]))
            if entry[0] not in range(len(support)) or entry[1] not in range(len(answers)):
                raise SchemaError(f"table accepts entry {list(entry)} lies outside the "
                                  f"{len(support)} support tuples or the "
                                  f"{len(answers)} answer tuples")
            accepts.add(entry)

        def table_predicate(x, a):
            xi = support_pos.get(tuple(x))
            if xi is None:
                return False
            try:
                return (xi, encode(a)) in accepts
            except ValueError:
                return False

        return table_predicate
    if ptype == "preset":
        name = spec.get("name")
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise SchemaError("preset params must be an object")
        if name == "anticorr":
            return _anticorr_predicate
        if name == "allreject":
            return _always_reject
        if name == "answer-game":
            if "n" not in params:
                raise SchemaError("the answer-game preset needs params.n")
            n = int(params["n"])
            for answer in itertools.chain.from_iterable(answer_alphabets):
                # the predicate reads answer[1][m] for m < n and answer[1][answer[0]]
                if not (isinstance(answer, tuple) and len(answer) == 2
                        and isinstance(answer[0], int) and 0 <= answer[0] < n
                        and isinstance(answer[1], tuple) and len(answer[1]) == n):
                    raise SchemaError(f"answer-game answers are pairs (i, y) with i in "
                                      f"range({n}) and y of length {n}, got {answer!r}")
            witness = tuple(tuple(int(v) for v in w) for w in params.get("witness", []))
            return answer_game_predicate(support, n, witness)
        raise SchemaError(f"unknown preset predicate {name!r}")
    raise SchemaError(f"unknown predicate type {ptype!r}")


def game_from_json(doc: dict) -> Game:
    """Inverse of game_to_json.  Raises SchemaError on malformed documents."""
    if not isinstance(doc, dict):
        raise SchemaError("game document must be a JSON object")
    for key in ("k", "question_alphabets", "answer_alphabets", "support", "predicate"):
        if key not in doc:
            raise SchemaError(f"game document missing field {key!r}")
    for key in ("question_alphabets", "answer_alphabets", "support"):
        if not isinstance(doc[key], list):
            raise SchemaError(f"game field {key!r} must be a list")
    k = doc["k"]
    qalpha = [from_jsonable(a) for a in doc["question_alphabets"]]
    aalpha = [from_jsonable(a) for a in doc["answer_alphabets"]]
    if len(qalpha) != k or len(aalpha) != k:
        raise SchemaError("alphabet lists must have length k")
    support, weights = [], []
    for item in doc["support"]:
        if not isinstance(item, dict) or "x" not in item or "weight" not in item:
            raise SchemaError("support entries must be objects with 'x' and 'weight'")
        support.append(from_jsonable(item["x"]))
        weights.append(parse_fraction(str(item["weight"])))
    try:
        predicate = predicate_from_spec(doc["predicate"], qalpha, aalpha, support)
        return Game(qalpha, aalpha, support, weights, predicate,
                    predicate_spec=doc["predicate"])
    except SchemaError:
        raise
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed game document: {exc}") from exc


def strategy_to_json(game: Game, strategy: Strategy) -> dict:
    """Per-player answer tables keyed by question, in alphabet order;
    IncompleteStrategyError if a table misses a question."""
    domains = [game.question_domain(j) for j in range(game.k)]
    return {"players": [[{"question": to_jsonable(q), "answer": to_jsonable(a)}
                         for q, a in zip(domain, answers)]
                        for domain, answers in zip(domains, strategy.columns(domains, domains))]}


def strategy_from_json(doc: dict) -> Strategy:
    if not isinstance(doc, dict) or "players" not in doc:
        raise SchemaError("strategy document must contain 'players'")
    tables = []
    try:
        for entries in doc["players"]:
            table = {}
            for item in entries:
                table[from_jsonable(item["question"])] = from_jsonable(item["answer"])
            tables.append(table)
    except (TypeError, KeyError) as exc:
        raise SchemaError(f"malformed strategy 'players' entry: {exc!r}") from exc
    return Strategy.from_tables(tables)
