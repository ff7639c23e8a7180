"""Forbidden configurations in repeated question supports.

Fix a question support Q (an ordered list of distinct k-tuples) and a
repetition count n.  Points of the n-fold support are index vectors
w = (w_0, .., w_{n-1}) with w_m in range(len(Q)); index vectors are ordered
by the little-endian code sum(w_m * q**m) of ProductTuples(range(q), n),
matching the round order of repeated games.

A forbidden configuration at coordinate i is a list of q points e(0), ..,
e(q-1) such that e(s)_i = s for every s, and such that each player's view is
consistent: for every player j, the row vector (Q[e(s)_0][j], ..,
Q[e(s)_{n-1}][j]) depends only on the player's own coordinate-i symbol
Q[s][j].  If a product strategy for the n-fold repetition of a game with
support Q won on all q points of such a configuration, reading off
coordinate i would win the base game with probability one.  Consequently,
winning sets of product strategies are free of forbidden configurations
whenever the base game's value is below one, and the maximum density of a
configuration-free subset of the repeated support bounds every repeated
value from above.

The configurations are built round by round, on one rule: a player who
sees two questions alike sees their images alike.  With agree[s][u] the
mask of the players whose symbols of Q[s] and Q[u] are equal, a map phi
of the support indices is consistent when agree[s][u] lies within
agree[phi(s)][phi(u)] for all s and u.  A configuration pinned at
coordinate i is then exactly one consistent map phi_m for each other
round m, with e(s)_i = s and e(s)_m = phi_m(s).  consistent_maps finds
the maps by a small backtrack, cached per support and per set of allowed
images, and the search below runs a DFS over the rounds m != i that
narrows each edge slot s, starting at the points whose coordinate i is s,
to the points whose coordinate m is phi_m(s), on an explicit stack rather
than Python's.  A coordinate at which the point set misses some symbol is
passed over before any search: a product strategy's winning set misses
one at every coordinate.  On the whole n-fold support no branch is dead.
Each configuration is yielded as the search pins it, so the order is the
order of construction: coordinates ascending, then at each round m the
consistent maps phi_m in lexicographic order.

forbidden_family presents the configurations as one more structure family
on the point codes, built and refused like the line, square, corner and
grid families, and compute_eq solves it by StructureFamily.solve, as they
are.  DEFAULT_CONFIG_BUDGET bounds the maps of one backtrack and the
point sets that one search keeps to drop a configuration found again at a
later coordinate.  The answer game over a free set takes its predicate
from games.answer_game_predicate, which game files name.

The family's symmetries come from the support, by the same rule with
equality for inclusion.  A player permutation pi with a symbol bijection
per player that maps Q onto Q relabels the support indices by a
permutation tau, exactly when pi maps each agree[s][u] onto
agree[tau(s)][tau(u)].  tau applied in every round maps forbidden
configurations onto forbidden configurations; so does tau applied in round
0 alone when pi is the identity, and so does any permutation of the rounds.
support_symmetries finds generators of each kind of tau by a bounded search
along a stabiliser chain.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .codec import ProductTuples, oversize
from .errors import BudgetExceededError
from .games import Game, Strategy, answer_game_predicate
from .records import DensityRecord
from .repetition import RepeatedGame
from .search import (DEFAULT_POINT_BUDGET, ENUMERATION_BUDGET, ForbiddenHypergraph,
                     StructureFamily, index_maps, swap_and_cycle)

DEFAULT_CONFIG_BUDGET = 10**6
# candidate images that one support_symmetries call may try
SYMMETRY_SEARCH_STEPS = 20_000


@dataclass(frozen=True)
class ForbiddenWitness:
    """A forbidden configuration: the pinned coordinate and its q points,
    listed so that edges[s][coordinate] == s."""

    coordinate: int
    edges: tuple[tuple[int, ...], ...]


def player_symbols(support: Sequence[tuple]) -> list[list]:
    """Per player, the sorted distinct symbols occurring in the support."""
    k = len(support[0])
    return [sorted({x[j] for x in support}) for j in range(k)]


def witness_is_valid(support: Sequence[tuple], n: int, witness: ForbiddenWitness) -> bool:
    """Check the defining conditions of a forbidden configuration."""
    q = len(support)
    i = witness.coordinate
    if not 0 <= i < n:
        return False
    if len(witness.edges) != q:
        return False
    for s, e in enumerate(witness.edges):
        if len(e) != n or any(not 0 <= v < q for v in e):
            return False
        if e[i] != s:
            return False
    # per player, their column of the support: column[v] is their symbol of
    # support[v], so the point e shows them column[e[0]], .., column[e[n-1]]
    for column in zip(*support):
        by_symbol: dict = {}
        for sym, e in zip(column, witness.edges):
            row = tuple(map(column.__getitem__, e))
            if by_symbol.setdefault(sym, row) != row:
                return False
    return True


@functools.lru_cache(maxsize=1024)
def _agreement(support: tuple[tuple, ...]) -> tuple[tuple[int, ...], ...]:
    """agree[s][u], the mask of the players j with support[s][j] == support[u][j]."""
    bits = [1 << j for j in range(len(support[0]))]
    return tuple(tuple(sum(itertools.compress(bits, map(operator.eq, x, y))) for y in support)
                 for x in support)


@functools.lru_cache(maxsize=1024)
def consistent_maps(support: tuple[tuple, ...],
                    domains: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The consistent maps of the support indices that take each s into the
    mask domains[s], as image tuples in lexicographic order: a backtrack
    over s ascending keeps an image t while agree[s][u] lies within
    agree[t][phi(u)] for every u < s.  Raises BudgetExceededError past
    DEFAULT_CONFIG_BUDGET maps: at n >= 2 each map into the full domains
    gives a configuration of the n-fold support at coordinate 0."""
    q = len(support)
    agree = _agreement(support)
    targets = [[t for t in range(q) if mask >> t & 1] for mask in domains]
    image: list[int] = []
    found: list[tuple[int, ...]] = []

    def extend(s: int) -> None:
        if s == q:
            if len(found) == DEFAULT_CONFIG_BUDGET:
                raise BudgetExceededError(
                    f"more than {DEFAULT_CONFIG_BUDGET} consistent maps of the support")
            found.append(tuple(image))
            return
        row = agree[s]
        for t in targets[s]:
            image_row = agree[t]
            if all(row[u] & ~image_row[v] == 0 for u, v in enumerate(image)):
                image.append(t)
                extend(s + 1)
                image.pop()

    extend(0)
    return tuple(found)


def _checked_support(support: Iterable[Sequence]) -> tuple[tuple, ...]:
    """The support as a tuple of tuples, refused with ValueError unless it
    is non-empty and holds distinct tuples of one length."""
    support = tuple(map(tuple, support))
    if not support:
        raise ValueError("the support must be non-empty")
    if len(set(map(len, support))) != 1:
        raise ValueError("the support tuples must all have one length")
    if len(set(support)) != len(support):
        raise ValueError("the support tuples must be distinct")
    return support


def _search_witnesses(support: tuple[tuple, ...], n: int, pts: Sequence[tuple[int, ...]]
                      ) -> Iterator[tuple[ForbiddenWitness, tuple[int, ...]]]:
    """Yield the forbidden configurations inside the given distinct points,
    n-tuples over range(len(support)), each with the positions in pts of
    its edges, in the order they are built: coordinates ascending, then the
    consistent maps of each round m != i in lexicographic order, round by
    round.  Raises BudgetExceededError once more than DEFAULT_CONFIG_BUDGET
    of them are found, since the point set of each is kept to drop it when
    a later coordinate finds it again.

    At coordinate i, slot s starts at the points whose coordinate i is s; a
    coordinate where some slot starts empty holds no configuration.  A DFS
    over the rounds m != i, on an explicit stack, picks one consistent map
    phi for each, among those taking every slot s to a symbol phi(s) that
    some point of the slot shows at coordinate m, and narrows slot s to
    those points.  Once each slot holds one point, the configuration stands
    when each round's column is consistent.
    """
    q = len(support)
    # at[m][t] = mask of the positions (into pts) of the points whose
    # coordinate m is t
    at = [[0] * q for _ in range(n)]
    for pos, w in enumerate(pts):
        for row, t in zip(at, w):
            row[t] |= 1 << pos
    coordinates = [i for i in range(n) if all(at[i])]
    seen: set[frozenset] = set()

    for i in coordinates:
        # (depth, slots) states, the next one to visit last; a state's
        # children are pushed in reverse, so they are visited in map order
        stack = [(0, at[i])]
        while stack:
            depth, slots = stack.pop()
            if any(c & (c - 1) for c in slots):
                if depth == n - 1:
                    raise AssertionError("complete assignment must pin each edge")
                # the rounds m != i in order: depth d maps round d, or d + 1 past i
                row = at[depth + (depth >= i)]
                domains = tuple(sum(1 << t for t, points in enumerate(row) if c & points)
                                for c in slots)
                stack += [(depth + 1, [c & row[t] for c, t in zip(slots, phi)])
                          for phi in reversed(consistent_maps(support, domains))]
                continue
            # one point per slot: each round left has one map to try, its column
            positions = tuple(c.bit_length() - 1 for c in slots)
            chosen = frozenset(positions)
            edges = tuple(map(pts.__getitem__, positions))
            if chosen in seen or (depth < n - 1 and not all(
                    consistent_maps(support, tuple(1 << t for t in column))
                    for column in set(zip(*edges)))):
                continue
            if len(seen) == DEFAULT_CONFIG_BUDGET:
                raise BudgetExceededError(
                    f"more than {DEFAULT_CONFIG_BUDGET} forbidden configurations")
            seen.add(chosen)
            witness = ForbiddenWitness(coordinate=i, edges=edges)
            if not witness_is_valid(support, n, witness):
                raise AssertionError("found configuration failed witness_is_valid")
            yield witness, positions


def find_forbidden(support: Sequence[tuple], n: int,
                   points: Sequence[Sequence[int]]) -> ForbiddenWitness | None:
    """First forbidden configuration inside points, or None if free.
    Raises ValueError for a point that is not an n-tuple over the support
    indices."""
    return next(enumerate_forbidden(support, n, points), None)


def enumerate_forbidden(support: Sequence[tuple], n: int,
                        points: Sequence[Sequence[int]]) -> Iterator[ForbiddenWitness]:
    """All forbidden configurations with points drawn from the given set,
    deduplicated as point sets.  Raises ValueError for a malformed support
    and for a point that is not an n-tuple over the support indices."""
    support = _checked_support(support)
    q = len(support)
    pts = [tuple(p) for p in points]
    for p in pts:
        if len(p) != n or not all(isinstance(v, int) and 0 <= v < q for v in p):
            raise ValueError(f"point {p!r} is not a {n}-tuple over range({q})")
    return (witness for witness, _ in _search_witnesses(support, n, list(dict.fromkeys(pts))))


def support_symmetries(support: Sequence[tuple],
                       same_players: bool = False) -> list[tuple[int, ...]]:
    """Generators of the permutations tau of the support indices induced by
    a player permutation pi, the identity when same_players, and symbol
    bijections sigma_j: support[tau(s)][pi(j)] = sigma_j(support[s][j]) for
    every s and j.

    A backtrack over s ascending keeps an image t while each player j keeps
    a candidate pi(j) that agrees on t and tau(u) exactly where j agrees on
    s and u, for every u < s.  It runs up the stabiliser chain of the points
    q-1, .., 0: at level l it backtracks for one tau that fixes the points
    below l and takes l to u, for each u > l that the generators found so
    far do not already take l to.  So it finds generators of the whole
    group without listing the group, whose order may be q!.  After
    SYMMETRY_SEARCH_STEPS candidate images it stops with the generators
    found by then, which still generate such relabellings.
    """
    q, k = len(support), len(support[0])
    agree = _agreement(tuple(map(tuple, support)))
    sizes = [Counter(x[j] for x in support) for j in range(k)]
    # a point and its image show classes of the same sizes
    profile = [tuple(size[sym] for size, sym in zip(sizes, x)) for x in support]
    if same_players:
        start = [1 << j for j in range(k)]
    else:
        shapes = [sorted(size.values()) for size in sizes]
        profile = [sorted(p) for p in profile]
        start = [sum(1 << j2 for j2 in range(k) if shapes[j2] == shapes[j]) for j in range(k)]
    steps = SYMMETRY_SEARCH_STEPS
    used = [False] * q

    def narrow(cands: list[int], s: int, t: int, tau: Sequence[int]) -> list[int]:
        # pi(j) = j2 survives (s, t) when j agrees on s and u exactly where j2
        # agrees on t and tau(u), u < s; candidate masks stay equal or disjoint
        image_row = agree[t]
        for a, v in zip(agree[s], tau):
            b = image_row[v]
            if a | b:
                cands = [c & (b if a >> j & 1 else ~b) for j, c in enumerate(cands)]
                if not all(cands):
                    break
        return cands

    def extend(tau: list[int], cands: list[int], targets) -> tuple[int, ...] | None:
        # cands[j] is the mask of the players pi(j) may still be
        nonlocal steps
        s = len(tau)
        if s == q:
            # pi must be a bijection: as candidate masks are equal or
            # disjoint, each must have as many members as players hold it
            count = Counter(cands)
            return tuple(tau) if all(count[c] == c.bit_count() for c in cands) else None
        for t in targets:
            if used[t] or profile[t] != profile[s] or steps <= 0:
                continue
            steps -= 1
            narrowed = narrow(cands, s, t, tau)
            if not all(narrowed):
                continue
            used[t] = True
            found = extend(tau + [t], narrowed, range(q))
            used[t] = False
            if found is not None:
                return found
        return None

    # the candidate masks after fixing the points 0 .. l-1, for each level l
    # that leaves a point to move
    fixed = [start]
    for s in range(q - 2):
        fixed.append(narrow(fixed[-1], s, s, range(s)))
    gens: list[tuple[int, ...]] = []
    for level in reversed(range(q - 1)):
        used[:] = [v < level for v in range(q)]
        orbit = {level}
        for u in range(level + 1, q):
            if u in orbit:
                continue
            tau = extend(list(range(level)), fixed[level], (u,))
            if tau is None:
                if steps <= 0:
                    return gens
                continue
            gens.append(tau)
            frontier = list(orbit)
            for v in frontier:
                reached = {g[v] for g in gens} - orbit
                orbit |= reached
                frontier += reached
    return gens


def forbidden_family(support: Sequence[tuple], n: int) -> StructureFamily:
    """The forbidden configurations of the n-fold support as a structure
    family on the codes of ProductTuples(range(q), n).  Raises ValueError
    for n < 1 or a malformed support, and BudgetExceededError when
    codec.oversize rejects the q**n points under ENUMERATION_BUDGET."""
    n = int(n)
    if n < 1:
        raise ValueError("repetition count must be >= 1")
    support = _checked_support(support)
    q = len(support)
    if reason := oversize(q, n, ENUMERATION_BUDGET):
        raise BudgetExceededError(reason)
    universe = ProductTuples(range(q), n)

    def enumerate_configurations() -> Iterator[tuple[int, ...]]:
        # a point's position in the code-ordered universe is its code
        for _, positions in _search_witnesses(support, n, list(universe)):
            yield tuple(sorted(positions))

    def symmetries() -> list[tuple[int, ...]]:
        if n == 1:
            # the one configuration is the whole universe: nothing to prune
            return []
        rounds =[lambda w, s=s: tuple(w[i] for i in s) for s in swap_and_cycle(n)]
        first_round = [lambda w, t=t: (t[w[0]],) + w[1:]
                       for t in support_symmetries(support, same_players=True)]
        every_round = [lambda w, t=t: tuple(t[v] for v in w)
                       for t in support_symmetries(support)]
        return index_maps(universe, rounds + first_round + every_round)

    return StructureFamily(
        name="forbidden-free",
        params={"q": q, "n": n},
        universe=universe,
        _enumerate=enumerate_configurations,
        _symmetries=symmetries,
    )


def forbidden_hypergraph(support: Sequence[tuple], n: int) -> ForbiddenHypergraph:
    """The hypergraph on the n-fold support whose edges are the forbidden
    configurations; free sets of this hypergraph are exactly the
    configuration-free subsets."""
    return forbidden_family(support, n).to_hypergraph()


def compute_eq(support: Sequence[tuple], n: int, *,
               point_budget: int = DEFAULT_POINT_BUDGET) -> DensityRecord:
    """Maximum density of a forbidden-configuration-free subset of the
    n-fold support, with its sorted extremal witness: forbidden_family,
    solved by StructureFamily.solve within point_budget points and
    re-checked like every structure family.  A one-symbol support's single
    point is itself a configuration, so only the empty set is free."""
    record = forbidden_family(support, n).solve(point_budget)
    record.witness.sort()
    return record


# -- the answer game over a free set ------------------------------------------


def build_answer_game(question_alphabets: Sequence[Sequence], support: Sequence[tuple],
                      n: int, free_points: Iterable[Sequence[int]]) -> Game:
    """The game whose n-fold repetition has value exactly
    |free_points| / q**n.

    Questions are the support tuples, uniformly weighted.  Player j's answers
    are pairs (i, y) of a coordinate i < n and a vector y over the player's
    question alphabet.  Requires the projected graph of the support to be
    connected (this keeps the single-shot value below one) and the point set
    to be forbidden-free.
    """
    free = sorted(tuple(int(v) for v in w) for w in free_points)
    q = len(support)
    # the projected graph joins the (player, symbol) vertices that one
    # support tuple shows together: grow the first tuple's component
    rest = [set(enumerate(x)) for x in support]
    component = rest.pop(0) if rest else set()
    while joined := [vertices for vertices in rest if vertices & component]:
        rest = [vertices for vertices in rest if not vertices & component]
        component.update(*joined)
    if rest:
        raise ValueError("projected graph of the support is disconnected")
    bad = find_forbidden(support, n, free)
    if bad is not None:
        raise ValueError(f"point set contains a forbidden configuration at "
                         f"coordinate {bad.coordinate}")
    answer_alphabets = []
    for j, alphabet in enumerate(question_alphabets):
        pairs = tuple((i, y) for i in range(n) for y in ProductTuples(alphabet, n))
        answer_alphabets.append(pairs)
    return Game(
        question_alphabets=[tuple(a) for a in question_alphabets],
        answer_alphabets=answer_alphabets,
        support=support,
        weights=[Fraction(1, q)] * q,
        predicate=answer_game_predicate(support, n, free),
        predicate_spec={"type": "preset", "name": "answer-game",
                        "params": {"n": n, "witness": [list(w) for w in free]}},
    )


def strategy_from_witness(support: Sequence[tuple], n: int) -> Strategy:
    """The product strategy for the n-fold answer game that wins exactly on
    the free set: on question vector y, player j answers (i, y) in round i.

    Its winning probability on repeat(build_answer_game(..), n) is
    |free_points| / q**n, matching the density record of the free set."""
    symbols = player_symbols(support)
    tables = []
    for j in range(len(symbols)):
        table = {}
        for xs in itertools.product(symbols[j], repeat=n):
            table[xs] = tuple((i, xs) for i in range(n))
        tables.append(table)
    return Strategy(tuple(tables))


def winning_points(game: RepeatedGame, strategy: Strategy) -> list[tuple[int, ...]]:
    """Index vectors of the repeated support tuples on which the strategy
    wins, in code order.  They come from the column walk evaluate reads
    (RepeatedGame.walk), in itertools.product order, so only the winners
    are sorted back, last round most significant."""
    _, _, wins = game.walk(strategy)
    points = itertools.product(range(len(game.base.support)), repeat=game.n)
    return sorted(itertools.compress(points, wins),
                  key=operator.itemgetter(slice(None, None, -1)))


def check_winning_set_free(game: RepeatedGame, strategy: Strategy) -> bool:
    """Whether the strategy's winning set, read as index vectors of the base
    support, contains no forbidden configuration."""
    if not isinstance(game, RepeatedGame):
        raise TypeError("check_winning_set_free needs a repeated game")
    points = winning_points(game, strategy)
    return find_forbidden(list(game.base.support), game.n, points) is None
