"""Extremal structure families and their forbidden-configuration bijections.

Four families of point configurations, each with an exact maximum density of
a configuration-free set:

  lines(q, n)        combinatorial lines in range(q)**n; a line is a template
                     with at least one active coordinate, instantiated by
                     running the active coordinates through 0..q-1 together.
  squares(n)         {x, x+d} x {y, y+d} in pairs of F_2**n vectors, d != 0;
                     built as the grids of GF(2) with k = 2.
  corners(n)         {(x,y), (x+d,y), (x,y+d)} in the same universe, d != 0;
                     built as the 3-subsets of the squares.
  grids(field, k, n) {(x_1 + a_1 d, .., x_k + a_k d) : a in F**k} in k-tuples
                     of F**n vectors, d != 0.

A family's universe is a ProductTuples, which is its own codec: a point's
index is its code.  The universe is range(q)**n for lines, and for the
vector families ProductTuples(ProductTuples(range(order), n), k), so a
k-tuple of vectors has index sum(code(v_j) * (order**n)**j) with player 0
least significant.  Each family refuses, with codec.oversize's reason, a
universe of more points or coordinates than search.ENUMERATION_BUDGET:
q**n over n coordinates for lines, order**(k*n) over k*n for the vector
families.

Each family also supplies generators of a symmetry group, and max_free
branches orbitally under the whole group they generate: S_n x S_q for lines
(see lines), and translations with player and coordinate maps for the
vector families (see _vector_symmetries).  They are built only when the
family is solved.

r_line, r_square, r_corner and r_grid are family(...).solve(): the family
is built, and StructureFamily.solve refuses it past the solver's point
budget before enumerating a configuration, as for forbidden.compute_eq.

The paper's equivalences are point bijections that carry every configuration
of a family onto a forbidden configuration of a repeated question support,
so each pair is one hypergraph under two codings.  Lines need no map: the
universe of lines(q, n) is that of the unit support's n-fold repetition,
and a line's points are its forbidden configuration's codes.  A grid's
point maps to the index vector that grid_round_codes gives; squares use it
over GF(2) with k = 2.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import replace
from fractions import Fraction
from typing import Iterator

from .codec import ProductTuples, oversize, power_exceeds
from .errors import BudgetExceededError
from .fields import FiniteField
from .games import grid_question_set
from .records import DensityRecord
# max_free is re-exported: callers reach the solver through this module too
from .search import (DEFAULT_POINT_BUDGET, ENUMERATION_BUDGET, StructureFamily, index_maps,
                     max_free, swap_and_cycle)


# -- combinatorial lines -------------------------------------------------------


def lines(q: int, n: int) -> StructureFamily:
    """Combinatorial lines in range(q)**n.

    Its symmetries are S_n on the coordinates and S_q on the symbols, one
    symbol permutation applied to every coordinate, generated by a swap and
    a cycle of each.
    """
    if q < 1 or n < 1:
        raise ValueError("need q >= 1 and n >= 1")
    if reason := oversize(q, n, ENUMERATION_BUDGET):
        raise BudgetExceededError(reason)
    universe = ProductTuples(range(q), n)

    def enumerate_lines() -> Iterator[tuple[int, ...]]:
        if q == 1:  # every template names the single point
            yield (0,)
            return
        # with q >= 2 a line's varying coordinates are its template's stars,
        # so distinct templates give distinct lines.  Symbol q is the star.
        # A point's code sums its symbols times their place values, so the
        # line's codes run from base, the fixed symbols' sum, in steps of
        # the stars' place values.
        places = [q**i for i in range(n)]
        for template in itertools.product(range(q + 1), repeat=n):
            step = sum(place for sym, place in zip(template, places) if sym == q)
            if step:
                base = sum(sym * place for sym, place in zip(template, places) if sym < q)
                yield tuple(range(base, base + q * step, step))

    def symmetries() -> list[tuple[int, ...]]:
        coordinates = [lambda w, s=s: tuple(w[i] for i in s) for s in swap_and_cycle(n)]
        symbols = [lambda w, s=s: tuple(s[v] for v in w) for s in swap_and_cycle(q)]
        return index_maps(universe, coordinates + symbols)

    return StructureFamily(
        name="line",
        params={"q": q, "n": n},
        universe=universe,
        _enumerate=enumerate_lines,
        _symmetries=symmetries,
    )


# -- vector universes (squares, corners, grids) --------------------------------


def _vector_universe(order: int, k: int, n: int) -> ProductTuples:
    """All k-tuples of length-n vectors over range(order), player 0 least
    significant in the point index."""
    return ProductTuples(ProductTuples(range(order), n), k)


def _vector_symmetries(universe: ProductTuples, n: int,
                       field: FiniteField) -> list[tuple[int, ...]]:
    """Index permutations generating a symmetry group of a vector family:
    each maps a grid onto another one.

    They translate player 0's first coordinate by each additive generator of
    the field, swap and cycle the players, swap and cycle the coordinates of
    every vector, and, over more than two elements, multiply every vector's
    first coordinate by a primitive element.  The player and coordinate maps
    conjugate these onto every player and coordinate, so the group holds
    every translation and every coordinate scaling.
    """
    translations = [lambda p, g=g: ((field.add(p[0][0], g),) + p[0][1:],) + p[1:]
                    for g in field.additive_generators()]
    players = [lambda p, s=s: tuple(p[i] for i in s) for s in swap_and_cycle(universe.n)]
    coordinates = [lambda p, s=s: tuple(tuple(v[i] for i in s) for v in p)
                   for s in swap_and_cycle(n)]
    maps = translations + players + coordinates
    if field.order > 2:
        c = field.primitive_element()
        maps.append(lambda p: tuple((field.mul(c, v[0]),) + v[1:] for v in p))
    return index_maps(universe, maps)


def squares(n: int) -> StructureFamily:
    """Axis-aligned squares with a common side vector in F_2**n x F_2**n,
    which are exactly the grids of GF(2) with k = 2."""
    if n < 1:
        raise ValueError("need n >= 1")
    return replace(grids(FiniteField(2), 2, n),
                   name="square", params={"n": n})


def _translation(field: FiniteField, d) -> list[int]:
    """The vector codes of x + d over the codes of every x, composed from
    one digit table per coordinate of d: the table for coordinates 0..m
    takes each digit a of coordinate m above the table for 0..m-1."""
    table, scale = [0], 1
    for dm in d:
        digits = [field.add(a, dm) * scale for a in field.elements]
        table = [low + high for high in digits for low in table]
        scale *= field.order
    return table


def _cosets(field: FiniteField, d) -> list[tuple[int, ...]]:
    """The cosets {x + a*d : a in F} of the line through d, as sorted
    vector codes, in order of their least codes.

    Over characteristic 2 a translation is an XOR of codes, so the line's
    codes are a space of bit vectors.  A point is least in its coset when it
    has no top bit of a non-zero code of the line, and the coset is then the
    point XOR each of the line's codes, in their sorted order: two codes
    first differ at the top bit of their XOR, which the point lacks.

    Otherwise each coset is kept at the point that is least among its
    images, and only the additive generators' multiples g*d are tabulated:
    the element c + j*g (c < g, 0 < j < p) translates by c + (j-1)*g, then
    by g*d, one table looked up in another."""
    order, points = field.order, range(field.order ** len(d))
    if field.p == 2:
        line = sorted(sum(v * order**m for m, v in enumerate(field.vec_scale(a, d)))
                      for a in field.elements)
        tops = sum({1 << (code.bit_length() - 1) for code in line[1:]})
        return [tuple(map(x.__xor__, line)) for x in itertools.filterfalse(tops.__and__, points)]
    shifts = [points]
    for g in field.additive_generators():
        table = _translation(field, field.vec_scale(g, d))
        block = len(shifts)
        for _ in range(field.p - 1):
            shifts += [list(map(table.__getitem__, s)) for s in shifts[-block:]]
    return [tuple(sorted(coset)) for coset in zip(*shifts) if coset[0] == min(coset)]


def corners(n: int) -> StructureFamily:
    """Corners {(x,y), (x+d,y), (x,y+d)} with d != 0 in F_2**n x F_2**n,
    which are exactly the 3-subsets of the squares.

    Over GF(2), x + d + d = x, so the square {x, x+d} x {y, y+d} with one
    point left out is the corner whose apex is the point opposite the
    missing one, with step d.  A corner's apex and step fix its square, so
    no corner comes out twice, and the 3-subsets of a square's sorted
    points come out sorted.  A point map that carries squares onto squares
    carries their 3-subsets along, so the family keeps the squares'
    universe and symmetry group.
    """
    # the refusal counts a corner universe as 4**n points, where squares
    # would say 2**(2n); squares refuses n < 1
    if reason := oversize(4, n, ENUMERATION_BUDGET):
        raise BudgetExceededError(reason)
    square = squares(n)
    return replace(square, name="corner", _enumerate=lambda: (
        corner for s in square.configurations() for corner in itertools.combinations(s, 3)))


def grids(field: FiniteField, k: int, n: int) -> StructureFamily:
    """Grids {(x_1 + a_1 d, .., x_k + a_k d) : a in F**k} with d != 0.

    A grid is a product of k cosets of the line F*d, one per player, and
    each grid is listed once: d is normalised monic (first non-zero
    coordinate equal to 1), and for each d the products of its cosets run
    with player 0 varying fastest.  With the cosets in order of their least
    codes, and player 0 least significant in the point index, the grids of
    one d then come out in order of their minimum-index points, and each
    grid's indices come out sorted, as the products of sorted cosets.
    """
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    order = field.order
    if reason := oversize(order, k * n, ENUMERATION_BUDGET):
        raise BudgetExceededError(reason)
    universe = _vector_universe(order, k, n)
    vectors = universe.alphabets[0]
    size = len(vectors)
    monic = []
    for d in vectors:
        lead = next((v for v in d if v != 0), None)
        if lead == 1:
            monic.append(d)

    def enumerate_grids() -> Iterator[tuple[int, ...]]:
        for d in monic:
            # player k-1's coset first, the most significant, and each later
            # player's varying fastest, as in itertools.product
            cosets = _cosets(field, d)
            products = cosets
            for _ in range(k - 1):
                products = [tuple([g * size + v for g in grid for v in coset])
                             for grid in products for coset in cosets]
            yield from products

    return StructureFamily(
        name="grid",
        params={"p": field.p, "r": field.r, "k": k, "n": n},
        universe=universe,
        _enumerate=enumerate_grids,
        _symmetries=lambda: _vector_symmetries(universe, n, field),
    )


# -- exact densities -------------------------------------------------------------


def r_line(q: int, n: int, method: str = "auto") -> DensityRecord:
    """Maximum density of a line-free subset of range(q)**n.

    For q = 2 the density has a closed form: lines are pairs of distinct
    comparable 0/1 vectors plus their reverses, so line-free sets are
    antichains in the Boolean lattice and the maximum is the middle binomial
    layer, C(n, floor(n/2)) / 2**n.  method "closed-form" evaluates the
    formula directly (witness materialised only for small n); "search" runs
    the exact solver; "auto" searches within the solver's point budget and
    falls back to the closed form for larger q = 2 instances.  The closed
    form raises BudgetExceededError when 2**n has more decimal digits than
    sys.get_int_max_str_digits() allows, since the value could not be
    printed.  Every method refuses q < 1 and n < 1.
    """
    if method not in ("auto", "search", "closed-form"):
        raise ValueError(f"unknown method {method!r}")
    if q < 1 or n < 1:
        raise ValueError("need q >= 1 and n >= 1")
    if method == "closed-form" or (
            method == "auto" and q == 2 and power_exceeds(2, n, DEFAULT_POINT_BUDGET)):
        if q != 2:
            raise ValueError("the closed form is only available for q = 2")
        digits = sys.get_int_max_str_digits()
        if digits and power_exceeds(2, n, 10**digits - 1):
            raise BudgetExceededError(
                f"2**{n} has more than {digits} digits, the integer string limit")
        size = math.comb(n, n // 2)
        witness = None
        if 2**n <= ENUMERATION_BUDGET:
            # the middle layer: no two points of equal weight are comparable,
            # so no line fits inside it
            witness = [w for w in ProductTuples(range(2), n) if sum(w) == n // 2]
            if len(witness) != size:
                raise AssertionError("middle layer does not match the closed-form size")
        return DensityRecord(
            family="line",
            params={"q": q, "n": n},
            value=Fraction(size, 2**n),
            witness_size=size,
            universe_size=2**n,
            witness=witness,
            method="closed-form",
        )
    return lines(q, n).solve()


def r_square(n: int) -> DensityRecord:
    """Maximum density of a square-free subset of F_2**n x F_2**n."""
    return squares(n).solve()


def r_corner(n: int) -> DensityRecord:
    """Maximum density of a corner-free subset of F_2**n x F_2**n."""
    return corners(n).solve()


def r_grid(field: FiniteField, k: int, n: int) -> DensityRecord:
    """Maximum density of a grid-free subset of (F**n)**k."""
    return grids(field, k, n).solve()


# -- the point bijections of the paper's equivalences ----------------------------


def ghz_support() -> tuple[tuple[int, int, int], ...]:
    """Even-parity bit triples, ordered (0,0,0), (0,1,1), (1,0,1), (1,1,0):
    the grid question set of GF(2) with k = 2."""
    return grid_question_set(FiniteField(2), 2)


def grid_round_codes(field: FiniteField, k: int, n: int) -> list[int]:
    """The point bijection from grids(field, k, n) to the forbidden
    configurations of grid_question_set(field, k): entry i is the code in
    ProductTuples(range(|Q|), n) of point i's index vector, whose round m
    names the element of Q with first k entries (z_1[m], .., z_k[m])."""
    support = grid_question_set(field, k)
    round_key = {x[:k]: s for s, x in enumerate(support)}
    encode = ProductTuples(range(len(support)), n).encode
    return [encode(tuple(round_key[column] for column in zip(*z)))
            for z in _vector_universe(field.order, k, n)]
