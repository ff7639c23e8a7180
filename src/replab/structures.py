"""Extremal structure families and their forbidden-configuration bijections.

Four families of point configurations, each with an exact maximum density of
a configuration-free set:

  lines(q, n)        combinatorial lines in range(q)**n; a line is a template
                     with at least one active coordinate, instantiated by
                     running the active coordinates through 0..q-1 together.
  squares(n)         {x, x+d} x {y, y+d} in pairs of F_2**n vectors, d != 0;
                     built as the grids of GF(2) with k = 2.
  corners(n)         {(x,y), (x+d,y), (x,y+d)} in the same universe, d != 0.
  grids(field, k, n) {(x_1 + a_1 d, .., x_k + a_k d) : a in F**k} in k-tuples
                     of F**n vectors, d != 0.

A family's universe is a ProductTuples, which is its own codec: a point's
index is its code.  The universe is range(q)**n for lines, and for the
vector families ProductTuples(ProductTuples(range(order), n), k), so a
k-tuple of vectors has index sum(code(v_j) * (order**n)**j) with player 0
least significant.  Each family refuses, with codec.oversize's reason, a
universe of more points or coordinates than its point budget: q**n over n
coordinates for lines, order**(k*n) over k*n for the vector families.

Each family also supplies generators of a symmetry group, which max_free
uses for orbital branching: S_n x S_q for lines (see lines), and
translations with player and coordinate maps for the vector families (see
_vector_symmetries).  They are built only when the family is solved, and a
family takes a factor of its group only while the order, which it knows in
closed form, stays within search.GROUP_CAP.

The bijections at the bottom translate configurations of each family into
forbidden configurations of a matching repeated question support and back,
which is what ties the densities r_line, r_square, r_grid to exact values of
repeated games; a square's map is grid_to_witness over GF(2) with k = 2.
forbidden.compute_eq solves those configurations, forbidden.forbidden_family,
through the same _density_record as the four families here.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import replace
from fractions import Fraction
from typing import Iterator, Sequence

from .codec import ProductTuples, oversize, power_exceeds
from .errors import BudgetExceededError
from .fields import AffineSubspace, FiniteField
from .forbidden import ForbiddenWitness, witness_is_valid
from .games import GHZ_SUPPORT, unit_tuples
from .records import DensityRecord
from .search import (DEFAULT_POINT_BUDGET, StructureFamily, capped_maps, index_maps,
                     max_free, swap_and_cycle, verify_free)

WITNESS_MATERIALISE_LIMIT = 4096


# -- combinatorial lines -------------------------------------------------------


_STAR = object()


def lines(q: int, n: int, point_budget: int = DEFAULT_POINT_BUDGET * 32) -> StructureFamily:
    """Combinatorial lines in range(q)**n.

    Its symmetries are S_n on the coordinates and S_q on the symbols, one
    symbol permutation applied to every coordinate (a swap and a cycle of
    each), each factor taken while the group's order n! * q! stays within
    GROUP_CAP.
    """
    if q < 1 or n < 1:
        raise ValueError("need q >= 1 and n >= 1")
    if reason := oversize(q, n, point_budget):
        raise BudgetExceededError(reason)
    universe = ProductTuples(range(q), n)
    code = universe.encode

    def enumerate_lines() -> Iterator[tuple[int, ...]]:
        if q == 1:  # every template names the single point
            yield (0,)
            return
        # with q >= 2 a line's varying coordinates are its template's stars,
        # so distinct templates give distinct lines
        alphabet = list(range(q)) + [_STAR]
        for template in itertools.product(alphabet, repeat=n):
            if _STAR not in template:
                continue
            yield tuple(sorted(code(tuple(v if sym is _STAR else sym for sym in template))
                               for v in range(q)))

    def symmetries() -> list[tuple[int, ...]]:
        coordinates = [lambda w, s=s: tuple(w[i] for i in s) for s in swap_and_cycle(n)]
        symbols = [lambda w, s=s: tuple(s[v] for v in w) for s in swap_and_cycle(q)]
        return index_maps(universe, capped_maps(1, [(math.factorial(n), coordinates),
                                                (math.factorial(q), symbols)]))

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


def _xor_vec(u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(a ^ b for a, b in zip(u, v, strict=True))


def _vector_symmetries(universe: ProductTuples, n: int,
                       field: FiniteField) -> list[tuple[int, ...]]:
    """Index permutations generating a symmetry group of a vector family:
    each maps a grid, or a corner, onto another one.

    Translating one player's vector by g times a unit vector, for each
    additive generator g of the field, generates every translation, so the
    group's order starts at the universe's size.  Then come, each while the
    order stays within GROUP_CAP: the swap and cycle of the players (k!),
    the swap and cycle of the coordinates of every player's vector (n!),
    and, over more than two elements, one map per coordinate multiplying it
    in every vector by a primitive element ((order - 1)**n).
    """
    k = universe.n
    code = universe.encode
    translations = []
    for j in range(k):
        for m in range(n):
            for g in field.additive_generators():
                shift = tuple(g if mm == m else 0 for mm in range(n))
                translations.append(tuple(code(point[:j] + (field.vec_add(point[j], shift),)
                                               + point[j + 1:]) for point in universe))
    players = [lambda p, s=s: tuple(p[i] for i in s) for s in swap_and_cycle(k)]
    coordinates = [lambda p, s=s: tuple(tuple(v[i] for i in s) for v in p)
                   for s in swap_and_cycle(n)]
    blocks = [(math.factorial(k), players), (math.factorial(n), coordinates)]
    if field.order > 2:
        c = field.primitive_element()
        scalars = [lambda p, m=m: tuple(v[:m] + (field.mul(c, v[m]),) + v[m + 1:] for v in p)
                   for m in range(n)]
        blocks.append(((field.order - 1) ** n, scalars))
    return translations + index_maps(universe, capped_maps(len(universe), blocks))


def squares(n: int, point_budget: int = DEFAULT_POINT_BUDGET * 32) -> StructureFamily:
    """Axis-aligned squares with a common side vector in F_2**n x F_2**n,
    which are exactly the grids of GF(2) with k = 2."""
    return replace(grids(FiniteField(2), 2, n, point_budget),
                   name="square", params={"n": n})


def corners(n: int, point_budget: int = DEFAULT_POINT_BUDGET * 32) -> StructureFamily:
    """Corners {(x,y), (x+d,y), (x,y+d)} with d != 0 in F_2**n x F_2**n."""
    if n < 1:
        raise ValueError("need n >= 1")
    if reason := oversize(4, n, point_budget):
        raise BudgetExceededError(reason)
    universe = _vector_universe(2, 2, n)
    code = universe.encode
    vectors = universe.alphabets[0]

    def enumerate_corners() -> Iterator[tuple[int, ...]]:
        # (x, y, d) -> corner is injective: the apex (x, y) is the unique
        # point sharing its first component with one point and its second
        # with the other, and d is the difference, so no deduplication needed
        for d in vectors[1:]:
            for x in vectors:
                for y in vectors:
                    yield tuple(sorted((
                        code((x, y)),
                        code((_xor_vec(x, d), y)),
                        code((x, _xor_vec(y, d))),
                    )))

    return StructureFamily(
        name="corner",
        params={"n": n},
        universe=universe,
        _enumerate=enumerate_corners,
        _symmetries=lambda: _vector_symmetries(universe, n, FiniteField(2)),
    )


def grids(field: FiniteField, k: int, n: int,
          point_budget: int = DEFAULT_POINT_BUDGET * 32) -> StructureFamily:
    """Grids {(x_1 + a_1 d, .., x_k + a_k d) : a in F**k} with d != 0.

    Each grid is enumerated once: d is normalised monic (first non-zero
    coordinate equal to 1) and the base point is the minimum-index point of
    the grid.  That base is the one point whose k vectors are all zero at
    d's last non-zero coordinate top: each vector's coordinates above top are
    the same across the grid, top is its most significant varying digit,
    and the field's zero has the smallest code.  So a base is tested by that
    coordinate alone, before its cell is built, and the cells come out in
    (d, base index) order.
    """
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    order = field.order
    if reason := oversize(order, k * n, point_budget):
        raise BudgetExceededError(reason)
    universe = _vector_universe(order, k, n)
    code = universe.encode
    monic = []
    for d in universe.alphabets[0]:
        lead = next((v for v in d if v != 0), None)
        if lead == 1:
            monic.append(d)

    def grid_indices(x, d) -> list[int]:
        out = []
        for alpha in itertools.product(field.elements, repeat=k):
            point = tuple(field.vec_add(x[j], field.vec_scale(alpha[j], d))
                          for j in range(k))
            out.append(code(point))
        return out

    def enumerate_grids() -> Iterator[tuple[int, ...]]:
        for d in monic:
            top = max(m for m, v in enumerate(d) if v)
            for x in universe:
                if not any(xj[top] for xj in x):
                    yield tuple(sorted(grid_indices(x, d)))

    return StructureFamily(
        name="grid",
        params={"p": field.p, "r": field.r, "k": k, "n": n},
        universe=universe,
        _enumerate=enumerate_grids,
        _symmetries=lambda: _vector_symmetries(universe, n, field),
    )


# -- exact densities -------------------------------------------------------------


def _density_record(family: StructureFamily,
                    point_budget: int = DEFAULT_POINT_BUDGET) -> DensityRecord:
    """The exact density of a family, solved within the solver's point
    budget, with its witness re-checked against a fresh enumeration."""
    size, chosen = max_free(family.to_hypergraph(), budget=point_budget)
    if not verify_free(chosen, family.configurations()):
        raise AssertionError("density witness failed independent re-enumeration check")
    return DensityRecord(
        family=family.name,
        params=dict(family.params),
        value=Fraction(size, len(family.universe)),
        witness_size=size,
        universe_size=len(family.universe),
        witness=[family.universe[i] for i in chosen],
        method="exact-bb",
    )


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
    printed.
    """
    if method not in ("auto", "search", "closed-form"):
        raise ValueError(f"unknown method {method!r}")
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
        if 2**n <= WITNESS_MATERIALISE_LIMIT:
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
    return _density_record(lines(q, n, point_budget=DEFAULT_POINT_BUDGET))


def r_square(n: int) -> DensityRecord:
    """Maximum density of a square-free subset of F_2**n x F_2**n."""
    return _density_record(squares(n, point_budget=DEFAULT_POINT_BUDGET))


def r_corner(n: int) -> DensityRecord:
    """Maximum density of a corner-free subset of F_2**n x F_2**n."""
    return _density_record(corners(n, point_budget=DEFAULT_POINT_BUDGET))


def r_grid(field: FiniteField, k: int, n: int) -> DensityRecord:
    """Maximum density of a grid-free subset of (F**n)**k."""
    return _density_record(grids(field, k, n, point_budget=DEFAULT_POINT_BUDGET))


# -- bijections with forbidden configurations -----------------------------------


def _line_template(q: int, points: Sequence[tuple[int, ...]]):
    """Recover (ordered points, active coordinates) of a line, or raise."""
    pts = [tuple(p) for p in points]
    if len(set(pts)) != q or not pts:
        raise ValueError(f"a line over {q} symbols has {q} distinct points")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("points must share a length")
    if q == 1:
        return pts, tuple(range(n))
    active = [m for m in range(n) if len({p[m] for p in pts}) > 1]
    if not active:
        raise ValueError("a line needs at least one active coordinate")
    order = sorted(pts, key=lambda p: p[active[0]])
    for m in range(n):
        column = [p[m] for p in order]
        if len(set(column)) == 1:
            continue
        if column != list(range(q)):
            raise ValueError(f"coordinate {m} is neither constant nor 0..{q - 1}")
    return order, tuple(active)


def line_to_witness(q: int, n: int, points: Sequence[tuple[int, ...]]) -> ForbiddenWitness:
    """A combinatorial line, read as a forbidden configuration of the unit
    question support over q players.

    Digit s names the support element whose player s holds a 1, so each line
    point doubles as an index vector; the pinned coordinate is the line's
    first active coordinate.  Valid for every q >= 1.
    """
    order, active = _line_template(q, points)
    witness = ForbiddenWitness(coordinate=active[0], edges=tuple(order))
    if not witness_is_valid(unit_tuples(q), n, witness):
        raise AssertionError("line did not map to a valid forbidden configuration")
    return witness


def witness_to_line(q: int, n: int, witness: ForbiddenWitness) -> tuple[tuple[int, ...], ...]:
    """Inverse of line_to_witness.  Only sound for q >= 3: with two symbols
    every pair of distinct points forms a forbidden configuration, so the
    map from lines is not onto."""
    if q < 3:
        raise ValueError("the inverse direction needs q >= 3")
    if not witness_is_valid(unit_tuples(q), n, witness):
        raise ValueError("not a forbidden configuration of the unit support")
    order, _ = _line_template(q, witness.edges)
    return tuple(order)


def ghz_support() -> tuple[tuple[int, int, int], ...]:
    """Even-parity bit triples, ordered (0,0,0), (0,1,1), (1,0,1), (1,1,0)."""
    return GHZ_SUPPORT


def grid_question_set(field: FiniteField, k: int) -> tuple[tuple[int, ...], ...]:
    """The question support tying grid density to repeated game values.

    k + r players over GF(p**r): the first k players receive arbitrary field
    elements x_1 .. x_k and the last r players receive g * x_1 + x_2 + ..
    + x_k, one per additive generator g.  For GF(2) with k = 2 this is the
    even-parity triple support.  Requires k >= 2, which makes the projected
    graph complete multipartite and in particular connected.
    """
    if k < 2:
        raise ValueError("the grid question set needs k >= 2")
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


def _grid_base_and_step(field: FiniteField, k: int, n: int, points):
    """Recover (indexer alpha -> point, monic step d) of a grid, or raise."""
    pts = [tuple(tuple(v) for v in p) for p in points]
    order = field.order
    if len(set(pts)) != order**k:
        raise ValueError(f"a grid over this field has {order**k} distinct points")
    universe = _vector_universe(order, k, n)
    base = min(pts, key=universe.encode)
    diffs = set()
    for p in pts:
        for j in range(k):
            delta = field.vec_sub(p[j], base[j])
            if any(delta):
                diffs.add(delta)
    if not diffs:
        raise ValueError("grid points cannot all coincide")
    some = min(diffs, key=ProductTuples(field.elements, n).encode)
    lead_pos = next(m for m in range(n) if some[m] != 0)
    d = field.vec_scale(field.inv(some[lead_pos]), some)
    lookup = {}
    for alpha in itertools.product(field.elements, repeat=k):
        point = tuple(field.vec_add(base[j], field.vec_scale(alpha[j], d))
                      for j in range(k))
        lookup[alpha] = point
    if set(lookup.values()) != set(pts):
        raise ValueError("points do not form a grid")
    return lookup, d


def _grid_witness(field: FiniteField, k: int, n: int, points, support,
                  round_key: dict) -> ForbiddenWitness:
    """A grid, read as a forbidden configuration of support**n: the point
    (z_1, .., z_k) becomes the index vector whose round-m entry is
    round_key[(z_1[m], .., z_k[m])], pinned at the step's first non-zero
    coordinate."""
    lookup, d = _grid_base_and_step(field, k, n, points)
    i = next(m for m in range(n) if d[m] != 0)
    edges = sorted((tuple(round_key[tuple(point[j][m] for j in range(k))]
                          for m in range(n)) for point in lookup.values()),
                   key=lambda e: e[i])
    witness = ForbiddenWitness(coordinate=i, edges=tuple(edges))
    if not witness_is_valid(support, n, witness):
        raise AssertionError("grid did not map to a valid forbidden configuration")
    return witness


def grid_to_witness(field: FiniteField, k: int, n: int, points) -> ForbiddenWitness:
    """A grid, read as a forbidden configuration of the grid question set:
    the point (z_1, .., z_k) becomes the index vector whose round-m entry
    names the support element determined by (z_1[m], .., z_k[m])."""
    support = grid_question_set(field, k)
    return _grid_witness(field, k, n, points, support,
                         {x[:k]: s for s, x in enumerate(support)})


def witness_to_grid(field: FiniteField, k: int, n: int, witness: ForbiddenWitness):
    """Inverse of grid_to_witness."""
    support = grid_question_set(field, k)
    if not witness_is_valid(support, n, witness):
        raise ValueError("not a forbidden configuration of the grid question set")
    points = []
    for e in witness.edges:
        points.append(tuple(tuple(support[v][j] for v in e) for j in range(k)))
    _grid_base_and_step(field, k, n, points)
    return tuple(points)


def affine_embed(subspace: AffineSubspace, n: int, points) -> ForbiddenWitness:
    """Read a grid over the subspace's coefficient space as a forbidden
    configuration of the subspace's point list.

    The subspace's points, enumerated in coefficient order, form a question
    support Q inside F**ambient_dim; a grid in (F**n)**dim maps to a
    forbidden configuration of Q**n by sending each grid point to the index
    vector of its per-round coefficient tuples.  Consequently every
    forbidden-free subset of Q**n pulls back to a grid-free set, so the
    density of Q**n is at most r_grid(F, dim, n)."""
    field = subspace.field
    k = subspace.dimension
    coeff_pos = {coeffs: s for s, coeffs in
                 enumerate(itertools.product(field.elements, repeat=k))}
    return _grid_witness(field, k, n, points, tuple(subspace.points()), coeff_pos)
