"""Exact free-set solver, orbital branching, and the WCNF export."""

import inspect
import json
import math
import os
from pathlib import Path
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st
import pytest

import oracles
from replab import search
from replab.codec import ProductTuples
from replab.errors import BudgetExceededError
from replab.fields import FiniteField
from replab.forbidden import forbidden_family
from replab.games import preset_game, unit_tuples
from replab.records import DensityRecord
from replab.search import ForbiddenHypergraph, export_wcnf, index_maps, max_free, verify_free
from replab.structures import (corners, ghz_support, grid_question_set, grids, lines,
                               squares)


# -- hypergraph construction -----------------------------------------------------


def test_edges_are_sorted_and_deduplicated():
    h = ForbiddenHypergraph(5, [(3, 1), (1, 3), (2, 2, 4), (0,)])
    assert h.edges == ((1, 3), (2, 4), (0,))


def test_hypergraph_rejects_bad_edges():
    with pytest.raises(ValueError):
        ForbiddenHypergraph(3, [()])
    with pytest.raises(ValueError):
        ForbiddenHypergraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        ForbiddenHypergraph(3, [(-1, 0)])


def test_hypergraph_rejects_bad_generators():
    edges = [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        ForbiddenHypergraph(3, edges, generators=[(0, 0, 1)])
    with pytest.raises(ValueError):
        ForbiddenHypergraph(3, edges, generators=[(1, 0, 2)])  # maps (1,2) to (0,2)
    # reversal maps (0,1) <-> (1,2): preserved
    h = ForbiddenHypergraph(3, edges, generators=[(2, 1, 0)])
    assert h.generators == ((2, 1, 0),)


@st.composite
def raw_hypergraphs(draw):
    """A size with edges and generators as a caller may pass them: points
    unsorted, repeated or out of range, edges repeated or empty, and
    generators that are permutations of the points or any point lists."""
    size = draw(st.integers(1, 6))
    wild = draw(st.booleans())  # may hold empty edges and points out of range
    points = st.integers(-1, size) if wild else st.integers(0, size - 1)
    edges = draw(st.lists(st.lists(points, min_size=not wild, max_size=4), max_size=6))
    if draw(st.booleans()):  # images of the edges under a permutation are edges too
        perm = draw(st.permutations(range(size)))
        edges += [[perm[v] for v in e if 0 <= v < size] or [0] for e in edges]
    else:
        perm = draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
    return size, edges, [perm] if draw(st.booleans()) else []


@given(raw_hypergraphs())
@example((4, [(3, 1), (0, 2)], []))  # unsorted edges
@example((4, [(2, 2, 0), (1, 1)], []))  # repeated points
@example((4, [(0, 1), (1, 0), (0, 1)], []))  # repeated edges
@example((3, [(0,), ()], []))  # an empty edge
@example((3, [(0, 1), (-1, 0)], []))  # a negative point
@example((3, [(0, 1), (1, 3)], []))  # a point past the last
@example((3, [(0, 1)], [(0, 0, 1)]))  # not a permutation
@example((3, [(0, 1), (1, 2)], [(1, 0, 2)]))  # maps (1, 2) onto the non-edge (0, 2)
@example((3, [(0, 1), (1, 2)], [(2, 1, 0)]))  # preserves the family
def test_hypergraph_matches_the_per_edge_oracle(case):
    size, edges, generators = case
    try:
        expected = oracles.per_edge_hypergraph(size, edges, generators)
    except ValueError:
        with pytest.raises(ValueError):
            ForbiddenHypergraph(size, edges, generators)
        return
    h = ForbiddenHypergraph(size, edges, generators)
    assert (h.edges, h.generators) == expected
    bb = search._BranchAndBound(size, h.edges)
    assert bb.edge_masks == [sum(1 << v for v in e) for e in h.edges]
    assert bb.inc == [sum(1 << i for i, e in enumerate(h.edges) if v in e)
                      for v in range(size)]


def test_index_maps_refuses_a_map_that_leaves_the_universe():
    universe = ProductTuples(range(2), 2)
    assert index_maps(universe, [lambda w: w[::-1]]) == [(0, 2, 1, 3)]
    with pytest.raises(ValueError, match=r"^\(2, 0\) is not a point of the universe$"):
        index_maps(universe, [lambda w: w[::-1], lambda w: (w[0] + 1, w[1])])


def test_verify_free():
    edges = [(0, 1), (2, 3)]
    assert verify_free([0, 2], edges)
    assert verify_free([], edges)
    assert not verify_free([2, 3], edges)
    # edges as lists or as a one-pass generator, points as an iterator
    assert not verify_free([3, 2], [[0, 1], [2, 3]])
    assert verify_free(iter([0, 2]), (list(e) for e in edges))
    assert not verify_free(iter([3, 2, 0]), (e for e in edges))
    assert verify_free([], iter([]))
    # an empty edge lies inside every point set, the empty one included
    assert not verify_free([], [()])


# -- the exact solver ---------------------------------------------------------------


def test_max_free_trivial_cases():
    none = ForbiddenHypergraph(4, [])
    assert max_free(none) == (4, (0, 1, 2, 3))
    blocked = ForbiddenHypergraph(3, [(0,), (1,), (2,)])
    assert max_free(blocked) == (0, ())


def test_max_free_budget():
    h = ForbiddenHypergraph(200, [(0, 1)])
    with pytest.raises(BudgetExceededError):
        max_free(h)
    assert max_free(h, budget=200)[0] == 199


def test_max_free_runs_past_the_recursion_limit():
    # 100 disjoint pairs: the search branches once per pair, which took one
    # Python frame per branching decision when it recursed
    pairs = 100
    h = ForbiddenHypergraph(2 * pairs, [(2 * i, 2 * i + 1) for i in range(pairs)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        assert max_free(h, budget=2 * pairs) == (pairs, tuple(range(0, 2 * pairs, 2)))
    finally:
        sys.setrecursionlimit(limit)


def test_max_free_prefers_lexicographically_first_witness():
    # both {0,2} and {1,2} etc. are maximum; the witness must start at 0
    h = ForbiddenHypergraph(3, [(0, 1)])
    assert max_free(h) == (2, (0, 2))


@st.composite
def random_hypergraphs(draw, max_size=12):
    size = draw(st.integers(3, max_size))
    n_edges = draw(st.integers(0, 8))
    edges = []
    for _ in range(n_edges):
        arity = draw(st.integers(1, min(4, size)))
        edges.append(tuple(draw(st.sets(st.integers(0, size - 1),
                                        min_size=arity, max_size=arity))))
    return ForbiddenHypergraph(size, edges)


@given(random_hypergraphs())
def test_max_free_matches_naive(h):
    size, witness = max_free(h)
    naive_size, naive_witness = oracles.naive_max_free(h.size, h.edges)
    assert size == naive_size
    assert tuple(witness) == tuple(naive_witness)
    assert verify_free(witness, h.edges)


@st.composite
def dense_hypergraphs(draw):
    """Up to 20 edges of 2 to 4 points on at most 12 points: dense enough
    that the packing bound is often tight once an incumbent is found."""
    size = draw(st.integers(4, 12))
    edges = draw(st.lists(st.sets(st.integers(0, size - 1), min_size=2, max_size=4),
                          max_size=20))
    return ForbiddenHypergraph(size, edges)


@given(dense_hypergraphs())
# a rule that also fired one point of slack above tight would fix points
# that the lex-first witness (0, 1, 3) leaves out
@example(ForbiddenHypergraph(6, [(0, 3, 4), (1, 5), (1, 2), (2, 5), (0, 2, 4), (0, 2, 3)]))
def test_max_free_matches_naive_on_dense_hypergraphs(h):
    assert max_free(h) == oracles.naive_max_free(h.size, h.edges)


def test_tight_packing_includes_every_point_outside_the_packed_parts():
    # the packed parts {0, 1} and {2, 3} leave 6 - 2 = 4 = best + 1 points:
    # an extension of 4 points takes 4 and 5, whose edges force out 1 and
    # 3, and then 0 and 2, all at the root without branching
    bb = search._BranchAndBound(6, [(0, 1), (2, 3), (1, 4), (3, 5)])
    bb.best, bb.stop = 3, 4
    assert bb.search(0, 0b111111, 0b1111, search._Group([]))
    assert (bb.found, bb.nodes) == (0b110101, 1)
    # one point of slack: the rule does not fire, and the search branches
    bb = search._BranchAndBound(6, [(0, 1), (2, 3), (1, 4), (3, 5)])
    bb.best, bb.stop = 2, 4
    assert bb.search(0, 0b111111, 0b1111, search._Group([]))
    assert bb.found.bit_count() == 4 and bb.nodes == 3


def _packing_bound(bb, selected, undecided, alive):
    """|selected| + |undecided| minus a greedy packing of disjoint undecided
    parts of the alive edges, smallest first: the bound without degrees."""
    parts = sorted((m & undecided for i, m in enumerate(bb.edge_masks) if alive >> i & 1),
                   key=int.bit_count)
    free = selected.bit_count() + undecided.bit_count()
    used = 0
    for part in parts:
        if not part & used:
            used |= part
            free -= 1
    return free


@given(random_hypergraphs(max_size=10), st.data())
def test_bound_is_sound_and_tightens_packing(h, data):
    # walk a random path of includes and excludes; at every state the bound
    # holds the largest free extension, found by brute force over the
    # undecided points with each decided point forbidden by a unit edge
    size = h.size
    bb = search._BranchAndBound(size, h.edges)
    selected, undecided, alive = 0, (1 << size) - 1, (1 << len(h.edges)) - 1
    for v in data.draw(st.permutations(range(size))) + [None]:
        if v is not None and not undecided >> v & 1:
            continue
        edges = [tuple(w for w in e if undecided >> w & 1)
                 for i, e in enumerate(h.edges) if alive >> i & 1]
        edges += [(w,) for w in range(size) if not undecided >> w & 1]
        largest = selected.bit_count() + oracles.naive_max_free(size, edges)[0]
        bound = bb.bound(selected, undecided, alive)
        assert largest <= bound <= _packing_bound(bb, selected, undecided, alive)
        if v is None:
            break
        take = data.draw(st.booleans())
        child = bb.include(1 << v, selected, undecided, alive) if take else None
        if child is None:
            undecided &= ~(1 << v)
            alive &= ~bb.inc[v]
        else:
            selected, undecided, alive = child


def test_witness_check_is_kept_under_python_O():
    # the independent check must not be an assert, which -O strips
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import replab.search as s\n"
            "s.verify_free = lambda points, edges: False\n"
            "print(s.max_free(s.ForbiddenHypergraph(3, [(0, 1)])))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "AssertionError: solver witness failed independent check" in proc.stderr


@given(random_hypergraphs())
def test_wcnf_round_trip_matches_solver(h):
    header, clauses = oracles.parse_wcnf(export_wcnf(h))
    assert header == (h.size, h.size + len(h.edges), h.size + 1)
    optimum = oracles.wcnf_optimum(header, clauses)
    assert h.size - optimum == max_free(h)[0]


def test_wcnf_exact_bytes():
    h = ForbiddenHypergraph(4, [(0, 1, 2, 3)])
    assert export_wcnf(h) == (
        "p wcnf 4 5 5\n"
        "1 1 0\n"
        "1 2 0\n"
        "1 3 0\n"
        "1 4 0\n"
        "5 -1 -2 -3 -4 0\n"
    )


# -- density records and their check ------------------------------------------------


@pytest.mark.parametrize("family", [
    lambda: lines(3, 2),
    lambda: grids(FiniteField(3), 1, 2),
    lambda: forbidden_family(list(unit_tuples(3)), 2),
], ids=["lines", "grids", "forbidden"])
def test_check_accepts_the_solved_record_and_its_json(family):
    record = family().solve()
    assert family().check(record)
    # a cached witness comes back as lists, of lists for vector points
    assert family().check(DensityRecord.from_json(json.loads(json.dumps(record.to_json()))))


def test_check_rejects_each_defect():
    family = lines(3, 2)
    record = family.solve()
    assert record.witness_size == 6 and family.check(record)
    diagonal = [(0, 0), (1, 1), (2, 2)]
    for bad in (
        replace(record, value=Fraction(5, 9)),
        replace(record, witness=record.witness[:-1] + record.witness[:1]),
        replace(record, universe_size=10),
        replace(record, witness=record.witness[:-1] + [(3, 0)]),
        replace(record, witness=diagonal, witness_size=3, value=Fraction(3, 9)),
        replace(record, witness=None),
    ):
        assert not family.check(bad)


def test_solve_raises_when_its_record_fails_check(monkeypatch):
    monkeypatch.setattr(search.StructureFamily, "check", lambda self, record: False)
    with pytest.raises(AssertionError, match="failed independent re-enumeration check"):
        lines(3, 2).solve()


# -- symmetry -----------------------------------------------------------------------


def _group(h):
    return search._generated(h.size, h.generators)


def _orbits(group, size):
    return [[w for w in range(size) if group.orbit(v) >> w & 1] for v in range(size)]


def _order(group, size):
    """The group's order: the product of the orbit sizes along the walk of
    point stabilisers of 0, .., size-1."""
    order = 1
    for v in range(size):
        order *= group.orbit(v).bit_count()
        group = group.stabiliser(v)
    return order


def test_group_orbits_and_stabilisers():
    # shift by one on 4 points: one orbit, and only the identity fixes 0
    shift = _group(ForbiddenHypergraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                                       generators=[(1, 2, 3, 0)]))
    assert _order(shift, 4) == 4
    assert _orbits(shift, 4) == [[0, 1, 2, 3]] * 4
    assert shift.stabiliser(0).trivial
    fixed = _group(ForbiddenHypergraph(3, [(0, 1)], generators=[(0, 1, 2)]))
    assert fixed.trivial and _orbits(fixed, 3) == [[0], [1], [2]]
    swaps = _group(ForbiddenHypergraph(4, [(0, 1), (2, 3)], generators=[(1, 0, 3, 2)]))
    assert _orbits(swaps, 4) == [[0, 1], [0, 1], [2, 3], [2, 3]]
    assert swaps.stabiliser(0).trivial


def test_square_group_is_transitive():
    # 16 translations, the coordinate swap and the player swap
    group = _group(squares(2).to_hypergraph())
    assert _order(group, 16) == 64
    assert group.orbit(0) == (1 << 16) - 1


@given(st.data())
def test_group_walk_matches_explicit_closure(data):
    # 1-3 random generators on at most 9 points, then a walk of point
    # stabilisers in random order: at each step the orbits and triviality
    # are those of the explicit group's elements that fix the points so far
    size = data.draw(st.integers(1, 9))
    gens = [tuple(data.draw(st.permutations(range(size))))
            for _ in range(data.draw(st.integers(1, 3)))]
    group = search._generated(size, gens)
    elements = oracles.generated_group(gens, size)
    for v in data.draw(st.permutations(range(size))) + [None]:
        assert group.trivial == (len(elements) == 1)
        for w, images in enumerate(zip(*elements)):
            assert group.orbit(w) == sum(1 << x for x in set(images))
        if v is not None:
            group = group.stabiliser(v)
            elements = {e for e in elements if e[v] == v}


@pytest.mark.parametrize("field,n,order", [
    (FiniteField(3), 2, 9 * 2 * 4),
    (FiniteField(2), 6, 64 * 720),
    (FiniteField(3), 4, 81 * 24 * 16),
], ids=["GF3,n=2", "GF2,n=6", "GF3,n=4"])
def test_grid_group_orders(field, n, order):
    # translations, the coordinate permutations and, over GF(3), the scalars
    assert _order(_group(grids(field, 1, n).to_hypergraph()), field.order ** n) == order


@pytest.mark.parametrize("support,n,order", [
    (unit_tuples(4), 3, 144),
    (grid_question_set(FiniteField(3), 2), 2, 3888),
    (ghz_support(), 3, 2304),
], ids=["unitvec(4)", "grid(GF3,k=2)", "ghz"])
def test_support_group_orders(support, n, order):
    h = forbidden_family(list(support), n).to_hypergraph()
    assert _order(_group(h), h.size) == order


@pytest.mark.parametrize("q,n", [(3, 3), (4, 2), (2, 4), (2, 1)])
def test_line_group_order(q, n):
    assert _order(_group(lines(q, n).to_hypergraph()), q ** n) == (
        math.factorial(n) * math.factorial(q))


@pytest.mark.parametrize("family", [
    lambda: squares(1), lambda: squares(2), lambda: corners(2),
    lambda: grids(FiniteField(3), 1, 2), lambda: grids(FiniteField(2), 1, 4),
    lambda: lines(3, 3), lambda: lines(2, 5),
    lambda: forbidden_family(list(unit_tuples(3)), 3),
    lambda: forbidden_family(list(unit_tuples(4)), 2),
    lambda: forbidden_family(list(ghz_support()), 2),
    lambda: forbidden_family(list(grid_question_set(FiniteField(3), 2)), 2),
    lambda: forbidden_family(list(preset_game("anticorr", q=3).support), 2),
])
def test_symmetry_reduction_is_lossless(family):
    h = family().to_hypergraph()
    assert h.generators
    plain = ForbiddenHypergraph(h.size, h.edges)
    assert max_free(h) == max_free(plain)


@st.composite
def symmetric_hypergraphs(draw):
    """Random edges on at most 10 points, closed under 1-2 random point
    permutations, which are the generators."""
    size = draw(st.integers(3, 10))
    gens = [tuple(draw(st.permutations(range(size)))) for _ in range(draw(st.integers(1, 2)))]
    edges = set()
    for _ in range(draw(st.integers(0, 3))):
        base = draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=min(4, size)))
        frontier = [tuple(sorted(base))]
        while frontier:
            e = frontier.pop()
            if e not in edges:
                edges.add(e)
                frontier += [tuple(sorted(g[v] for v in e)) for g in gens]
    return ForbiddenHypergraph(size, sorted(edges), generators=gens)


@given(symmetric_hypergraphs())
def test_orbital_branching_matches_naive(h):
    assert max_free(h) == oracles.naive_max_free(h.size, h.edges)


@pytest.mark.parametrize("generators", [[], [tuple(range(1, 300)) + (0,)]],
                         ids=["plain", "shift"])
def test_max_free_past_256_points(generators):
    # the 300-cycle: above 256 points the group is trivial, generators or not
    h = ForbiddenHypergraph(300, [(v, (v + 1) % 300) for v in range(300)],
                            generators=generators)
    assert _group(h).trivial
    assert max_free(h, budget=300) == (150, tuple(range(0, 300, 2)))
