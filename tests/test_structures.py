"""Structure families, exact densities, and the point bijections of the
paper's equivalences."""

import hashlib
import itertools
import math
from fractions import Fraction

import pytest

import oracles
from replab import search
from replab.errors import BudgetExceededError
from replab.fields import FiniteField
from replab.forbidden import compute_eq, find_forbidden, forbidden_family
from replab.games import preset_game, unit_tuples
from replab.search import verify_free
from replab.structures import (corners, ghz_support, grid_question_set,
                               grid_round_codes, grids, lines,
                               r_corner, r_grid, r_line, r_square, squares)

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2)


def _config_point_sets(family):
    return {frozenset(family.universe[i] for i in cfg)
            for cfg in family.configurations()}


# -- families against the naive enumerations ----------------------------------------


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)])
def test_lines_match_naive(q, n):
    family = lines(q, n)
    assert _config_point_sets(family) == oracles.naive_lines(q, n)
    # distinct templates give distinct lines once q >= 2
    assert len(list(family.configurations())) == (q + 1) ** n - q**n


def test_lines_q1_collapse_to_the_single_point():
    family = lines(1, 2)
    assert list(family.universe) == [(0, 0)]
    assert list(family.configurations()) == [(0,)]


@pytest.mark.parametrize("n", [1, 2])
def test_squares_match_naive(n):
    family = squares(n)
    assert _config_point_sets(family) == oracles.naive_squares(n)


def test_square_counts():
    assert len(list(squares(1).configurations())) == 1
    assert len(list(squares(2).configurations())) == 12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_corners_match_naive(n):
    # from n = 3 on the squares have several directions d
    family = corners(n)
    assert _config_point_sets(family) == oracles.naive_corners(n)
    # a corner lies in one square: each square's four 3-subsets are distinct
    # corners, so none is listed twice
    assert len(list(family.configurations())) == 4**n * (2**n - 1)


@pytest.mark.parametrize("field,k,n", [
    (F2, 2, 1), (F2, 2, 2), (F3, 2, 1), (F3, 1, 1), (F3, 1, 2), (F4, 2, 1),
    (F2, 1, 3), (F4, 1, 2), (F2, 3, 1), (FiniteField(5), 1, 2),
])
def test_grids_match_naive(field, k, n):
    # the coset products against every {x + a*d} as point sets, each grid
    # listed once
    family = grids(field, k, n)
    configs = list(family.configurations())
    assert len(set(configs)) == len(configs)
    assert _config_point_sets(family) == oracles.naive_grids(field, k, n)


@pytest.mark.parametrize("field,k,n", [
    (F2, 1, 6), (F3, 1, 3), (FiniteField(5), 1, 2), (F4, 1, 2), (F4, 2, 1), (F2, 2, 3),
])
def test_grids_keep_each_cell_from_its_minimum_base(field, k, n):
    # the edge order of the hypergraph and of WCNF dumps follows this list
    assert list(grids(field, k, n).configurations()) == oracles.min_base_grids(field, k, n)


# sha256 of repr(list(family.configurations())): the edge order of the
# hypergraphs, WCNF dumps and density witnesses, which a faster
# construction must keep
CONFIGURATION_SHA256 = {
    ("grid", 2, 1, 1, 6): "78783ab25406097598c0145604d29ca8cc41b234abc9c7c7aeb1e7d559086652",
    ("grid", 3, 1, 1, 3): "bbec549c973cc78c173f8dc6e838a88db3e978bec2a34a11fc835ee9e71f7be2",
    ("grid", 5, 1, 1, 2): "ef0dda362b9ca60c3989d21b83c72bc20979124a7db710894d2d3f6355b13003",
    ("grid", 2, 2, 2, 1): "9e237044f2c6795dbc9227745a8925f2ff24b14b018edce9e64605a17864a905",
    ("grid", 2, 2, 1, 2): "5184709d0ac2cb35b50d790dfb87cf9cddfec831e537be5811d6a1adbd4d3389",
    ("grid", 3, 1, 2, 2): "f7201fd582a40c31a82e59c86dd8424cd589ab2c30180817c9ba9240a6e351b7",
    ("grid", 3, 2, 1, 2): "eb0342ee5744810d8f3f641d26a43ef70ed3719afdb6b3f65f1fc52193de6bb2",
    ("grid", 2, 3, 1, 2): "1850913068ad859062d2d8f4e1d04144539d9a0979c16ce9d877ee4f319895fb",
    ("grid", 2, 1, 3, 2): "9186aebe6a6ab4292a2f9e008dcac25710e0a17b92348eb3d5aca8e88504a4ea",
    ("square", 3): "406031a83f7b828d4f5261921e5c844878f1cb10d78c4539bcebee2e0f4aa397",
    ("corner", 3): "7a0c3bb9d7a59bb1d8a40f1d28c2a526d6b27be9e38d231e9198cf8425141284",
    ("line", 2, 7): "5399753f3cbaf2ce565dbc1ec526d725e455d6cda2d17a12cd3213cafa65f90e",
    ("line", 3, 4): "d97dd21463bc71ef9dcc5ee431c30abc064dad534f3e3c086abc57c3f607ab0a",
    ("line", 4, 3): "2df152b4b02b335c3fa836757e0bb826a5209f1eac3f2a495f93eb9ea8fcb75d",
    ("line", 1, 3): "78fce9491f4b0e3b895728f3c6efe71e16e4ae77f5f6db9148e6e0584bc5fd42",
}


@pytest.mark.parametrize("case", sorted(CONFIGURATION_SHA256, key=repr), ids=repr)
def test_configuration_order_is_pinned(case):
    name, *params = case
    if name == "grid":
        p, r, k, n = params
        family = grids(FiniteField(p, r), k, n)
    else:
        family = {"square": squares, "corner": corners, "line": lines}[name](*params)
    digest = hashlib.sha256(repr(list(family.configurations())).encode()).hexdigest()
    assert digest == CONFIGURATION_SHA256[case]


def test_grids_of_gf2_are_squares():
    for n in (1, 2):
        g, s = grids(F2, 2, n), squares(n)
        assert (s.name, s.params) == ("square", {"n": n})
        assert list(g.universe) == list(s.universe)
        assert set(g.configurations()) == set(s.configurations())
        assert g.generators == s.generators


@pytest.mark.parametrize("solve,size", [
    (lambda: r_square(4), 256),
    (lambda: r_grid(F3, 1, 7), 2187),
    (lambda: r_line(3, 5), 243),
], ids=["square-4", "grid-GF3-1-7", "line-3-5"])
def test_solve_refuses_past_the_solver_budget_before_enumerating(solve, size, monkeypatch):
    # the family is built under the enumeration budget; solve() refuses it
    # before a configuration is enumerated or the solver runs
    def unreachable(*args):
        raise AssertionError("enumerated past the solver budget")

    monkeypatch.setattr(search.StructureFamily, "configurations", unreachable)
    monkeypatch.setattr(search, "max_free", unreachable)
    with pytest.raises(BudgetExceededError) as refused:
        solve()
    assert str(refused.value) == (f"{size} points exceed the solver budget 128; "
                                  "use export_wcnf and an external MaxSAT solver")


def test_family_budgets():
    with pytest.raises(BudgetExceededError):
        lines(3, 8)
    with pytest.raises(BudgetExceededError):
        squares(7)
    with pytest.raises(ValueError):
        lines(0, 1)
    # corners are built from squares but keep their own refusals
    with pytest.raises(ValueError, match=r"^need n >= 1$"):
        corners(0)
    with pytest.raises(BudgetExceededError, match=r"^4\*\*7 points exceed the budget 4096$"):
        corners(7)
    # squares(n) are grids with k = 2, but the caller never gives a k
    with pytest.raises(ValueError, match=r"^need n >= 1$"):
        squares(0)


def test_family_index_round_trip():
    family = squares(1)
    for i, p in enumerate(family.universe):
        assert family.index(p) == i
    assert len(family) == 4
    with pytest.raises(ValueError):
        family.index(((0,),))
    with pytest.raises(ValueError):
        family.index(((0,), (2,)))


def test_family_generators_validate():
    # constructing the hypergraph checks that every generator permutes the
    # edge family; the loop below checks it again on a fresh enumeration
    supports = [unit_tuples(3), unit_tuples(4), ghz_support(),
                grid_question_set(F3, 2), preset_game("anticorr", q=3).support]
    families = [squares(2), corners(2), grids(F3, 2, 1), lines(3, 3), lines(2, 4)]
    families += [forbidden_family(list(support), 2) for support in supports]
    for family in families:
        h = family.to_hypergraph()
        assert h.generators
        configs = set(family.configurations())
        for g in h.generators:
            assert sorted(g) == list(range(len(family)))
            assert {tuple(sorted(g[v] for v in c)) for c in configs} == configs


# -- densities ------------------------------------------------------------------------


def test_r_line_sperner_search_and_closed_form():
    for n in range(1, 5):
        searched = r_line(2, n, method="search")
        closed = r_line(2, n, method="closed-form")
        expected = Fraction(math.comb(n, n // 2), 2**n)
        assert searched.value == closed.value == expected
        assert searched.method == "exact-bb"
        assert closed.method == "closed-form"


def test_r_line_closed_form_witness_is_the_middle_layer():
    rec = r_line(2, 4, method="closed-form")
    assert rec.witness_size == 6
    assert sorted(rec.witness) == sorted(
        w for w in itertools.product((0, 1), repeat=4) if sum(w) == 2)
    # the witness is line-free by the naive enumeration
    universe = list(itertools.product((0, 1), repeat=4))
    chosen = set(map(tuple, rec.witness))
    for line in oracles.naive_lines(2, 4):
        assert not line <= chosen


def test_r_line_closed_form_witness_omitted_when_large():
    assert r_line(2, 12, method="closed-form").witness is not None
    rec = r_line(2, 13, method="closed-form")
    assert rec.witness is None
    assert rec.value == Fraction(math.comb(13, 6), 2**13)


def test_r_line_auto_falls_back_beyond_the_solver_budget():
    # the solver's point budget is 128 = 2**7
    assert r_line(2, 7).method == "exact-bb"
    assert r_line(2, 8).method == "closed-form"
    assert r_line(2, 20).value == Fraction(math.comb(20, 10), 2**20)


def test_r_line_validation():
    with pytest.raises(ValueError):
        r_line(2, 3, method="guess")
    with pytest.raises(ValueError):
        r_line(3, 2, method="closed-form")
    with pytest.raises(BudgetExceededError):
        r_line(3, 5, method="search")
    for method in ("auto", "search", "closed-form"):
        for q, n in ((2, 0), (0, 2)):
            with pytest.raises(ValueError, match="need q >= 1 and n >= 1"):
                r_line(q, n, method=method)


def test_r_line_degenerate_q1():
    for n in (1, 2, 3):
        rec = r_line(1, n)
        assert rec.value == 0
        assert rec.witness == []


def test_r_line_dhj_values():
    assert r_line(3, 1).value == Fraction(2, 3)
    rec = r_line(3, 2)
    assert rec.value == Fraction(6, 9)
    assert rec.witness_size == 6


def test_polymath_c4_line_and_unit_vector_densities():
    # c_4 = 52 (Polymath, Density Hales-Jewett and Moser numbers)
    family = lines(3, 4)
    line = r_line(3, 4)
    eq = compute_eq(list(unit_tuples(3)), 4)
    for rec in (line, eq):
        assert rec.value == Fraction(52, 81)
        assert rec.witness_size == len(rec.witness) == 52
        assert verify_free([family.index(p) for p in rec.witness],
                           family.configurations())
        assert find_forbidden(unit_tuples(3), 4, rec.witness) is None


def test_r_square_values():
    assert r_square(1).value == Fraction(3, 4)
    rec = r_square(2)
    assert rec.value == Fraction(12, 16)
    assert rec.witness_size == 12
    density, _ = oracles.naive_free_density(squares(2).universe,
                                            oracles.naive_squares(2))
    assert density == rec.value


def test_r_corner_values():
    assert r_corner(1).value == Fraction(1, 2)
    rec = r_corner(2)
    density, _ = oracles.naive_free_density(corners(2).universe,
                                            oracles.naive_corners(2))
    assert rec.value == density


def test_r_grid_values():
    assert r_grid(F3, 2, 1).value == Fraction(8, 9)
    for n in (1, 2):
        assert r_grid(F2, 2, n).value == r_square(n).value
    # k = 1 over GF(3) is the cap-set problem; at n = 1 a cap has 2 points
    assert r_grid(F3, 1, 1).value == Fraction(2, 3)
    assert r_grid(F3, 1, 2).value == Fraction(4, 9)


def test_density_records_carry_free_witnesses():
    for rec, family in ((r_square(2), squares(2)), (r_corner(1), corners(1)),
                        (r_grid(F3, 2, 1), grids(F3, 2, 1))):
        chosen = {tuple(p) for p in rec.witness}
        assert len(chosen) == rec.witness_size
        for cfg in _config_point_sets(family):
            assert not cfg <= chosen


# -- point bijections with forbidden configurations ---------------------------------


def _carries_onto_the_forbidden_configurations(support, n, family, codes) -> None:
    """codes, the identity when None, is a bijection onto the n-fold points
    of support that carries the family's configurations onto exactly the
    forbidden ones."""
    codes = range(len(family)) if codes is None else codes
    target = forbidden_family(support, n)
    assert sorted(codes) == list(range(len(family))) == list(range(len(target)))
    carried = {tuple(sorted(codes[v] for v in cfg)) for cfg in family.configurations()}
    assert carried == set(target.configurations())


def test_line_witness_bijection():
    # lines need no codes: a line's points are its configuration's codes
    for q in (1, 3, 4):
        for n in (1, 2, 3):
            _carries_onto_the_forbidden_configurations(unit_tuples(q), n, lines(q, n), None)


@pytest.mark.parametrize("field,k,n", [(F3, 2, 1), (F2, 2, 2), (F4, 2, 1), (F2, 2, 1),
                                       (F2, 2, 3), (F3, 2, 2), (F2, 3, 1), (F2, 3, 2)])
def test_grid_witness_bijection(field, k, n):
    _carries_onto_the_forbidden_configurations(
        grid_question_set(field, k), n, grids(field, k, n), grid_round_codes(field, k, n))


def test_ghz_support_and_grid_question_set():
    assert ghz_support() == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert tuple(grid_question_set(F2, 2)) == ghz_support()
    gf3 = grid_question_set(F3, 2)
    assert len(gf3) == 9
    for x in gf3:
        assert x[2] == F3.add(x[0], x[1])
    gf4 = grid_question_set(F4, 2)
    assert len(gf4) == 16
    for x in gf4:
        assert len(x) == 4
        assert x[2] == F4.add(F4.mul(1, x[0]), x[1])
        assert x[3] == F4.add(F4.mul(2, x[0]), x[1])
    with pytest.raises(ValueError):
        grid_question_set(F3, 1)


def test_affine_embedding_bounds_the_density():
    # free sets of the subspace support pull back to grid-free sets, so the
    # support's density never exceeds the grid density of the coefficient
    # space; at dimension 1 over GF(3) that bound is (2/3)**n.  Each support
    # is an affine line offset + c * step, written out for c = 0, 1, 2.
    supports = [
        [(0, 1, 0), (1, 2, 2), (2, 0, 1)],  # (0,1,0) + c * (1,1,2)
        [(2, 0, 1), (0, 2, 2), (1, 1, 0)],  # (2,0,1) + c * (1,2,1)
        [(0, 0, 1, 2), (2, 1, 2, 1), (1, 2, 0, 0)],  # (0,0,1,2) + c * (2,1,1,2)
    ]
    for support in supports:
        for n in (1, 2):
            eq = compute_eq(support, n)
            bound = r_grid(F3, 1, n).value
            assert eq.value <= bound == Fraction(2, 3) ** n
            assert find_forbidden(support, n, eq.witness) is None
