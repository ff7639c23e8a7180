"""Acceptance checks, one test per criterion.

Each test wraps its body in conftest.criterion(), which enforces the stated
wall-clock limit and contributes a one-line verdict to the "acceptance
criteria" section at the end of the pytest run.  Values are exact rationals,
so every comparison below is equality, not approximation.
"""

import math
from fractions import Fraction

import oracles
from conftest import criterion
from replab import forbidden, structures
from replab.fields import FiniteField
from replab.games import (Strategy, evaluate, exact_value, preset_game,
                          unit_tuples)
from replab.repetition import independent_strategy, repeat
from replab.rng import SplitMix64
from replab.search import ForbiddenHypergraph, export_wcnf, max_free
from replab.structures import ghz_support, grid_question_set

UNIT3 = list(unit_tuples(3))
GHZ = list(ghz_support())


def _random_product_strategy(game, rng):
    tables = []
    for j in range(game.k):
        answers = list(game.answer_alphabets[j])
        tables.append({x: answers[rng.below(len(answers))]
                       for x in game.question_domain(j)})
    return Strategy.from_tables(tables)


def test_01_anticorrelation_value():
    with criterion(1, 1.0, "anticorr(3) has exact value 2/3"):
        result = exact_value(preset_game("anticorr", q=3))
        assert result.value == Fraction(2, 3)
        assert evaluate(preset_game("anticorr", q=3), result.strategy) \
            == Fraction(2, 3)


def test_02_antichain_regression():
    with criterion(2, 10.0, "r_line(2,n) equals the middle binomial layer"):
        for n in range(1, 5):
            record = structures.r_line(2, n, method="search")
            assert record.value == Fraction(math.comb(n, n // 2), 2**n)
            assert record.method == "exact-bb"
        for n in range(1, 21):
            record = structures.r_line(2, n, method="closed-form")
            assert record.value == Fraction(math.comb(n, n // 2), 2**n)


def test_03_degenerate_cases():
    with criterion(3, None, "two-point supports give 1/2^n; r_line(1,n) = 0"):
        # with two support tuples every pair of distinct repeated questions
        # is a forbidden configuration, so only singletons are free
        for support in (list(unit_tuples(2)), [(0, 0), (0, 1)]):
            for n in range(1, 5):
                record = forbidden.compute_eq(support, n)
                assert record.value == Fraction(1, 2**n)
                assert record.witness_size == 1
        for n in range(1, 5):
            assert structures.r_line(1, n).value == 0


def test_04_line_density_equivalence():
    with criterion(4, 60.0, "unit-vector support density = line-free density"):
        expected = {1: (Fraction(2, 3), 2), 2: (Fraction(6, 9), 6)}
        for n in (1, 2):
            value, size = expected[n]
            eq = forbidden.compute_eq(UNIT3, n)
            line = structures.r_line(3, n)
            assert eq.value == line.value == value
            assert eq.witness_size == size
            family = structures.lines(3, n)
            naive, _ = oracles.naive_free_density(
                family.universe, oracles.naive_lines(3, n))
            assert naive == value


def test_05_square_density_equivalence():
    with criterion(5, 120.0, "xor-support density = square-free density"):
        for n in (1, 2):
            eq = forbidden.compute_eq(GHZ, n)
            assert eq.value == structures.r_square(n).value
        naive, _ = oracles.naive_free_density(
            structures.squares(1).universe, oracles.naive_squares(1))
        assert naive == Fraction(3, 4)
        assert forbidden.compute_eq(GHZ, 1).value == Fraction(3, 4)


def test_06_grid_equivalences():
    with criterion(6, None, "grid family matches squares; dim-1 bound holds"):
        f2 = FiniteField(2)
        f3 = FiniteField(3)
        for n in (1, 2):
            grid = structures.grids(f2, 2, n)
            square = structures.squares(n)
            assert list(grid.universe) == list(square.universe)
            assert ({tuple(sorted(c)) for c in grid.configurations()}
                    == {tuple(sorted(c)) for c in square.configurations()})
        support = list(grid_question_set(f3, 2))
        eq = forbidden.compute_eq(support, 1)
        assert eq.value == structures.r_grid(f3, 2, 1).value == Fraction(8, 9)
        # the affine line (0,1,0) + c * (1,1,2) over GF(3)
        points = [(0, 1, 0), (1, 2, 2), (2, 0, 1)]
        for n in (1, 2, 3):
            assert forbidden.compute_eq(points, n).value <= Fraction(2, 3)**n


def test_07_answer_game_pipeline():
    with criterion(7, 300.0, "answer-game repeated value = extremal density"):
        for support in (UNIT3, GHZ):
            for n in (1, 2):
                eq = forbidden.compute_eq(support, n)
                game = forbidden.build_answer_game(
                    ((0, 1),) * 3, support, n, [tuple(w) for w in eq.witness])
                assert exact_value(game, budget=10**7).value < 1
                rep = repeat(game, n)
                strat = forbidden.strategy_from_witness(support, n)
                assert evaluate(rep, strat) == eq.value
                assert forbidden.check_winning_set_free(rep, strat)
                if n == 1:
                    assert exact_value(rep).value == eq.value
                else:
                    # winning sets of product strategies are always
                    # configuration-free, so no strategy can beat the
                    # witness density; sample a few as a spot check
                    rng = SplitMix64(5)
                    for _ in range(25):
                        other = _random_product_strategy(rep, rng.split())
                        assert evaluate(rep, other) <= eq.value
                        assert forbidden.check_winning_set_free(rep, other)


def test_08_random_strategies_win_on_free_sets():
    with criterion(8, 60.0, "1000 random strategies: winning sets all free"):
        game = repeat(preset_game("anticorr", q=3), 2)
        root = SplitMix64(0)
        violations = 0
        for _ in range(1000):
            strategy = _random_product_strategy(game, root.split())
            if not forbidden.check_winning_set_free(game, strategy):
                violations += 1
        assert violations == 0


def test_09_two_round_repetition_value():
    with criterion(9, 60.0, "repeat(anticorr(3),2) value 2/3 >= (2/3)^2"):
        base = preset_game("anticorr", q=3)
        base_val = exact_value(base)
        rep = repeat(base, 2)
        indep = independent_strategy(base_val.strategy, 2)
        assert evaluate(rep, indep) == base_val.value**2 == Fraction(4, 9)
        result = exact_value(rep)
        assert result.value == Fraction(2, 3)
        assert result.value >= base_val.value**2
        assert evaluate(rep, result.strategy) == result.value


def _random_hypergraph(rng, size):
    edges = []
    for _ in range(rng.below(10) + 2):
        arity = 2 + rng.below(3)
        verts = set()
        while len(verts) < arity:
            verts.add(rng.below(size))
        edges.append(tuple(sorted(verts)))
    return ForbiddenHypergraph(size, edges)


def test_10_solver_oracle_equivalence():
    with criterion(10, None, "solver + WCNF agree with exhaustive search x50"):
        rng = SplitMix64(2024)
        sizes = [4 + rng.below(11) for _ in range(40)]
        sizes += [15 + rng.below(4) for _ in range(8)]
        sizes += [19, 20]
        assert len(sizes) == 50 and max(sizes) <= 20
        for size in sizes:
            h = _random_hypergraph(rng, size)
            got_size, got_witness = max_free(h)
            want_size, want_witness = oracles.naive_max_free(h.size, h.edges)
            assert (got_size, got_witness) == (want_size, want_witness)
            header, clauses = oracles.parse_wcnf(export_wcnf(h))
            assert header == (size, size + len(h.edges), size + 1)
            assert oracles.wcnf_optimum(header, clauses) == size - got_size
