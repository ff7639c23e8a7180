"""Forbidden-configuration search, extremal densities, and the answer game."""

import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given
from hypothesis import strategies as st
import pytest

import oracles
from replab import forbidden
from replab.errors import BudgetExceededError
from replab.forbidden import (ForbiddenWitness, build_answer_game,
                              check_winning_set_free, compute_eq, consistent_maps,
                              enumerate_forbidden, find_forbidden, forbidden_family,
                              forbidden_hypergraph, player_symbols,
                              strategy_from_witness, support_symmetries,
                              winning_points, witness_is_valid)
from replab.games import (Strategy, evaluate, exact_value, game_from_json, game_to_json,
                          preset_game, unit_tuples)
from replab.codec import ProductTuples, TupleCodec
from replab.fields import FiniteField
from replab.records import DensityRecord
from replab.repetition import repeat
from replab.rng import SplitMix64
from replab.structures import ghz_support, grid_question_set

UNIT3 = list(unit_tuples(3))
GHZ = list(ghz_support())


def _enumerate_all(support, n):
    """enumerate_forbidden over the whole n-fold support."""
    return enumerate_forbidden(support, n, ProductTuples(range(len(support)), n))


# -- codecs and helpers -----------------------------------------------------------


@given(st.integers(2, 4), st.integers(1, 4), st.integers(0, 10**6))
def test_point_code_round_trip(q, n, raw):
    codec = TupleCodec([range(q)] * n)
    c = raw % q**n
    assert codec.encode(codec.decode(c)) == c


def test_all_points_in_code_order():
    pts = ProductTuples(range(3), 2)
    assert pts[0] == (0, 0)
    assert pts[1] == (1, 0)
    assert pts[5] == (2, 1)
    assert len(pts) == 9


def test_player_symbols():
    assert player_symbols([(0, 5), (1, 3), (0, 3)]) == [[0, 1], [3, 5]]


# -- witness validation ------------------------------------------------------------


def _unit3_full_config(n, i):
    """The configuration using constant-elsewhere points at coordinate i."""
    edges = []
    for s in range(3):
        e = [0] * n
        e[i] = s
        edges.append(tuple(e))
    return ForbiddenWitness(coordinate=i, edges=tuple(edges))


def test_witness_is_valid_accepts_a_line():
    w = _unit3_full_config(2, 1)
    assert witness_is_valid(UNIT3, 2, w)
    assert frozenset(w.edges) == {(0, 0), (0, 1), (0, 2)}


def test_witness_is_valid_rejects_defects():
    good = _unit3_full_config(2, 0)
    assert witness_is_valid(UNIT3, 2, good)
    bad_coord = ForbiddenWitness(coordinate=5, edges=good.edges)
    assert not witness_is_valid(UNIT3, 2, bad_coord)
    bad_pin = ForbiddenWitness(coordinate=1, edges=good.edges)
    assert not witness_is_valid(UNIT3, 2, bad_pin)
    short = ForbiddenWitness(coordinate=0, edges=good.edges[:2])
    assert not witness_is_valid(UNIT3, 2, short)
    # membership in a point set is a separate subset check
    assert not frozenset(good.edges) <= {(0, 0), (1, 0)}
    # break the row-consistency condition: mix two different inactive digits
    mixed = ForbiddenWitness(coordinate=0, edges=((0, 0), (1, 1), (2, 0)))
    assert not witness_is_valid(UNIT3, 2, mixed)


# -- search against the naive oracle -----------------------------------------------


@pytest.mark.parametrize("support,n", [
    (UNIT3, 1), (UNIT3, 2), (GHZ, 1), (GHZ, 2),
    (list(unit_tuples(2)), 3),
])
def test_enumerate_matches_naive_on_full_support(support, n):
    engine = {frozenset(w.edges) for w in _enumerate_all(support, n)}
    naive = oracles.naive_forbidden(support, n, ProductTuples(range(len(support)), n))
    assert engine == naive


def test_enumerate_counts():
    assert len(list(_enumerate_all(UNIT3, 2))) == 7
    assert len(list(_enumerate_all(GHZ, 1))) == 1
    assert len(list(_enumerate_all(GHZ, 2))) == 12


@st.composite
def support_and_points(draw):
    k = draw(st.integers(2, 3))
    q = draw(st.integers(2, 3))
    alphabet = list(range(draw(st.integers(2, 3))))
    tuples = list(itertools.product(alphabet, repeat=k))
    support = draw(st.lists(st.sampled_from(tuples), unique=True,
                            min_size=q, max_size=q))
    n = draw(st.integers(1, 2))
    universe = list(ProductTuples(range(q), n))
    points = draw(st.lists(st.sampled_from(universe), unique=True,
                           min_size=0, max_size=len(universe)))
    return support, n, points


@given(support_and_points())
def test_find_and_enumerate_match_naive_on_subsets(case):
    support, n, points = case
    naive = oracles.naive_forbidden(support, n, points)
    engine = {frozenset(w.edges) for w in enumerate_forbidden(support, n, points)}
    assert engine == naive
    first = find_forbidden(support, n, points)
    assert (first is not None) == bool(naive)
    if first is not None:
        assert witness_is_valid(support, n, first)
        assert frozenset(first.edges) <= set(points)
        assert frozenset(first.edges) in naive


@st.composite
def support_and_domains(draw):
    k = draw(st.integers(1, 3))
    alphabet = list(range(draw(st.integers(1, 3))))
    tuples = list(itertools.product(alphabet, repeat=k))
    support = draw(st.lists(st.sampled_from(tuples), unique=True, min_size=1, max_size=4))
    full = (1 << len(support)) - 1
    domains = draw(st.one_of(
        st.just((full,) * len(support)),
        st.tuples(*[st.integers(0, full)] * len(support))))
    return support, domains


@given(support_and_domains())
def test_consistent_maps_match_naive(case):
    support, domains = case
    maps = consistent_maps(tuple(support), domains)
    assert list(maps) == sorted(oracles.naive_consistent_maps(support, domains))


# sha256 of repr([(w.coordinate, w.edges), ..]) from enumerate_forbidden:
# the order of construction, coordinates ascending and then each round's
# consistent maps in lexicographic order
ENUMERATION_SHA256 = {
    ("unit3", 1): "7736c3e5f6b6af9475b38681e23dd9d9ec58814500c433662b01b45580bfc0a4",
    ("unit3", 2): "955734ce861f61e6ee7b11c1f3df3d1121c9cf6409c0620836ab6a342ac209cc",
    ("unit3", 3): "ca3a2c37ad1f38b2b600372db837e55119ffb21d021616db19733a23dcb32c82",
    ("unit3", 4): "add36579e6f40f927eeedd44ae36de2926d83886cf5fc909fadc2cabfdf1738a",
    ("ghz", 1): "46254ac08ed8c167fde0245a840e5dc306aaec2c0a86ce14cf17074964c238f5",
    ("ghz", 2): "6d8671a70d6da05581ab7ea4e60b8a42a8fbec8f17f37fb8ca0446b8cb27404e",
    ("ghz", 3): "0ece5cd79f5ded4fa914c6290175c1c588952d33a0597bcce4ccd12b8f395ac7",
    ("unit4", 3): "11381b305aceff6d2df922e7e25e0e44a166c3d8246d54ba473b7293389626f7",
    ("grid3", 2): "c37c550d0576a0ff1b50dd1c359ab47f693aad4054cc35bceb9dadc3bff34deb",
}
SUPPORTS = {"unit3": UNIT3, "ghz": GHZ, "unit4": list(unit_tuples(4)),
            "grid3": list(preset_game("grid", p=3, k=2).support)}


@pytest.mark.parametrize("name,n", sorted(ENUMERATION_SHA256))
def test_enumeration_order_is_pinned(name, n):
    found = [(w.coordinate, w.edges) for w in _enumerate_all(SUPPORTS[name], n)]
    digest = hashlib.sha256(repr(found).encode()).hexdigest()
    assert digest == ENUMERATION_SHA256[(name, n)]


def test_enumeration_order_past_the_default_point_budget():
    found = [(w.coordinate, w.edges) for w in _enumerate_all(UNIT3, 5)]
    assert len(found) == 4**5 - 3**5
    digest = hashlib.sha256(repr(found).encode()).hexdigest()
    assert digest == "88fb7cf6e1e60a5ed2623a6802c8aab0b5a28ae4dbda313a0497e3e2958c2afe"


@pytest.mark.parametrize("support", [UNIT3, GHZ], ids=["unit3", "ghz"])
@pytest.mark.parametrize("i", [0, 1])
def test_a_missing_symbol_empties_its_coordinate(support, i):
    # slot s holds the points whose coordinate i is s: drop every point with
    # coordinate i equal to 1, and no configuration is left at coordinate i
    universe = list(ProductTuples(range(len(support)), 2))
    points = [w for w in universe if w[i] != 1]
    coordinates = {w.coordinate for w in enumerate_forbidden(support, 2, points)}
    assert coordinates == {1 - i}
    assert find_forbidden(support, 2, points).coordinate == 1 - i
    product = [w for w in universe if w[0] != 1 and w[1] != 2]
    assert find_forbidden(support, 2, product) is None


@pytest.mark.parametrize("point", [(-1,), (5,), (0, 1)])
def test_points_off_the_support_indices_are_refused(point):
    points = [(0,), (2,), point]
    with pytest.raises(ValueError, match=re.escape(repr(point))):
        find_forbidden(UNIT3, 1, points)
    with pytest.raises(ValueError, match=re.escape(repr(point))):
        enumerate_forbidden(UNIT3, 1, points)
    with pytest.raises(ValueError, match=re.escape(repr(point))):
        build_answer_game(((0, 1),) * 3, UNIT3, 1, points)


def test_points_must_hold_ints():
    # build_answer_game reads its points through int(); the search does not
    with pytest.raises(ValueError, match=re.escape("(1.0,)")):
        find_forbidden(UNIT3, 1, [(0,), (1.0,), (2,)])
    # checked before the points are deduplicated, so an unhashable one too
    with pytest.raises(ValueError, match=re.escape("([0],)")):
        find_forbidden(UNIT3, 1, [(0,), ([0],), (2,)])


def test_repeated_points_count_once():
    found = find_forbidden(UNIT3, 1, [(0,), (0,), (1,), (2,)])
    assert found == ForbiddenWitness(coordinate=0, edges=((0,), (1,), (2,)))
    assert len(list(enumerate_forbidden(UNIT3, 2, [(0, 1), (0, 1), (1, 1), (2, 1)]))) == 1


def test_searches_past_the_configuration_budget_are_refused(monkeypatch):
    monkeypatch.setattr(forbidden, "DEFAULT_CONFIG_BUDGET", 100)
    # one player tells every index apart, so all 4**4 maps are consistent
    support = [(s,) for s in range(4)]
    with pytest.raises(BudgetExceededError, match="^more than 100 consistent maps"):
        find_forbidden(support, 2, list(ProductTuples(range(4), 2)))
    # configurations stream as they are built: the first comes out under
    # the budget, and the 101st of the 781 at unit(3), n = 5, is refused
    first = next(_enumerate_all(UNIT3, 5))
    assert first.coordinate == 0 and witness_is_valid(UNIT3, 5, first)
    with pytest.raises(BudgetExceededError, match="^more than 100 forbidden configurations$"):
        list(_enumerate_all(UNIT3, 5))


def test_enumerate_point_budget():
    # a family is built on at most search.ENUMERATION_BUDGET = 4,096 points
    assert len(forbidden_family(UNIT3, 7)) == 3**7
    with pytest.raises(BudgetExceededError, match=r"^3\*\*8 points exceed the budget 4096$"):
        forbidden_family(UNIT3, 8)


def test_forbidden_family_builds_past_the_solver_budget_by_default():
    # 243 points, past the solver's 128: built and enumerated, never solved
    family = forbidden_family(UNIT3, 5)
    assert len(family) == 3**5
    assert len(list(family.configurations())) == 4**5 - 3**5


def test_one_symbol_search_runs_past_the_recursion_limit():
    # one round per DFS level: 1,000 rounds used to overflow Python's stack
    record = compute_eq(list(unit_tuples(1)), 1000)
    assert (record.value, record.witness) == (Fraction(0), [])
    assert len(list(forbidden_family(list(unit_tuples(1)), 4096).configurations())) == 1


def test_configuration_search_runs_past_the_recursion_limit():
    n = 1200
    found = find_forbidden([(0, 1), (1, 0)], n, [(0,) * n, (1,) * n])
    assert found == ForbiddenWitness(coordinate=0, edges=((0,) * n, (1,) * n))


# -- compute_eq ---------------------------------------------------------------------


def test_compute_eq_two_point_support():
    for support in (list(unit_tuples(2)), [(0, 0), (0, 1)]):
        for n in (1, 2, 3):
            rec = compute_eq(support, n)
            assert rec.value == Fraction(1, 2**n)
            assert rec.witness_size == 1


def test_compute_eq_unitvec3():
    rec1 = compute_eq(UNIT3, 1)
    assert rec1.value == Fraction(2, 3)
    rec2 = compute_eq(UNIT3, 2)
    assert rec2.value == Fraction(6, 9)
    assert rec2.witness_size == 6
    assert rec2.universe_size == 9
    assert rec2.witness == sorted(rec2.witness)
    assert find_forbidden(UNIT3, 2, rec2.witness) is None


def test_compute_eq_single_point_support():
    rec = compute_eq([(0, 0, 0)], 2)
    assert rec.value == 0
    assert rec.witness == []
    # consistent with the naive oracle: the lone point forms a configuration
    assert oracles.naive_forbidden([(0, 0, 0)], 2, ProductTuples(range(1), 2))


@pytest.mark.parametrize("n", [1, 128])
def test_compute_eq_one_symbol_support(n):
    # the general path: the lone point forms a configuration, so only the
    # empty set is free
    rec = compute_eq(list(unit_tuples(1)), n)
    assert rec == DensityRecord(
        family="forbidden-free", params={"q": 1, "n": n}, value=Fraction(0),
        witness_size=0, universe_size=1, witness=[], method="exact-bb")


def test_compute_eq_one_symbol_support_refuses_coordinates_past_the_budget():
    # one point is within the solver budget, however many rounds: the family,
    # like r_line(1, n), is refused only past the enumeration budget
    assert compute_eq(list(unit_tuples(1)), 129).value == 0
    with pytest.raises(BudgetExceededError, match="^4097 coordinates exceed the budget 4096$"):
        compute_eq(list(unit_tuples(1)), 4097)


def test_compute_eq_matches_naive_oracle():
    # exhaustive subset search over the naive configuration sets: the same
    # value and the same lexicographically first witness
    for support, n in ((UNIT3, 2), (GHZ, 2)):
        universe = list(ProductTuples(range(len(support)), n))
        configs = oracles.naive_forbidden(support, n, universe)
        density, chosen = oracles.naive_free_density(universe, configs)
        rec = compute_eq(support, n)
        assert rec.value == density
        assert rec.witness == sorted(universe[i] for i in chosen)


def test_witness_checks_are_kept_under_python_O():
    # the search's own witness check must not be an assert, which -O strips
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import replab.forbidden as f\n"
            "from replab.games import unit_tuples\n"
            "f.witness_is_valid = lambda *args: False\n"
            "print(f.compute_eq(list(unit_tuples(3)), 2))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "AssertionError: found configuration failed witness_is_valid" in proc.stderr


def test_compute_eq_refuses_when_config_budget_is_tiny(monkeypatch):
    monkeypatch.setattr(forbidden, "DEFAULT_CONFIG_BUDGET", 1)
    with pytest.raises(BudgetExceededError, match="^more than 1 "):
        compute_eq(UNIT3, 2)


@pytest.mark.parametrize("call", [
    lambda: forbidden_hypergraph([], 2),
    lambda: list(enumerate_forbidden([], 1, [])),
    lambda: find_forbidden([], 2, []),
    lambda: forbidden_family(UNIT3, 0),
], ids=["hypergraph-empty-support", "enumerate-empty-support", "find-empty-support",
        "family-no-rounds"])
def test_families_and_searches_check_their_arguments(call):
    with pytest.raises(ValueError, match="^(the support must be non-empty|"
                                         "repetition count must be >= 1)$"):
        call()


@pytest.mark.parametrize("support,message", [
    ([(0, 0), (1,)], "the support tuples must all have one length"),
    ([(0, 1), (1, 0, 2)], "the support tuples must all have one length"),
    ([(0,), (0,)], "the support tuples must be distinct"),
], ids=["ragged-short", "ragged-long", "repeated"])
def test_malformed_supports_are_refused(support, message):
    # a ragged support used to end in an IndexError or a value, and a
    # repeated tuple, which Game refuses, in a value and a configuration
    for call in (lambda: compute_eq(support, 1), lambda: compute_eq(support, 2),
                 lambda: find_forbidden(support, 2, [(0, 0), (1, 1)])):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_compute_eq_validation():
    with pytest.raises(ValueError):
        compute_eq(UNIT3, 0)
    with pytest.raises(BudgetExceededError):
        compute_eq(UNIT3, 2, point_budget=4)


def test_forbidden_hypergraph_edges(monkeypatch):
    hyper = forbidden_hypergraph(UNIT3, 2)
    assert hyper.size == 9
    assert len(hyper.edges) == 7
    code = TupleCodec([range(3)] * 2).encode
    codes = {tuple(sorted(code(e) for e in w.edges))
             for w in _enumerate_all(UNIT3, 2)}
    assert set(hyper.edges) == codes
    monkeypatch.setattr(forbidden, "DEFAULT_CONFIG_BUDGET", 3)
    with pytest.raises(BudgetExceededError, match="^more than 3 forbidden configurations$"):
        forbidden_hypergraph(UNIT3, 2)


def test_one_round_family_has_no_generators():
    # its one configuration is the whole universe, which no symmetry prunes
    family = forbidden_family(UNIT3, 1)
    assert list(family.configurations()) == [(0, 1, 2)]
    assert family.generators == ()


# -- projected graphs ----------------------------------------------------------------


@st.composite
def small_supports(draw):
    k = draw(st.integers(1, 3))
    tuples = st.tuples(*[st.integers(0, 2)] * k)
    return draw(st.lists(tuples, min_size=1, max_size=6, unique=True))


@given(small_supports(), st.booleans())
def test_support_symmetries_generate_every_relabelling(support, same_players):
    gens = support_symmetries(support, same_players=same_players)
    assert oracles.generated_group(gens, len(support)) == oracles.naive_support_relabellings(
        support, same_players)


@pytest.mark.parametrize("cap", [0, 1, 3, 8])
@given(small_supports(), st.booleans())
def test_capped_symmetry_search_stays_in_the_group(cap, support, same_players):
    # stopped after cap candidate images, the search still returns
    # relabellings, perhaps fewer generators than the whole group needs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forbidden, "SYMMETRY_SEARCH_STEPS", cap)
        gens = support_symmetries(support, same_players=same_players)
    assert oracles.generated_group(gens, len(support)) <= oracles.naive_support_relabellings(
        support, same_players)


@pytest.mark.parametrize("support,n", [
    (GHZ, 2), (list(grid_question_set(FiniteField(3), 2)), 2), (list(unit_tuples(4)), 3),
], ids=["ghz", "grid-gf3-k2", "unitvec4"])
def test_capped_symmetry_search_keeps_the_solve(monkeypatch, support, n):
    # the group only prunes the search: fewer generators, same value and witness
    expected = compute_eq(support, n)
    for cap in (0, 3):
        monkeypatch.setattr(forbidden, "SYMMETRY_SEARCH_STEPS", cap)
        assert compute_eq(support, n) == expected


def test_projected_graph_connectivity():
    # build_answer_game refuses a support whose projected graph, on the
    # (player, symbol) vertices that one tuple shows together, is split
    for support in (UNIT3, GHZ):
        build_answer_game(((0, 1),) * 3, support, 1, [])
    # a path, whose far end joins the component only through its middle
    path = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]
    build_answer_game(((0, 1, 2),) * 2, path, 1, [])
    for split in ([(0, 0), (1, 1)], [(0, 0, 0), (1, 1, 1)]):
        with pytest.raises(ValueError, match="disconnected"):
            build_answer_game(((0, 1),) * len(split[0]), split, 1, [])


def test_projected_graph_adjacency():
    # (0, 1) joins only (0, 0)-(1, 1) and (1, 0) only (1, 0)-(0, 1): two
    # components, until a tuple such as (1, 1) joins (0, 1) to (1, 1)
    with pytest.raises(ValueError, match="disconnected"):
        build_answer_game(((0, 1),) * 2, [(0, 1), (1, 0)], 1, [])
    build_answer_game(((0, 1),) * 2, [(0, 1), (1, 0), (1, 1)], 1, [])


# -- the answer game ------------------------------------------------------------------


def test_build_answer_game_shape():
    rec = compute_eq(UNIT3, 1)
    game = build_answer_game(((0, 1),) * 3, UNIT3, 1, rec.witness)
    assert game.k == 3
    assert len(game.support) == 3
    for j in range(3):
        assert tuple(game.answer_alphabets[j]) == ((0, (0,)), (0, (1,)))


@pytest.mark.parametrize("support, value", [(UNIT3, Fraction(2, 3)), (GHZ, Fraction(3, 4))],
                         ids=["unitvec3", "ghz"])
def test_answer_game_file_round_trip(support, value):
    # the predicate comes back from its answer-game spec, not from a table
    rec = compute_eq(support, 2)
    game = build_answer_game(((0, 1),) * 3, support, 2, rec.witness)
    back = game_from_json(json.loads(json.dumps(game_to_json(game))))
    assert back.predicate_spec["name"] == "answer-game"
    assert back.acceptance() == game.acceptance()
    assert exact_value(back) == exact_value(game)
    assert exact_value(back).value == value


def test_build_answer_game_rejects_bad_input():
    with pytest.raises(ValueError):
        build_answer_game(((0, 1), (0, 1)), [(0, 0), (1, 1)], 1, [(0,)])
    with pytest.raises(ValueError):
        build_answer_game(((0, 1),) * 3, UNIT3, 1, [(0,), (1,), (2,)])


def test_witness_strategy_wins_exactly_on_the_witness():
    for support, alphabets in ((UNIT3, ((0, 1),) * 3), (GHZ, ((0, 1),) * 3)):
        for n in (1, 2):
            rec = compute_eq(support, n)
            game = build_answer_game(alphabets, support, n, rec.witness)
            rep = repeat(game, n)
            strat = strategy_from_witness(support, n)
            assert evaluate(rep, strat) == rec.value
            assert sorted(winning_points(rep, strat)) == rec.witness
            assert check_winning_set_free(rep, strat)


def _seeded_strategy(game, seed):
    rng = SplitMix64(seed)
    return Strategy.from_tables(
        [{x: rng.choice(game.answer_alphabets[j]) for x in game.question_domain(j)}
         for j in range(game.k)])


def _answer_game(support, n):
    rec = compute_eq(support, n)
    return build_answer_game(((0, 1),) * 3, support, n, rec.witness)


@pytest.mark.parametrize("make", [
    *(pytest.param(lambda n=n: (repeat(preset_game("anticorr", q=3), n), []),
                   id=f"anticorr3-{n}") for n in (1, 2, 3)),
    pytest.param(lambda: (repeat(_answer_game(UNIT3, 2), 2), [strategy_from_witness(UNIT3, 2)]),
                 id="answer-game-unit3-2"),
])
def test_winning_points_are_those_the_support_wins(make):
    # one walk of the rounds gives the points that pairing each index
    # vector with its support tuple gives
    game, strategies = make()
    for strategy in strategies + [_seeded_strategy(game, seed) for seed in range(4)]:
        expected = [w for w, x in zip(game.rounds, game.support)
                    if game.predicate(x, tuple(t[q] for t, q in zip(strategy.tables, x)))]
        assert winning_points(game, strategy) == expected


GRID3 = list(grid_question_set(FiniteField(3), 2))


@pytest.mark.parametrize("alphabets, support, n", [
    *((((0, 1),) * 3, UNIT3, n) for n in (1, 2, 3)),
    *((((0, 1),) * 3, GHZ, n) for n in (1, 2)),
    (((0, 1, 2),) * 3, GRID3, 1),
], ids=["unitvec3-1", "unitvec3-2", "unitvec3-3", "ghz-1", "ghz-2", "grid-gf3-1"])
def test_answer_game_tables_are_the_accepted_answers(alphabets, support, n):
    # the tables are read from the answers the predicate lists, not found
    # by calling it; calling it on every combination gives the same sets
    rec = compute_eq(support, n)
    game = build_answer_game(alphabets, support, n, rec.witness)
    assert game.acceptance() == oracles.brute_force_acceptance(game)


def _answer_game_doc(support, n):
    return json.loads(json.dumps(game_to_json(_answer_game(support, n))))


def _unit3_file(edit):
    """The UNIT3 n = 2 answer-game file after edit(answer alphabets, witness)."""
    doc = _answer_game_doc(UNIT3, 2)
    edit(doc["answer_alphabets"], doc["predicate"]["params"]["witness"])
    return doc


@st.composite
def answer_game_files(draw):
    """An answer-game file over UNIT3 or GHZ: each answer alphabet
    shuffled, then left whole, cut by one answer or given one answer
    twice, and a witness of the free set plus random points, some of the
    wrong length or with indices outside range(q)."""
    support, n = draw(st.sampled_from([(UNIT3, 1), (UNIT3, 2), (GHZ, 1), (GHZ, 2)]))
    doc = _answer_game_doc(support, n)
    for answers in doc["answer_alphabets"]:
        answers[:] = draw(st.permutations(answers))
        pos = draw(st.integers(0, len(answers) - 1))
        edit = draw(st.sampled_from(["keep", "drop", "repeat"]))
        if edit == "drop":
            del answers[pos]
        elif edit == "repeat":
            answers.insert(draw(st.integers(0, len(answers))), answers[pos])
    point = st.lists(st.integers(-1, len(support)), min_size=n - 1, max_size=n + 1)
    doc["predicate"]["params"]["witness"] += draw(st.lists(point, max_size=6))
    return doc


@given(answer_game_files())
# reordered answers, a missing answer and a duplicated answer
@example(_unit3_file(lambda answers, witness: answers[1].reverse()))
@example(_unit3_file(lambda answers, witness: answers[2].pop(3)))
@example(_unit3_file(lambda answers, witness: answers[0].insert(0, answers[0][5])))
# witness points of the wrong length, with a negative index, with an index >= q
@example(_unit3_file(lambda answers, witness: witness.extend([[0], [1, 0, 2]])))
@example(_unit3_file(lambda answers, witness: witness.extend([[-1, 0], [0, -3]])))
@example(_unit3_file(lambda answers, witness: witness.extend([[3, 0], [1, 4]])))
def test_edited_answer_game_files_list_the_accepted_answers(doc):
    game = game_from_json(doc)
    assert game.acceptance() == oracles.brute_force_acceptance(game)


def test_a_faulty_answer_list_fails_the_recheck():
    # the ghz answer game lists every answer combination on one support
    # tuple: the search trusts the list, and the re-check, which calls the
    # predicate, refuses the strategy found
    game = _answer_game(GHZ, 2)
    accepted = game.predicate.accepted
    every = list(TupleCodec(game.answer_alphabets))
    game.predicate.accepted = lambda x: every if x == game.support[1] else accepted(x)
    with pytest.raises(AssertionError, match="^reconstructed strategy must attain the optimum$"):
        exact_value(game)


def test_single_shot_answer_game_value_below_one():
    rec = compute_eq(UNIT3, 1)
    game = build_answer_game(((0, 1),) * 3, UNIT3, 1, rec.witness)
    single = exact_value(game)
    assert single.value < 1
    rep1 = repeat(game, 1)
    assert exact_value(rep1).value == rec.value


def test_check_winning_set_free_requires_repeated_game():
    rec = compute_eq(UNIT3, 1)
    game = build_answer_game(((0, 1),) * 3, UNIT3, 1, rec.witness)
    strat = strategy_from_witness(UNIT3, 1)
    with pytest.raises(TypeError):
        check_winning_set_free(game, strat)


def test_all_product_strategies_win_on_free_sets_only():
    # every deterministic strategy of the repeated answer game (n = 1 here,
    # so the repetition is the game itself) has a forbidden-free winning set
    rec = compute_eq(UNIT3, 1)
    game = build_answer_game(((0, 1),) * 3, UNIT3, 1, rec.witness)
    rep = repeat(game, 1)
    domains = [rep.question_domain(j) for j in range(rep.k)]
    answers = [list(rep.answer_alphabets[j]) for j in range(rep.k)]
    count = 0
    for combo in itertools.product(*[
            itertools.product(range(len(answers[j])), repeat=len(domains[j]))
            for j in range(rep.k)]):
        tables = [
            {q: answers[j][combo[j][qi]] for qi, q in enumerate(domains[j])}
            for j in range(rep.k)]
        assert check_winning_set_free(rep, Strategy.from_tables(tables))
        count += 1
    assert count == 4**3
