"""Exact free-set solver, symmetry reduction, and the WCNF export."""

import os
from pathlib import Path
import subprocess
import sys

from hypothesis import given
from hypothesis import strategies as st
import pytest

import oracles
from replab.errors import BudgetExceededError
from replab.fields import FiniteField
from replab.search import (ForbiddenHypergraph, export_wcnf, max_free,
                           symmetry_orbit_prune, verify_free)
from replab.structures import corners, grids, squares


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


def test_verify_free():
    edges = [(0, 1), (2, 3)]
    assert verify_free([0, 2], edges)
    assert verify_free([], edges)
    assert not verify_free([2, 3], edges)


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


def test_max_free_prefers_lexicographically_first_witness():
    # both {0,2} and {1,2} etc. are maximum; the witness must start at 0
    h = ForbiddenHypergraph(3, [(0, 1)])
    assert max_free(h) == (2, (0, 2))


@st.composite
def random_hypergraphs(draw):
    size = draw(st.integers(3, 12))
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


# -- symmetry -----------------------------------------------------------------------


def test_orbit_representatives():
    # shift by one on 4 points: a single orbit represented by 0
    h = ForbiddenHypergraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                            generators=[(1, 2, 3, 0)])
    assert symmetry_orbit_prune(h) == (0,)
    fixed = ForbiddenHypergraph(3, [(0, 1)], generators=[(0, 1, 2)])
    assert symmetry_orbit_prune(fixed) == (0, 1, 2)
    swaps = ForbiddenHypergraph(4, [(0, 1), (2, 3)], generators=[(1, 0, 3, 2)])
    assert symmetry_orbit_prune(swaps) == (0, 2)


@pytest.mark.parametrize("family", [
    lambda: squares(1), lambda: squares(2), lambda: corners(2),
    lambda: grids(FiniteField(3), 1, 2), lambda: grids(FiniteField(2), 1, 4),
])
def test_symmetry_reduction_is_lossless(family):
    h = family().to_hypergraph()
    assert h.generators
    plain = ForbiddenHypergraph(h.size, h.edges)
    assert max_free(h) == max_free(plain)


@st.composite
def cyclic_hypergraphs(draw):
    """Random edges closed under the shift v -> v + 1 mod size, with that
    shift as the generator."""
    size = draw(st.integers(3, 12))
    edges = set()
    for _ in range(draw(st.integers(0, 3))):
        base = draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=min(4, size)))
        edges |= {tuple(sorted((v + s) % size for v in base)) for s in range(size)}
    shift = tuple((v + 1) % size for v in range(size))
    return ForbiddenHypergraph(size, sorted(edges), generators=[shift])


@given(cyclic_hypergraphs())
def test_orbit_path_matches_naive(h):
    assert symmetry_orbit_prune(h) == (0,)
    size, witness = max_free(h)
    assert (size, witness) == oracles.naive_max_free(h.size, h.edges)


def test_translation_symmetric_universe_has_one_orbit():
    h = squares(2).to_hypergraph()
    assert symmetry_orbit_prune(h) == (0,)
