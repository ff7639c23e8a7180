"""Finite field tables and vector helpers."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st
import pytest

from replab.fields import FiniteField
from replab.codec import ProductTuples

import oracles

# every field within DEFAULT_ORDER_CAP, with the low-to-high coefficients of
# its modulus
REDUCTIONS = {(2, 1): (0, 1), (3, 1): (0, 1), (5, 1): (0, 1), (7, 1): (0, 1),
              (11, 1): (0, 1), (13, 1): (0, 1), (2, 2): (1, 1, 1), (2, 3): (1, 0, 1, 1),
              (3, 2): (1, 0, 1), (2, 4): (1, 0, 0, 1, 1)}
FIELDS = list(REDUCTIONS)


def _neg(f, a):
    return next(b for b in f.elements if f.add(a, b) == 0)


def _inv(f, a):
    return next(b for b in f.elements if f.mul(a, b) == 1)


@pytest.mark.parametrize("p,r", FIELDS)
def test_construction_and_inverses(p, r):
    # the constructor itself checks every axiom exhaustively
    f = FiniteField(p, r)
    assert f.order == p**r
    for a in f.elements:
        assert (f.add(a, 0), f.mul(a, 1)) == (a, a)
        assert any(f.add(a, b) == 0 for b in f.elements)
        if a != 0:
            assert any(f.mul(a, b) == 1 for b in f.elements)


@pytest.mark.parametrize("p,r", FIELDS)
def test_tables_match_schoolbook_arithmetic(p, r):
    # digit-wise addition, and the schoolbook product of the polynomials
    # reduced modulo the pinned modulus
    f = FiniteField(p, r)
    assert f.reduction == REDUCTIONS[p, r]
    # element c is the little-endian digit vector of c in base p
    code = {tuple(reversed(d)): c
            for c, d in enumerate(itertools.product(range(p), repeat=r))}
    for da, a in code.items():
        for db, b in code.items():
            assert f.add(a, b) == code[tuple((x + y) % p for x, y in zip(da, db))]
            assert f.mul(a, b) == code[oracles.poly_mod_product(da, db, p, f.reduction)]


def test_axiom_check_is_kept_under_python_O():
    # GF(3) with 1 * 2 = 0: every element keeps an inverse, so only the
    # axiom check, which must not be an assert that -O strips, can object
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import replab.fields as f\n"
            "table = f._mul_table\n"
            "def patched(p, r, low):\n"
            "    mul = table(p, r, low)\n"
            "    mul[1][2] = 0\n"
            "    return mul\n"
            "f._mul_table = patched\n"
            "print(f.FiniteField(3)._mul)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "AssertionError: commutativity fails at 1, 2" in proc.stderr


def test_rejects_non_prime_characteristic():
    for p in (0, 1, 4, 6, 9):
        with pytest.raises(ValueError):
            FiniteField(p)


def test_rejects_bad_degree_and_order_cap():
    with pytest.raises(ValueError):
        FiniteField(2, 0)
    with pytest.raises(ValueError):
        FiniteField(17)
    with pytest.raises(ValueError):
        FiniteField(2, 5)


def test_gf4_tables():
    # reduction x**2 + x + 1; element 2 is t, and t*t = t + 1 = 3
    f = FiniteField(2, 2)
    assert f.reduction == (1, 1, 1)
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1
    assert f.add(2, 3) == 1
    assert f.additive_generators() == (1, 2)


def test_gf8_and_gf9_reductions():
    # the first monic irreducibles in itertools.product order of the low
    # coefficients (c0 slowest), not the smallest digit codes: over GF(2),
    # x**3 + x**2 + 1 comes before x**3 + x + 1
    assert FiniteField(2, 3).reduction == (1, 0, 1, 1)     # x**3 + x**2 + 1
    assert FiniteField(2, 4).reduction == (1, 0, 0, 1, 1)  # x**4 + x**3 + 1
    assert FiniteField(3, 2).reduction == (1, 0, 1)        # x**2 + 1
    # element 2 is t: t * t**2 = t**2 + 1 in GF(8), t * t**3 = t**3 + 1 in GF(16)
    assert FiniteField(2, 3).mul(2, 4) == 5
    assert FiniteField(2, 4).mul(2, 8) == 9


def test_prime_field_is_mod_arithmetic():
    f = FiniteField(7)
    for a in range(7):
        for b in range(7):
            assert f.add(a, b) == (a + b) % 7
            assert f.mul(a, b) == (a * b) % 7


def test_additive_generators_span():
    f = FiniteField(3, 2)
    gens = f.additive_generators()
    assert gens == (1, 3)
    reachable = set()
    for digits in itertools.product(range(3), repeat=2):
        acc = 0
        for g, d in zip(gens, digits):
            for _ in range(d):
                acc = f.add(acc, g)
        reachable.add(acc)
    assert reachable == set(f.elements)


def test_field_identity():
    assert FiniteField(2, 2) == FiniteField(2, 2)
    assert FiniteField(2, 2) != FiniteField(3)
    assert hash(FiniteField(5)) == hash(FiniteField(5))
    assert repr(FiniteField(3, 2)) == "FiniteField(p=3, r=2)"


@given(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]),
       st.integers(0, 10**6), st.integers(0, 10**6))
def test_arithmetic_relations(pr, x, y):
    f = FiniteField(*pr)
    a, b = x % f.order, y % f.order
    assert f.add(f.add(a, b), _neg(f, b)) == a
    assert _neg(f, _neg(f, a)) == a
    assert f.mul(a, b) == f.mul(b, a)
    if b != 0:
        assert f.mul(f.mul(a, b), _inv(f, b)) == a


def test_vectors_are_little_endian():
    f = FiniteField(3)
    vecs = ProductTuples(f.elements, 2)
    assert len(vecs) == 9
    assert vecs[0] == (0, 0)
    assert vecs[1] == (1, 0)
    assert vecs[5] == (2, 1)
    for i, v in enumerate(vecs):
        assert vecs.encode(v) == i


def test_vector_arithmetic():
    f = FiniteField(2, 2)
    u = (1, 2)
    assert f.vec_scale(2, u) == (f.mul(2, 1), f.mul(2, 2))
