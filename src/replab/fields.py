"""Small finite fields GF(p^r), with vectors over them.

Elements of GF(p^r) are the integers 0 .. p**r - 1, read as base-p digit
vectors with the least significant digit first: the codes of
ProductTuples(range(p), r).  Digit vector (c0, .., c_{r-1}) stands for the
residue c0 + c1*t + ... + c_{r-1}*t**(r-1) modulo a fixed monic irreducible
polynomial of degree r.  The reduction polynomial is the monic irreducible
whose low coefficients (c0, .., c_{r-1}) come first in lexicographic order,
c0 most significant (itertools.product order, not the digit code): t**3 +
t**2 + 1 for GF(8) and t**4 + t**3 + 1 for GF(16), so tables are
reproducible.

Fields are this small on purpose: every arithmetic table is built eagerly and
the field axioms are checked exhaustively at construction time, which keeps
the rest of the package free of trust assumptions about the arithmetic.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .codec import ProductTuples

DEFAULT_ORDER_CAP = 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...]:
    """Remainder of a modulo a monic polynomial m."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _poly_trim(a)


def _monic_polys(degree: int, p: int) -> Iterable[tuple[int, ...]]:
    for low in itertools.product(range(p), repeat=degree):
        yield tuple(low) + (1,)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    degree = len(poly) - 1
    if degree == 1:
        return True
    for d in range(1, degree // 2 + 1):
        for divisor in _monic_polys(d, p):
            if not _poly_mod(poly, divisor, p):
                return False
    return True


class FiniteField:
    """GF(p**r) with fully tabulated arithmetic.

    Elements are the integers range(order).  0 and 1 are the additive and
    multiplicative identities.  Construction raises ValueError if p is not
    prime or the order exceeds DEFAULT_ORDER_CAP, and AssertionError if the
    generated tables fail any field axiom (which would indicate a bug, not
    bad input).
    """

    def __init__(self, p: int, r: int = 1):
        if not _is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if r < 1:
            raise ValueError(f"extension degree must be >= 1, got {r}")
        order = p**r
        if order > DEFAULT_ORDER_CAP:
            raise ValueError(f"field order {order} exceeds cap {DEFAULT_ORDER_CAP}")
        self.p = p
        self.r = r
        self.order = order
        self.reduction = self._find_reduction()
        self._digits = ProductTuples(range(p), r)
        self._add = [[(self._digit_add(a, b)) for b in range(order)] for a in range(order)]
        self._mul = [[self._poly_elem_mul(a, b) for b in range(order)] for a in range(order)]
        self._neg = [self._find_neg(a) for a in range(order)]
        self._inv = [None] + [self._find_inv(a) for a in range(1, order)]
        self._verify_axioms()
        self._verify_generators()

    # -- construction helpers -------------------------------------------------

    def _find_reduction(self) -> tuple[int, ...]:
        for poly in _monic_polys(self.r, self.p):
            if _is_irreducible(poly, self.p):
                return poly
        raise AssertionError("no irreducible polynomial found")

    def _digit_add(self, a: int, b: int) -> int:
        da, db = self._digits.decode(a), self._digits.decode(b)
        return self._digits.encode(tuple((x + y) % self.p for x, y in zip(da, db)))

    def _poly_elem_mul(self, a: int, b: int) -> int:
        da, db = self._digits.decode(a), self._digits.decode(b)
        rem = _poly_mod(_poly_mul(_poly_trim(da), _poly_trim(db), self.p),
                        self.reduction, self.p)
        return self._digits.encode(rem + (0,) * (self.r - len(rem)))

    def _find_neg(self, a: int) -> int:
        for b in range(self.order):
            if self._add[a][b] == 0:
                return b
        raise AssertionError(f"no additive inverse for {a}")

    def _find_inv(self, a: int) -> int:
        for b in range(1, self.order):
            if self._mul[a][b] == 1:
                return b
        raise AssertionError(f"no multiplicative inverse for {a}")

    def _verify_axioms(self) -> None:
        # explicit raises, not asserts, so that python -O keeps the check
        add, mul = self._add, self._mul
        rng = range(self.order)
        for a in rng:
            if add[a][0] != a or mul[a][1] != a or mul[a][0] != 0:
                raise AssertionError(f"identity axioms fail at {a}")
            for b in rng:
                if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                    raise AssertionError(f"commutativity fails at {a}, {b}")
        for a, b, c in itertools.product(rng, repeat=3):
            if (add[add[a][b]][c] != add[a][add[b][c]]
                    or mul[mul[a][b]][c] != mul[a][mul[b][c]]
                    or mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]):
                raise AssertionError(
                    f"associativity or distributivity fails at {a}, {b}, {c}")

    def _verify_generators(self) -> None:
        # every element must be the field-sum of digit-many copies of each p**i
        for a in range(self.order):
            acc = 0
            for i, d in enumerate(self._digits.decode(a)):
                g = self.p**i
                for _ in range(d):
                    acc = self._add[acc][g]
            if acc != a:
                raise AssertionError(f"additive generators do not span element {a}")

    # -- public arithmetic -----------------------------------------------------

    @property
    def elements(self) -> range:
        return range(self.order)

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._inv[a]

    def primitive_element(self) -> int:
        """The least element whose powers run through every non-zero
        element."""
        for c in range(1, self.order):
            power, k = c, 1
            while power != 1:
                power, k = self._mul[power][c], k + 1
            if k == self.order - 1:
                return c
        raise AssertionError("the multiplicative group is not cyclic")

    def additive_generators(self) -> tuple[int, ...]:
        """Generators 1, t, t**2, ... of the additive group; every element is
        a unique digit combination of these."""
        return tuple(self.p**i for i in range(self.r))

    # -- vectors over the field --------------------------------------------------

    def vec_add(self, u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
        return tuple(self._add[a][b] for a, b in zip(u, v, strict=True))

    def vec_sub(self, u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
        return tuple(self._add[a][self._neg[b]] for a, b in zip(u, v, strict=True))

    def vec_scale(self, c: int, u: Sequence[int]) -> tuple[int, ...]:
        return tuple(self._mul[c][a] for a in u)

    # -- identity ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteField) and (self.p, self.r) == (other.p, other.r)

    def __hash__(self) -> int:
        return hash((self.p, self.r))

    def __repr__(self) -> str:
        return f"FiniteField(p={self.p}, r={self.r})"

