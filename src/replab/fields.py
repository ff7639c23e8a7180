"""Small finite fields GF(p^r), with vectors over them.

Elements of GF(p^r) are the integers 0 .. p**r - 1, read as base-p digit
vectors with the least significant digit first: the codes of
ProductTuples(range(p), r).  Digit vector (c0, .., c_{r-1}) stands for the
residue c0 + c1*t + ... + c_{r-1}*t**(r-1) modulo a fixed monic polynomial
t**r + m_{r-1}*t**(r-1) + ... + m0 of degree r.  Multiplying by t shifts the
digits up one place and subtracts the top digit times the low coefficients
(m0, .., m_{r-1}); a*b is the sum of b_i copies of a*t**i.  The modulus is
the first whose low coefficients, taken in itertools.product order (m0
most significant, not the digit code), give a field: one under which no
product of two non-zero residues is zero, so that every non-zero residue
has an inverse.  The quotient ring is a field exactly when the modulus is
irreducible, so this is the first monic irreducible in that order: t**3 +
t**2 + 1 for GF(8) and t**4 + t**3 + 1 for GF(16), and tables are
reproducible.

Fields are this small on purpose: every arithmetic table is built eagerly and
the field axioms are checked exhaustively at construction time, which keeps
the rest of the package free of trust assumptions about the arithmetic.
"""

from __future__ import annotations

import itertools
from typing import Sequence

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


def _mul_table(p: int, r: int, low: tuple[int, ...]) -> list[list[int]] | None:
    """The multiplication table of the residues modulo t**r + low(t), or
    None at the first row holding a zero product of non-zero residues."""
    digits = ProductTuples(range(p), r)
    table = []
    for a in digits:
        powers = [a]  # a * t**i for i < r; t**r is -low(t)
        for _ in range(r - 1):
            x = powers[-1]
            powers.append(tuple((s - x[-1] * m) % p for s, m in zip((0,) + x[:-1], low)))
        # digit j of a*b is the sum over i of b_i times digit j of a * t**i
        columns = list(zip(*powers))
        row = [digits.encode(tuple(sum(bi * ci for bi, ci in zip(b, c)) % p for c in columns))
               for b in digits]
        if any(a) and 0 in row[1:]:
            return None
        table.append(row)
    return table


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
        self._digits = ProductTuples(range(p), r)
        self._add = [[self._digits.encode(tuple((x + y) % p for x, y in zip(a, b)))
                      for b in self._digits] for a in self._digits]
        self.reduction, self._mul = next(
            (low + (1,), mul) for low in itertools.product(range(p), repeat=r)
            if (mul := _mul_table(p, r, low)) is not None)
        self._verify_axioms()
        self._verify_generators()

    # -- construction checks ----------------------------------------------------

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

    def vec_scale(self, c: int, u: Sequence[int]) -> tuple[int, ...]:
        return tuple(self._mul[c][a] for a in u)

    # -- identity ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteField) and (self.p, self.r) == (other.p, other.r)

    def __hash__(self) -> int:
        return hash((self.p, self.r))

    def __repr__(self) -> str:
        return f"FiniteField(p={self.p}, r={self.r})"

