"""The one coordinate system of replab: tuples, their little-endian codes,
and the one rule for when a product universe is too big.

A tuple (s_0, .., s_{n-1}) over alphabets A_0, .., A_{n-1} has code
sum(position_i(s_i) * |A_0| * .. * |A_{i-1}|): coordinate 0 is the least
significant digit.  The same code orders the rounds of a repeated game, the
points of a repeated support, the vectors and points of the extremal
universes, the digits of field elements and the answer tuples of game
files; to_jsonable and from_jsonable carry nested tuples to JSON lists and
back.  A TupleCodec is itself the lazy sequence of its tuples in code
order, so a product universe is a codec and nothing else.  oversize states
why a product universe exceeds a budget; callers raise on its reason, as
on TUPLE_BUDGET for a preset question set and a repeated support or
alphabet.  This module imports nothing from replab, so every other module
can use it.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence

TUPLE_BUDGET = 1 << 22


def power_exceeds(base: int, exp: int, budget: int) -> bool:
    """Whether base**exp > budget, for base, exp >= 0.  The product stops
    growing once it passes the budget, so a huge exp costs no more than a
    small one."""
    if base <= 1:
        return int(base == 1 or exp == 0) > budget
    value = 1
    for _ in range(exp):
        value *= base
        if value > budget:
            return True
    return value > budget


def oversize(size: int, n: int, budget: int) -> str | None:
    """Why the n-fold product of a size-symbol alphabet exceeds budget, or
    None if it fits.  A codec holds one slot per coordinate, so n must fit
    the budget even when size**n is 1."""
    if n > budget:
        return f"{n} coordinates exceed the budget {budget}"
    if power_exceeds(size, n, budget):
        return f"{size}**{n} points exceed the budget {budget}"
    return None


def to_jsonable(obj):
    """obj with every tuple, nested ones too, turned into a list."""
    if isinstance(obj, tuple):
        return [to_jsonable(v) for v in obj]
    return obj


def from_jsonable(obj):
    """obj with every list, nested ones too, turned into a tuple."""
    if isinstance(obj, list):
        return tuple(from_jsonable(v) for v in obj)
    return obj


class TupleCodec(Sequence):
    """Bijection between tuples over per-coordinate alphabets and integers,
    and the lazy sequence of all such tuples in code order.

    encode((a, b)) over alphabets (A, B) is position(a) + |A| * position(b).
    Coordinates given the same alphabet object share one position map.
    encode raises ValueError for a tuple of the wrong length or with a
    symbol outside its coordinate's alphabet; codec[c] is decode(c), with
    negative indices and slices as for a list.
    """

    def __init__(self, alphabets: Sequence[Sequence]):
        # tuple() returns a tuple argument itself, so shared alphabets stay shared
        self.alphabets = tuple(tuple(a) for a in alphabets)
        self.n = len(self.alphabets)
        maps: dict[int, dict] = {}
        for a in self.alphabets:
            if id(a) not in maps:
                maps[id(a)] = {sym: i for i, sym in enumerate(a)}
        self._pos = tuple(maps[id(a)] for a in self.alphabets)
        self._radices = tuple(map(len, self.alphabets))
        self.size = math.prod(self._radices)

    def encode(self, items: Sequence) -> int:
        if len(items) != self.n:
            raise ValueError(f"expected a {self.n}-tuple")
        code, scale = 0, 1
        try:
            for pos, radix, sym in zip(self._pos, self._radices, items):
                code += pos[sym] * scale
                scale *= radix
        except KeyError:
            raise ValueError(f"{items!r} has a symbol outside its alphabet") from None
        return code

    def decode(self, code: int) -> tuple:
        if not 0 <= code < self.size:
            raise ValueError(f"code {code} out of range")
        out = []
        for alphabet, radix in zip(self.alphabets, self._radices):
            code, digit = divmod(code, radix)
            out.append(alphabet[digit])
        return tuple(out)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self.size))]
        if i < 0:
            i += self.size
        if not 0 <= i < self.size:
            raise IndexError(i)
        return self.decode(i)

    def __iter__(self):
        # itertools.product varies its last coordinate fastest
        return (t[::-1] for t in itertools.product(*self.alphabets[::-1]))

    def __contains__(self, item) -> bool:
        try:
            return len(item) == self.n and all(map(dict.__contains__, self._pos, item))
        except TypeError:
            return False


class ProductTuples(TupleCodec):
    """All n-tuples over one alphabet, in codec order."""

    def __init__(self, alphabet: Sequence, n: int):
        super().__init__((tuple(alphabet),) * n)
