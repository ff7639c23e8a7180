"""The one coordinate system of replab: tuples and their little-endian codes.

A tuple (s_0, .., s_{n-1}) over alphabets A_0, .., A_{n-1} has code
sum(position_i(s_i) * |A_0| * .. * |A_{i-1}|): coordinate 0 is the least
significant digit.  The same code orders the rounds of a repeated game, the
points of a repeated support, the vectors and points of the extremal
universes, the digits of field elements and the answer tuples of game
files.  This module imports nothing from replab, so every other module can
use it.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence


class TupleCodec:
    """Bijection between tuples over per-coordinate alphabets and integers.

    encode((a, b)) over alphabets (A, B) is position(a) + |A| * position(b).
    Coordinates given the same alphabet object share one position map.
    encode raises ValueError for a tuple of the wrong length or with a
    symbol outside its coordinate's alphabet.  Iterating yields every tuple
    in code order.
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

    def __iter__(self):
        # itertools.product varies its last coordinate fastest
        return (t[::-1] for t in itertools.product(*self.alphabets[::-1]))


class ProductTuples(Sequence):
    """Lazy sequence of all n-tuples over one alphabet, in codec order."""

    def __init__(self, alphabet: Sequence, n: int):
        self.codec = TupleCodec((tuple(alphabet),) * n)

    def __len__(self) -> int:
        return self.codec.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self.codec.decode(i)

    def __iter__(self):
        return iter(self.codec)

    def __contains__(self, item) -> bool:
        try:
            self.codec.encode(item)
            return True
        except (ValueError, TypeError):
            return False
