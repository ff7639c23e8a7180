"""Exact maximum configuration-free subsets of small hypergraphs.

A ForbiddenHypergraph has points 0..size-1 and a family of edges (point
subsets).  A set of points is free when it contains no edge entirely.  Its
edges are cleaned in one bulk pass of C-level maps, each generator checked
in another, and the solver's edge masks and point incidences built in one
loop over the edges.  max_free computes the exact maximum size of a free
set together with the lexicographically first maximum witness, by one
branch and bound over bitmask states (selected points, undecided points,
alive edges); an edge is alive while none of its points is excluded, and
inc[v] is the mask of the edges through point v.

Including points is unit propagation: every alive edge through them whose
only undecided point is u forces u out, and the branch fails when such an
edge has no undecided point left.  Excluding v kills the edges in inc[v].
The bound is |selected| + |undecided| minus a lower bound on the undecided
points that a free extension must exclude, the larger of two: a greedy
packing of pairwise disjoint undecided edge parts, taken smallest first,
since each packed part must lose a point; and a hitting-set count, the
least t whose t largest alive degrees sum to at least |alive|, since
every alive edge must lose a point and excluding v kills only the deg(v)
alive edges through it.  A node tries the packing first and computes the
degrees only where the packing does not prune.  The search branches on the
undecided point of maximum alive degree (lowest index on ties), exclude
first: the first dive is then the greedy free set that drops the most
constrained point until no edge is left, which on dense instances already
meets the root bound.

A node whose packing is tight, |selected| + |undecided| - packing = best
+ 1, includes every undecided point outside the packed parts at once, and
does so again while the packing stays tight; an include that fails prunes
the node, and the rule adds no node.  It is hardening from MaxSAT
(Ansotegui, Bonet, Gabas and Levy, CP 2012) with the packing as the lower
bound (Li, Manya and Planes, JAIR 2007), and it is sound: a free extension
above best keeps at least best + 1 points, so it drops at most packing
undecided points, and as each packed part loses one, it drops one point of
each part and none outside them.  The rule fires only under the trivial
group.  The packed parts follow the edge order, so the points it fixes need
not be a union of orbits, and a group kept past them could carry a fixed
point into the orbit that an exclude child excludes, killing edges through
a selected point.  Deep nodes and most witness-phase searches have the
trivial group.

The states wait on an explicit stack, not Python's, each node's children
pushed in reverse order of visit, so a search as deep as the point count
cannot overflow the interpreter's stack.

Symmetry enters by orbital branching (Ostrowski, Linderoth, Rossi and
Smriglio, Math. Programming 2011).  max_free holds the group of the
hypergraph's generators by generators alone, and each node carries the
subgroup that maps its selected set and its undecided set onto themselves.
The exclude child excludes the whole orbit of the branching point v under
that group and keeps the group: any free extension that takes a point of
the orbit is the image of one that takes v.  The include child keeps the
stabiliser of v, whose generators come from Schreier's lemma over the
orbit's walk, thinned by Sims's filter (Sims 1970; Seress, Permutation
Group Algorithms, 2003), so no group is ever listed.  The stabiliser also
maps the points that propagation forces out onto themselves, since
propagation commutes with every symmetry of the state.  Neither child loses
the largest free extension's size, so both phases stay exact.

The optimum phase stops as soon as it finds a free set as large as the root
bound.  The witness phase walks the points in index order, trying to take
each, and keeps a maximum free set extending its choices: a point in that
set is taken at once, any other is taken only when the branch and bound
finds a free extension of optimum size, which becomes the new set.  Each
such search only asks whether an extension of optimum size exists, which
orbital branching answers exactly, and it tries the include child first at
a node whose group is non-trivial.  The result is the maximum free set with
the smallest sorted index list; it does not depend on the group or the
child order, which change only the node counts.

A StructureFamily is a universe with a re-enumerable configuration family.
Its solve() is the one path of every density: max_free on its hypergraph,
made into a DensityRecord.  Its check() is the one check of a density
witness, run by solve() and by --recheck, against a fresh enumeration.

A family is built, enumerated and exported on at most ENUMERATION_BUDGET
points, and solved on at most solve()'s budget, DEFAULT_POINT_BUDGET by
default: refuse_past_solver_budget refuses more before any enumeration.

For instances beyond the solver budget, export_wcnf emits the instance in
weighted partial MaxSAT (WCNF) form for an external solver: the optimum of
the WCNF equals size - max_free.
"""

from __future__ import annotations

from dataclasses import dataclass
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, compress, count, repeat
from typing import Callable, Iterable, Iterator, Sequence

from .codec import ProductTuples, from_jsonable
from .errors import BudgetExceededError
from .records import DensityRecord

DEFAULT_POINT_BUDGET = 128
ENUMERATION_BUDGET = 4096


@dataclass(frozen=True)
class ForbiddenHypergraph:
    """Edges are stored sorted per edge, deduplicated, in first-seen order.

    generators, when given, are point permutations (images as tuples) that
    must map the edge family to itself; max_free branches on the orbits of
    the group they generate.  The check here is what makes that sound.
    """

    size: int
    edges: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[int, ...], ...] = ()

    def __init__(self, size: int, edges: Iterable[Sequence[int]],
                 generators: Iterable[Sequence[int]] = ()):
        object.__setattr__(self, "size", size := int(size))
        seen = dict.fromkeys(map(tuple, map(sorted, map(set, map(map, repeat(int), edges)))))
        for e in seen:
            if not e:
                raise ValueError("empty edge")
            if e[0] < 0 or e[-1] >= size:
                raise ValueError(f"edge {e} out of range for size {size}")
        object.__setattr__(self, "edges", tuple(seen))
        gens = tuple(map(tuple, map(map, repeat(int), generators)))
        for g in gens:
            if sorted(g) != list(range(size)):
                raise ValueError("generator is not a permutation of the points")
            # a permutation maps the distinct edges onto as many distinct
            # sets, so it preserves the family when each image is an edge
            images = map(tuple, map(sorted, map(map, repeat(g.__getitem__), seen)))
            if not all(map(seen.__contains__, images)):
                raise ValueError("generator does not preserve the edge family")
        object.__setattr__(self, "generators", gens)


@dataclass
class StructureFamily:
    """A finite universe together with a re-enumerable configuration family.

    configurations() returns a fresh iterator of sorted point-index tuples on
    every call, so verification can re-walk the family independently of any
    solver state.  A point's index is its code in the universe, and index()
    raises ValueError for a point outside it.  generators are index
    permutations preserving the family, built by _symmetries on each read:
    only to_hypergraph, which hands them to the solver, reads them, so a
    family that is only enumerated or exported never builds them.
    """

    name: str
    params: dict
    universe: ProductTuples
    _enumerate: Callable[[], Iterator[tuple[int, ...]]]
    _symmetries: Callable[[], Iterable[tuple[int, ...]]] = tuple

    @property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._symmetries())

    def configurations(self) -> Iterator[tuple[int, ...]]:
        return self._enumerate()

    def index(self, point) -> int:
        return self.universe.encode(point)

    def to_hypergraph(self) -> ForbiddenHypergraph:
        return ForbiddenHypergraph(len(self.universe), list(self.configurations()),
                                   self.generators)

    def solve(self, budget: int = DEFAULT_POINT_BUDGET) -> DensityRecord:
        """The exact density, by max_free within budget points, with its
        witness in the universe's native points, passed by check().  A
        universe past budget is refused before any enumeration."""
        refuse_past_solver_budget(len(self), budget)
        size, chosen = max_free(self.to_hypergraph(), budget)
        record = DensityRecord(
            family=self.name, params=dict(self.params), value=Fraction(size, len(self)),
            witness_size=size, universe_size=len(self),
            witness=[self.universe[i] for i in chosen], method="exact-bb")
        if not self.check(record):
            raise AssertionError("density witness failed independent re-enumeration check")
        return record

    def check(self, record: DensityRecord) -> bool:
        """Whether the record's witness, points as tuples or as JSON lists,
        is a free set of witness_size distinct points of the universe with
        the record's universe_size and value, checked against a fresh
        enumeration of the configurations."""
        try:
            indices = {self.index(from_jsonable(p)) for p in record.witness}
        except (ValueError, TypeError):
            return False
        return (len(indices) == len(record.witness) == record.witness_size
                and record.universe_size == len(self)
                and record.value == Fraction(record.witness_size, len(self))
                and verify_free(indices, self.configurations()))

    def __len__(self) -> int:
        return len(self.universe)


def swap_and_cycle(m: int) -> list[tuple[int, ...]]:
    """Position lists of the swap of the first two of m places and of the
    cycle of all m, which generate S_m (none for m = 1, one for m = 2)."""
    perms = []
    if m >= 2:
        perms.append((1, 0) + tuple(range(2, m)))
    if m >= 3:
        perms.append(tuple(range(1, m)) + (0,))
    return perms


def index_maps(universe: ProductTuples, maps) -> list[tuple[int, ...]]:
    """The index permutation of each point map of the universe; ValueError
    for a map that takes a point outside it."""
    index = dict(zip(universe, count()))
    try:
        return [tuple(map(index.__getitem__, map(f, index))) for f in maps]
    except KeyError as e:
        raise ValueError(f"{e.args[0]!r} is not a point of the universe") from None


def verify_free(points: Iterable[int], edges: Iterable[Sequence[int]]) -> bool:
    """Check freeness by re-walking an edge enumeration.

    Deliberately independent of max_free's bookkeeping: pass a freshly
    enumerated edge family to guard against solver bugs.
    """
    return not any(map(set(points).issuperset, edges))


class _Group:
    """A permutation group on the points, held by generators that are bytes,
    none of them the identity: g[v] is the image of point v, and
    x.translate(table) for g's table is x followed by g.  orbit(v) walks the
    generators from v and keeps, for each point w it reaches, one element
    taking v to w.  stabiliser(v) is generated by the Schreier generators
    of that walk (Schreier's lemma), thinned by _sims_filter.  Orbits and
    stabilisers are kept once computed, since the nodes that share a group
    ask for the same ones."""

    __slots__ = ("generators", "trivial", "_tables", "_walks", "_stabilisers")

    def __init__(self, generators: list[bytes]):
        self.generators = generators
        self.trivial = not generators
        self._tables = [g + bytes(range(len(g), 256)) for g in generators]
        self._walks: dict[int, tuple[int, dict[int, bytes]]] = {}
        self._stabilisers: dict[int, _Group] = {}

    def _walk(self, v: int) -> tuple[int, dict[int, bytes]]:
        """The mask of v's orbit, and an element taking v to each point of it."""
        walk = self._walks.get(v)
        if walk is None:
            reps = {v: bytes(range(len(self.generators[0])))}
            frontier = list(reps.items())
            mask = 1 << v
            for w, t in frontier:
                for g, table in zip(self.generators, self._tables):
                    u = g[w]
                    if u not in reps:
                        reps[u] = x = t.translate(table)
                        frontier.append((u, x))
                        mask |= 1 << u
            walk = self._walks[v] = mask, reps
        return walk

    def orbit(self, v: int) -> int:
        """The mask of v's orbit."""
        return 1 << v if self.trivial else self._walk(v)[0]

    def stabiliser(self, v: int) -> _Group:
        """The subgroup of the elements that fix v: for each orbit point w and
        generator g, the element taking v to w, then g, then back from g(w)
        to v, whenever that is not the identity."""
        sub = self._stabilisers.get(v)
        if sub is None:
            if self.trivial or self.orbit(v) == 1 << v:
                sub = self
            else:
                reps = self._walk(v)[1]
                identity = reps[v]
                back = {u: bytes.maketrans(r, identity) for u, r in reps.items()}
                schreier: dict[bytes, None] = {}
                for t in reps.values():
                    for table in self._tables:
                        x = t.translate(table)
                        u = x[v]
                        if x != reps[u]:
                            schreier[x.translate(back[u])] = None
                sub = _Group(_sims_filter(schreier, len(identity)))
            self._stabilisers[v] = sub
        return sub


def _sims_filter(elements: Iterable[bytes], size: int) -> list[bytes]:
    """Sims's filter: generators of the group that the elements generate, at
    most one per (first moved point i, image of i).  An element whose pair
    is taken is followed by the inverse of the one kept, which fixes i and
    every point below it, and is filtered again; the identity is dropped.
    The first moved point is the first byte in which the element and the
    identity differ, read off their XOR as big-endian integers."""
    identity = bytes(range(size))
    identity_int = int.from_bytes(identity, "big")
    kept: dict[int, tuple[bytes, bytes]] = {}
    for g in elements:
        while g != identity:
            i = size - 1 - (((int.from_bytes(g, "big") ^ identity_int).bit_length() - 1) >> 3)
            key = i << 8 | g[i]
            entry = kept.get(key)
            if entry is None:
                kept[key] = g, bytes.maketrans(g, identity)
                break
            g = g.translate(entry[1])
    return [g for g, _ in kept.values()]


def _generated(size: int, generators: Iterable[Sequence[int]]) -> _Group:
    """The group the generators generate.  Its elements are bytes, so above
    256 points the group is trivial."""
    if size > 256:
        return _Group([])
    return _Group(_sims_filter(map(bytes, generators), size))


class _BranchAndBound:
    """The search over (selected, undecided, alive) states described in the
    module docstring; every alive edge keeps an undecided point, and each
    state carries its group.  found is the largest free set seen and best
    its size; a search ends once best reaches stop.  include_first is set
    for the witness phase.  nodes counts the states visited."""

    def __init__(self, size: int, edges: Iterable[Sequence[int]]):
        self.edge_masks = masks = []
        self.inc = inc = [0] * size
        for i, e in enumerate(edges):
            masks.append(sum(map((1).__lshift__, e)))
            for v in e:
                inc[v] |= 1 << i
        self.nodes = 0
        self.best = 0
        self.found = 0
        self.stop = 0
        self.include_first = False

    def include(self, points: int, selected: int, undecided: int,
                alive: int) -> tuple[int, int, int] | None:
        """State after including the points of the non-empty mask points,
        all of them undecided, and propagating; None when an edge through
        them is fully selected.  A single point reads its edges from inc
        directly."""
        undecided &= ~points
        if points & (points - 1):
            through = 0
            for edges in _select(points, self.inc):
                through |= edges
        else:
            through = self.inc[points.bit_length() - 1]
        through &= alive
        while through:
            low = through & -through
            rest = self.edge_masks[low.bit_length() - 1] & undecided
            if not rest:
                return None
            if not rest & (rest - 1):
                undecided &= ~rest
                alive &= ~self.inc[rest.bit_length() - 1]
            through &= alive & ~low
        return selected | points, undecided, alive

    def degrees(self, undecided: int, alive: int) -> list[int]:
        """The alive degree of each undecided point, in index order."""
        return list(map(int.bit_count, map(alive.__and__, _select(undecided, self.inc))))

    def packing(self, undecided: int, alive: int) -> tuple[int, int]:
        """The packing count of the module docstring, a greedy packing of
        pairwise disjoint undecided parts of the alive edges, smallest
        first, with the mask of the packed parts' union."""
        parts = sorted(map(undecided.__and__, _select(alive, self.edge_masks)),
                       key=int.bit_count)
        used = packed = 0
        for part in parts:
            if not part & used:
                used |= part
                packed += 1
        return packed, used

    def harden(self, selected: int, undecided: int, alive: int,
               trivial: bool) -> tuple[int, int, int, int] | None:
        """The state after the tight-packing rule of the module docstring,
        which fires only when trivial (the node's group is), applied until
        it stops firing, with its free count; None when the packing prunes
        the state or an include of the rule fails."""
        while True:
            free = selected.bit_count() + undecided.bit_count()
            packed, used = self.packing(undecided, alive)
            if free - packed <= self.best:
                return None
            outside = undecided & ~used
            if not (trivial and outside and free - packed == self.best + 1):
                return selected, undecided, alive, free
            state = self.include(outside, selected, undecided, alive)
            if state is None:
                return None
            selected, undecided, alive = state

    @staticmethod
    def cover(degrees: list[int], alive: int) -> int:
        """The hitting-set count of the module docstring: the least t whose
        t largest of the given alive degrees sum to at least |alive|."""
        return bisect_left(list(accumulate(sorted(degrees, reverse=True), initial=0)),
                           alive.bit_count())

    def bound(self, selected: int, undecided: int, alive: int) -> int:
        """Upper bound on the size of any free extension of the state:
        |selected| + |undecided| minus the larger of the packing and the
        hitting-set counts."""
        return (selected.bit_count() + undecided.bit_count()
                - max(self.packing(undecided, alive)[0],
                      self.cover(self.degrees(undecided, alive), alive)))

    def search(self, selected: int, undecided: int, alive: int, group: _Group) -> bool:
        """Raise best/found to the largest free extension of the state above
        best; True once a free set of stop points is found.  This is bound()
        in two steps: harden prunes many nodes by the packing alone, and
        the degrees, which also pick the branching point, are computed only
        where it does not."""
        harden, degrees, cover, include = self.harden, self.degrees, self.cover, self.include
        stack = [(selected, undecided, alive, group)]
        while stack:
            selected, undecided, alive, group = stack.pop()
            self.nodes += 1
            node = harden(selected, undecided, alive, group.trivial)
            if node is None:
                continue
            selected, undecided, alive, free = node
            if not alive:
                self.found = selected | undecided
                self.best = self.found.bit_count()
                if self.best >= self.stop:
                    return True
                continue
            degree = degrees(undecided, alive)
            if free - cover(degree, alive) <= self.best:
                continue
            v = list(_select(undecided, count()))[degree.index(max(degree))]
            if group.trivial:
                orbit, killed, stab = 1 << v, self.inc[v], group
            else:
                orbit, stab = group.orbit(v), group.stabiliser(v)
                killed = 0
                for through in _select(orbit, self.inc):
                    killed |= through
            children = [(selected, undecided & ~orbit, alive & ~killed, group)]
            child = include(1 << v, selected, undecided, alive)
            if child is not None:
                # visited first under include_first, if the group is not trivial
                children.insert(self.include_first and not group.trivial, (*child, stab))
            stack += children
        return False


def refuse_past_solver_budget(size: int, budget: int) -> None:
    """The one refusal of an instance of size points past the solver budget."""
    if size > budget:
        raise BudgetExceededError(
            f"{size} points exceed the solver budget {budget}; "
            "use export_wcnf and an external MaxSAT solver")


def max_free(h: ForbiddenHypergraph,
             budget: int = DEFAULT_POINT_BUDGET) -> tuple[int, tuple[int, ...]]:
    """Exact maximum free-set size and its lexicographically first witness.

    Instances with more than budget points are refused with
    BudgetExceededError; export them with export_wcnf instead.  Both phases
    branch orbitally under the group of h's generators (see the module
    docstring); the witness does not depend on the generators.
    """
    refuse_past_solver_budget(h.size, budget)
    bb = _BranchAndBound(h.size, h.edges)
    group = _generated(h.size, h.generators)
    root = (0, (1 << h.size) - 1, (1 << len(h.edges)) - 1)
    bb.stop = bb.bound(*root)
    bb.search(*root, group)
    optimum = bb.best
    if optimum == 0:
        return 0, ()
    # found is a maximum free set extending the choices so far, and group
    # maps the choices so far onto themselves
    selected, undecided, alive = root
    bb.stop = optimum
    bb.include_first = True
    for v in range(h.size):
        bit = 1 << v
        if not undecided & bit:
            continue
        stab = group.stabiliser(v)
        child = bb.include(bit, selected, undecided, alive)
        if child is not None and not bb.found & bit:
            bb.best = optimum - 1
            if not bb.search(*child, stab):
                child = None
        if child is None:
            undecided &= ~bit
            alive &= ~bb.inc[v]
        else:
            selected, undecided, alive = child
        group = stab
    witness = tuple(_select(selected, count()))
    if not verify_free(witness, h.edges):
        raise AssertionError("solver witness failed independent check")
    return optimum, witness


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _select(mask: int, items: Iterable) -> Iterator:
    """The items at the set bit positions of mask, in order."""
    return compress(items, bin(mask)[:1:-1].encode().translate(_BIT_BYTES))


def export_wcnf(h: ForbiddenHypergraph) -> str:
    """Weighted partial MaxSAT encoding of the maximum free set problem.

    Variable i+1 means "point i is chosen".  Each point contributes a soft
    unit clause of weight 1; each edge contributes a hard clause (weight
    top = size + 1) forbidding all its points simultaneously.  An optimal
    WCNF solution falsifies exactly size - max_free soft clauses.
    """
    top = h.size + 1
    lines = [f"p wcnf {h.size} {h.size + len(h.edges)} {top}"]
    for v in range(h.size):
        lines.append(f"1 {v + 1} 0")
    for edge in h.edges:
        lits = " ".join(str(-(v + 1)) for v in edge)
        lines.append(f"{top} {lits} 0")
    return "\n".join(lines) + "\n"
