"""Exact maximum configuration-free subsets of small hypergraphs.

A ForbiddenHypergraph has points 0..size-1 and a family of edges (point
subsets).  A set of points is free when it contains no edge entirely.
max_free computes the exact maximum size of a free set together with the
lexicographically first maximum witness, by one branch and bound over
bitmask states (selected points, undecided points, alive edges); an edge is
alive while none of its points is excluded, and inc[v] is the mask of the
edges through point v.

Including v is unit propagation: every alive edge through v whose only
undecided point is u forces u out, and the branch fails when such an edge
has no undecided point left.  Excluding v kills the edges in inc[v].  The
bound is |selected| + |undecided| minus a greedy packing of pairwise
disjoint undecided edge parts, taken smallest first: each packed part must
lose a point.  The search branches on the undecided point of maximum alive
degree (lowest index on ties), exclude first: the first dive is then the
greedy free set that drops the most constrained point until no edge is
left, which on dense instances already meets the root bound.

The optimum phase stops as soon as it finds a free set as large as the root
bound; with generators it branches at the root on orbit representatives
only.  The witness phase walks the points in index order, trying to take
each, and keeps a maximum free set extending its choices: a point in that
set is taken at once, any other is taken only when the branch and bound
finds a free extension of optimum size, which becomes the new set.  The
result is the maximum free set with the smallest sorted index list; it does
not depend on the child order, since whether a free extension of optimum
size exists does not, and only the node counts do.

A StructureFamily is a universe with a re-enumerable configuration family:
max_free solves its hypergraph, and a fresh enumeration re-checks the set.

For instances beyond the solver budget, export_wcnf emits the instance in
weighted partial MaxSAT (WCNF) form for an external solver: the optimum of
the WCNF equals size - max_free.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from typing import Callable, Iterable, Iterator, Sequence

from .codec import ProductTuples
from .errors import BudgetExceededError

DEFAULT_POINT_BUDGET = 128


@dataclass(frozen=True)
class ForbiddenHypergraph:
    """Edges are stored sorted per edge, deduplicated, in first-seen order.

    generators, when given, are point permutations (images as tuples) that
    must map the edge family to itself; max_free restricts its optimum
    search to one root branch per point orbit under them.
    """

    size: int
    edges: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[int, ...], ...] = ()

    def __init__(self, size: int, edges: Iterable[Sequence[int]],
                 generators: Iterable[Sequence[int]] = ()):
        object.__setattr__(self, "size", int(size))
        seen = set()
        cleaned = []
        for edge in edges:
            e = tuple(sorted(set(int(v) for v in edge)))
            if not e:
                raise ValueError("empty edge")
            if not all(0 <= v < size for v in e):
                raise ValueError(f"edge {e} out of range for size {size}")
            if e not in seen:
                seen.add(e)
                cleaned.append(e)
        object.__setattr__(self, "edges", tuple(cleaned))
        gens = tuple(tuple(int(v) for v in g) for g in generators)
        for g in gens:
            if sorted(g) != list(range(self.size)):
                raise ValueError("generator is not a permutation of the points")
            if {tuple(sorted(g[v] for v in e)) for e in self.edges} != set(self.edges):
                raise ValueError("generator does not preserve the edge family")
        object.__setattr__(self, "generators", gens)


@dataclass
class StructureFamily:
    """A finite universe together with a re-enumerable configuration family.

    configurations() returns a fresh iterator of sorted point-index tuples on
    every call, so verification can re-walk the family independently of any
    solver state.  A point's index is its code in the universe, and index()
    raises ValueError for a point outside it.  generators are index
    permutations preserving the family; the solver uses them for its
    symmetry reduction.
    """

    name: str
    params: dict
    universe: ProductTuples
    _enumerate: Callable[[], Iterator[tuple[int, ...]]]
    generators: tuple = ()

    def configurations(self) -> Iterator[tuple[int, ...]]:
        return self._enumerate()

    def index(self, point) -> int:
        return self.universe.encode(point)

    def to_hypergraph(self) -> ForbiddenHypergraph:
        return ForbiddenHypergraph(len(self.universe), list(self.configurations()),
                                   self.generators)

    def __len__(self) -> int:
        return len(self.universe)


def verify_free(points: Iterable[int], edges: Iterable[Sequence[int]]) -> bool:
    """Check freeness by re-walking an edge enumeration.

    Deliberately independent of max_free's bookkeeping: pass a freshly
    enumerated edge family to guard against solver bugs.
    """
    chosen = set(points)
    for edge in edges:
        if all(v in chosen for v in edge):
            return False
    return True


class _BranchAndBound:
    """The search over (selected, undecided, alive) states described in the
    module docstring; every alive edge keeps an undecided point.  found is
    the largest free set seen and best its size; a search ends once best
    reaches stop.  nodes counts search calls."""

    def __init__(self, size: int, edge_masks: list[int]):
        self.edge_masks = edge_masks
        self.inc = [0] * size
        for i, m in enumerate(edge_masks):
            for v in _select(m, count()):
                self.inc[v] |= 1 << i
        self.nodes = 0
        self.best = 0
        self.found = 0
        self.stop = 0

    def include(self, v: int, selected: int, undecided: int,
                alive: int) -> tuple[int, int, int] | None:
        """State after including v and propagating; None when an edge
        through v is fully selected."""
        bit = 1 << v
        undecided &= ~bit
        through = alive & self.inc[v]
        while through:
            low = through & -through
            rest = self.edge_masks[low.bit_length() - 1] & undecided
            if not rest:
                return None
            if not rest & (rest - 1):
                undecided &= ~rest
                alive &= ~self.inc[rest.bit_length() - 1]
            through &= alive & ~low
        return selected | bit, undecided, alive

    def bound(self, selected: int, undecided: int, alive: int) -> int:
        """Upper bound on the size of any free extension of the state."""
        parts = sorted(map(undecided.__and__, _select(alive, self.edge_masks)),
                       key=int.bit_count)
        free = selected.bit_count() + undecided.bit_count()
        used = 0
        for part in parts:
            if not part & used:
                used |= part
                free -= 1
        return free

    def search(self, selected: int, undecided: int, alive: int) -> bool:
        """Raise best/found to the largest free extension of the state above
        best; True once a free set of stop points is found."""
        self.nodes += 1
        if self.bound(selected, undecided, alive) <= self.best:
            return False
        if not alive:
            self.found = selected | undecided
            self.best = self.found.bit_count()
            return self.best >= self.stop
        degrees = list(map(int.bit_count, map(alive.__and__, _select(undecided, self.inc))))
        v = list(_select(undecided, count()))[degrees.index(max(degrees))]
        if self.search(selected, undecided & ~(1 << v), alive & ~self.inc[v]):
            return True
        child = self.include(v, selected, undecided, alive)
        return child is not None and self.search(*child)


def max_free(h: ForbiddenHypergraph,
             budget: int = DEFAULT_POINT_BUDGET) -> tuple[int, tuple[int, ...]]:
    """Exact maximum free-set size and its lexicographically first witness.

    Instances with more than budget points are refused with
    BudgetExceededError; export them with export_wcnf instead.  When the
    hypergraph has generators, the optimum search branches at the root only
    on orbit representatives; the witness phase is symmetry-free, so the
    witness does not depend on the generators.
    """
    if h.size > budget:
        raise BudgetExceededError(
            f"{h.size} points exceed the solver budget {budget}; "
            "use export_wcnf and an external MaxSAT solver")
    edge_masks = [sum(1 << v for v in e) for e in h.edges]
    if any(m == 0 for m in edge_masks):
        raise ValueError("empty edge")
    bb = _BranchAndBound(h.size, edge_masks)
    root = (0, (1 << h.size) - 1, (1 << len(edge_masks)) - 1)
    bb.stop = bb.bound(*root)
    if not h.generators:
        bb.search(*root)
    else:
        # each maximum free set, taken with minimal first point, lies in the
        # branch that includes the orbit representative of that first point
        # and excludes everything before it; the empty set is the fallback
        for rep in symmetry_orbit_prune(h):
            below = (1 << rep) - 1
            alive = root[2]
            for v in range(rep):
                alive &= ~bb.inc[v]
            child = bb.include(rep, 0, root[1] & ~below, alive)
            if child is not None and bb.search(*child):
                break
    optimum = bb.best
    if optimum == 0:
        return 0, ()
    # found is a maximum free set extending the choices so far
    selected, undecided, alive = root
    bb.stop = optimum
    for v in range(h.size):
        bit = 1 << v
        if not undecided & bit:
            continue
        child = bb.include(v, selected, undecided, alive)
        if child is not None and not bb.found & bit:
            bb.best = optimum - 1
            if not bb.search(*child):
                child = None
        if child is None:
            undecided &= ~bit
            alive &= ~bb.inc[v]
        else:
            selected, undecided, alive = child
    witness = tuple(_select(selected, count()))
    if not verify_free(witness, h.edges):
        raise AssertionError("solver witness failed independent check")
    return optimum, witness


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _select(mask: int, items: Iterable) -> Iterator:
    """The items at the set bit positions of mask, in order."""
    return compress(items, bin(mask)[:1:-1].encode().translate(_BIT_BYTES))


def symmetry_orbit_prune(h: ForbiddenHypergraph) -> tuple[int, ...]:
    """Minimal representative of each point orbit under h's generators.

    Restricting the root branching of the optimum search to these
    representatives is sound: any maximum free set can be relabelled by a
    symmetry so that its minimal point is an orbit representative.
    """
    reps = []
    seen: set[int] = set()
    for start in range(h.size):
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for g in h.generators:
                w = g[v]
                if w not in orbit:
                    orbit.add(w)
                    frontier.append(w)
        seen |= orbit
        reps.append(min(orbit))
    return tuple(sorted(reps))


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
