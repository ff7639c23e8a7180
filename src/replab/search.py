"""Exact maximum configuration-free subsets of small hypergraphs.

A ForbiddenHypergraph has points 0..size-1 and a family of edges (point
subsets).  A set of points is free when it contains no edge entirely.
max_free computes the exact maximum size of a free set together with the
lexicographically first maximum witness, by branch and bound over point
bitmask states.

The bound is |selected| + |undecided| - p where p is the size of a greedily
packed family of pairwise disjoint still-active edges: every packed edge
forces at least one exclusion among the undecided points.  Phase one branches
on a point of maximum active degree to find the optimum fast; phase two
re-walks points in index order, include-first, and stops at the first free
set of optimum size, which is the witness whose characteristic vector is
lexicographically largest, i.e. the smallest sorted index list.

For instances beyond the solver budget, export_wcnf emits the instance in
weighted partial MaxSAT (WCNF) form for an external solver: the optimum of
the WCNF equals size - max_free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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


def _greedy_packing(edge_masks: list[int]) -> int:
    packed = 0
    used = 0
    for e in edge_masks:
        if e & used == 0:
            packed += 1
            used |= e
    return packed


def _max_degree_bit(edge_masks: list[int]) -> int:
    degree: dict[int, int] = {}
    for e in edge_masks:
        while e:
            bit = e & -e
            degree[bit] = degree.get(bit, 0) + 1
            e ^= bit
    best_bit, best_deg = 0, -1
    for bit, deg in degree.items():
        if deg > best_deg or (deg == best_deg and bit < best_bit):
            best_bit, best_deg = bit, deg
    return best_bit


def _shrink_include(edge_masks: list[int], bit: int) -> list[int] | None:
    """Edge state after including bit; None when some edge becomes fully
    selected."""
    out = []
    for e in edge_masks:
        if e & bit:
            e2 = e & ~bit
            if e2 == 0:
                return None
            out.append(e2)
        else:
            out.append(e)
    return out


def _drop_exclude(edge_masks: list[int], bit: int) -> list[int]:
    return [e for e in edge_masks if not (e & bit)]


def _optimum_size(size: int, edge_masks: list[int], root_orbits: Sequence[int] | None) -> int:
    best = 0

    def bb(selected: int, undecided: int, active: list[int]) -> None:
        nonlocal best
        free_count = undecided.bit_count()
        if selected + free_count - _greedy_packing(active) <= best:
            return
        if not active:
            best = selected + free_count
            return
        bit = _max_degree_bit(active)
        shrunk = _shrink_include(active, bit)
        if shrunk is not None:
            bb(selected + 1, undecided & ~bit, shrunk)
        bb(selected, undecided & ~bit, _drop_exclude(active, bit))

    all_points = (1 << size) - 1
    if root_orbits is None:
        bb(0, all_points, edge_masks)
    else:
        # each maximum free set, taken with minimal first point, lies in the
        # branch that includes the orbit representative of that first point
        # and excludes everything before it; the empty set is the fallback
        for rep in sorted(root_orbits):
            bit = 1 << rep
            below = bit - 1
            active = [e for e in edge_masks if not (e & below)]
            shrunk = _shrink_include(active, bit)
            if shrunk is None:
                continue
            bb(1, all_points & ~(below | bit), shrunk)
    return best


def _lex_witness(size: int, edge_masks: list[int], target: int) -> tuple[int, ...]:
    found: list[tuple[int, ...]] = []

    def dfs(idx: int, chosen: tuple[int, ...], active: list[int]) -> bool:
        if len(chosen) + (size - idx) - _greedy_packing(active) < target:
            return False
        if idx == size:
            found.append(chosen)
            return True
        bit = 1 << idx
        shrunk = _shrink_include(active, bit)
        if shrunk is not None and dfs(idx + 1, chosen + (idx,), shrunk):
            return True
        return dfs(idx + 1, chosen, _drop_exclude(active, bit))

    ok = dfs(0, (), edge_masks)
    assert ok, "witness reconstruction must reach the optimum"
    return found[0]


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
    edge_masks = [_mask(e) for e in h.edges]
    if any(m == 0 for m in edge_masks):
        raise ValueError("empty edge")
    root = symmetry_orbit_prune(h) if h.generators else None
    optimum = _optimum_size(h.size, edge_masks, root)
    if optimum == 0:
        return 0, ()
    witness = _lex_witness(h.size, edge_masks, optimum)
    assert verify_free(witness, h.edges), "solver witness failed independent check"
    return optimum, witness


def _mask(edge: Sequence[int]) -> int:
    m = 0
    for v in edge:
        m |= 1 << v
    return m


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
