"""Naive reference implementations used to cross-check the exact solvers.

Everything here trades efficiency for obviousness: full enumerations with
plain loops, no pruning, and no shared bookkeeping with the package code
under test.  Tests freeze values by computing them twice, once with the
package and once here.
"""

import itertools
from fractions import Fraction


def brute_force_value(game):
    """Maximum winning probability over all product strategies, with the
    first maximising table tuple.

    Strategies are enumerated players ascending, questions in alphabet
    order, answers in alphabet order, so the first maximiser is the
    lexicographically first one under the same order the package uses.
    """
    domains = [game.question_domain(j) for j in range(game.k)]
    per_player = []
    for j in range(game.k):
        answers = list(game.answer_alphabets[j])
        per_player.append([dict(zip(domains[j], combo))
                           for combo in itertools.product(answers, repeat=len(domains[j]))])
    best = Fraction(0)
    best_tables = None
    for tables in itertools.product(*per_player):
        total = Fraction(0)
        for x, w in zip(game.support, game.weights):
            if game.predicate(x, tuple(tables[j][x[j]] for j in range(game.k))):
                total += w
        if best_tables is None or total > best:
            best = total
            best_tables = tables
    return best, best_tables


def brute_force_acceptance(game):
    """Per support tuple, in support order, the answer position tuples
    whose answers the predicate accepts, as a frozenset, by calling the
    predicate on every combination of positions."""
    alphabets = [list(a) for a in game.answer_alphabets]
    combos = list(itertools.product(*(range(len(a)) for a in alphabets)))
    return [frozenset(combo for combo in combos
                      if game.predicate(x, tuple(a[pos] for a, pos in zip(alphabets, combo))))
            for x in game.support]


def repeated_win_probability(base, n, strategy):
    """Winning probability of a strategy for the n-fold repetition of base.

    Walks every n-tuple of base support tuples: a player's question is the
    tuple of its per-round questions, the players win when the base
    predicate accepts every round, and the weight is the Fraction product
    of the rounds' base weights.
    """
    total = Fraction(0)
    for rounds in itertools.product(range(len(base.support)), repeat=n):
        answers = [strategy.tables[j][tuple(base.support[r][j] for r in rounds)]
                   for j in range(base.k)]
        if all(base.predicate(base.support[r], tuple(a[i] for a in answers))
               for i, r in enumerate(rounds)):
            weight = Fraction(1)
            for r in rounds:
                weight *= base.weights[r]
            total += weight
    return total


def naive_forbidden(support, n, points):
    """Forbidden configurations inside a point set, as a set of frozensets.

    A configuration is q = len(support) points e(0), .., e(q-1) with
    e(s)[i] = s at some coordinate i, such that each player's question row
    through e(s) depends only on that player's coordinate-i symbol.
    """
    q = len(support)
    k = len(support[0])
    pts = [tuple(p) for p in points]
    out = set()
    for i in range(n):
        for combo in itertools.product(pts, repeat=q):
            if any(combo[s][i] != s for s in range(q)):
                continue
            ok = True
            for j in range(k):
                rows = {}
                for s in range(q):
                    row = tuple(support[v][j] for v in combo[s])
                    if rows.setdefault(support[s][j], row) != row:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.add(frozenset(combo))
    return out


def naive_consistent_maps(support, domains):
    """Every map phi of range(q), as an image tuple, with phi(s) in the
    mask domains[s] and each player's symbol of support[phi(s)] a function
    of their symbol of support[s], by walking all q**q maps."""
    q, k = len(support), len(support[0])
    out = set()
    for phi in itertools.product(range(q), repeat=q):
        if not all(domains[s] >> phi[s] & 1 for s in range(q)):
            continue
        ok = True
        for j in range(k):
            image = {}
            for s in range(q):
                if image.setdefault(support[s][j], support[phi[s]][j]) != support[phi[s]][j]:
                    ok = False
        if ok:
            out.add(phi)
    return out


def naive_max_free(size, edges):
    """Exhaustive maximum free subset of range(size).

    Walks all 2**size subsets; ties between maximum subsets are broken
    toward the lexicographically smallest sorted index tuple, matching the
    witness convention of the exact solver.
    """
    edge_masks = []
    for e in edges:
        m = 0
        for v in e:
            m |= 1 << v
        edge_masks.append(m)
    best_size = -1
    best = None
    for mask in range(1 << size):
        if any(mask & em == em for em in edge_masks):
            continue
        chosen = tuple(i for i in range(size) if mask >> i & 1)
        if len(chosen) > best_size or (len(chosen) == best_size and chosen < best):
            best_size = len(chosen)
            best = chosen
    return best_size, best


def per_edge_hypergraph(size, edges, generators):
    """The (edges, generators) a hypergraph keeps, cleaned and checked one
    point at a time: each edge sorted with its repeats dropped, kept at its
    first occurrence, and every generator a permutation of range(size) that
    maps each kept edge onto a kept edge.  Raises ValueError for an empty
    edge, a point outside range(size) or a generator that fails."""
    seen = set()
    cleaned = []
    for edge in edges:
        e = tuple(sorted(set(int(v) for v in edge)))
        if not e:
            raise ValueError("empty edge")
        for v in e:
            if not 0 <= v < size:
                raise ValueError(f"point {v} out of range")
        if e not in seen:
            seen.add(e)
            cleaned.append(e)
    gens = []
    for g in generators:
        g = tuple(int(v) for v in g)
        if sorted(g) != list(range(size)):
            raise ValueError("not a permutation")
        for e in cleaned:
            if tuple(sorted(g[v] for v in e)) not in seen:
                raise ValueError("an edge maps onto a non-edge")
        gens.append(g)
    return tuple(cleaned), tuple(gens)


def naive_free_density(universe, config_point_sets):
    """Exact maximum free density of a universe by subset enumeration.

    config_point_sets holds configurations as sets of universe points (not
    indices); returns (density, witness index tuple).
    """
    index = {p: i for i, p in enumerate(universe)}
    edges = [sorted(index[p] for p in cfg) for cfg in config_point_sets]
    size, witness = naive_max_free(len(universe), edges)
    return Fraction(size, len(universe)), witness


def parse_wcnf(text):
    """Parse a WCNF instance into ((nvars, nclauses, top), clause list).

    Clauses are (weight, literal tuple); a weight of top or more marks a
    hard clause.  Raises AssertionError on malformed input.
    """
    header = None
    clauses = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            assert header is None, "duplicate header"
            tag, fmt, nvars, nclauses, top = line.split()
            assert (tag, fmt) == ("p", "wcnf")
            header = (int(nvars), int(nclauses), int(top))
            continue
        parts = [int(v) for v in line.split()]
        assert parts[-1] == 0, "clauses must be zero-terminated"
        clauses.append((parts[0], tuple(parts[1:-1])))
    assert header is not None, "missing header"
    assert len(clauses) == header[1], "clause count disagrees with header"
    return header, clauses


def wcnf_optimum(header, clauses):
    """Minimum total weight of falsified soft clauses over all assignments
    satisfying every hard clause, by full enumeration over 2**nvars."""
    nvars, _, top = header
    compiled = []
    for weight, lits in clauses:
        pos = neg = 0
        for literal in lits:
            if literal > 0:
                pos |= 1 << (literal - 1)
            else:
                neg |= 1 << (-literal - 1)
        compiled.append((weight, pos, neg))
    full = (1 << nvars) - 1
    best = None
    for mask in range(1 << nvars):
        cost = 0
        inverted = full ^ mask
        for weight, pos, neg in compiled:
            if mask & pos or inverted & neg:
                continue
            if weight >= top:
                cost = None
                break
            cost += weight
        if cost is not None and (best is None or cost < best):
            best = cost
    return best


_STAR = -1


def naive_lines(q, n):
    """Combinatorial line point sets by direct template instantiation."""
    out = set()
    for template in itertools.product(list(range(q)) + [_STAR], repeat=n):
        if _STAR not in template:
            continue
        out.add(frozenset(tuple(s if c == _STAR else c for c in template)
                          for s in range(q)))
    return out


def _bits(x, n):
    return tuple((x >> m) & 1 for m in range(n))


def naive_squares(n):
    """Square point sets {x, x+d} x {y, y+d} over F_2**n, points as pairs of
    little-endian bit vectors."""
    out = set()
    for x in range(2**n):
        for y in range(2**n):
            for d in range(1, 2**n):
                out.add(frozenset({
                    (_bits(x, n), _bits(y, n)),
                    (_bits(x ^ d, n), _bits(y, n)),
                    (_bits(x, n), _bits(y ^ d, n)),
                    (_bits(x ^ d, n), _bits(y ^ d, n)),
                }))
    return out


def naive_corners(n):
    """Corner point sets {(x,y), (x+d,y), (x,y+d)} over F_2**n."""
    out = set()
    for x in range(2**n):
        for y in range(2**n):
            for d in range(1, 2**n):
                out.add(frozenset({
                    (_bits(x, n), _bits(y, n)),
                    (_bits(x ^ d, n), _bits(y, n)),
                    (_bits(x, n), _bits(y ^ d, n)),
                }))
    return out


def _affine(field, x, alpha, d):
    """The vector x + alpha*d, coordinate by coordinate."""
    return tuple(field.add(a, field.mul(alpha, b)) for a, b in zip(x, d))


def naive_grids(field, k, n):
    """Grid point sets {(x_1 + a_1 d, .., x_k + a_k d) : a in F**k}, d != 0,
    by full parameter enumeration."""
    vectors = [tuple((code // field.order**m) % field.order for m in range(n))
               for code in range(field.order**n)]
    out = set()
    for x in itertools.product(vectors, repeat=k):
        for d in vectors:
            if all(v == 0 for v in d):
                continue
            grid = set()
            for alpha in itertools.product(field.elements, repeat=k):
                grid.add(tuple(_affine(field, x[j], alpha[j], d)
                               for j in range(k)))
            out.add(frozenset(grid))
    return out


def min_base_grids(field, k, n):
    """Grid cells as sorted point-index tuples, in the order of a loop over
    monic steps d (first non-zero coordinate 1), then base points x by
    index, that builds every cell and keeps it only when x is its
    minimum-index point.  Indices are little-endian: coordinate m of player
    j's vector is the digit of weight order**(m + n*j)."""
    q = field.order
    vectors = [tuple((code // q**m) % q for m in range(n)) for code in range(q**n)]

    def index(point):
        return sum(v * q**(m + n * j)
                   for j, vec in enumerate(point) for m, v in enumerate(vec))

    out = []
    for d in vectors:
        if next((v for v in d if v != 0), None) != 1:
            continue
        for i in range(q**(n * k)):
            x = [vectors[(i // q**(n * j)) % q**n] for j in range(k)]
            cell = [index([_affine(field, x[j], alpha[j], d)
                           for j in range(k)])
                    for alpha in itertools.product(field.elements, repeat=k)]
            if min(cell) == i:
                out.append(tuple(sorted(cell)))
    return out


def naive_support_relabellings(support, same_players=False):
    """Every permutation tau of range(len(support)) for which some player
    permutation pi (the identity when same_players) makes each map
    support[s][j] -> support[tau(s)][pi(j)] a well-defined injection, by
    walking all of S_q and S_k."""
    q, k = len(support), len(support[0])
    players = [tuple(range(k))] if same_players else list(itertools.permutations(range(k)))
    found = set()
    for tau in itertools.permutations(range(q)):
        for pi in players:
            ok = True
            for j in range(k):
                forward, backward = {}, {}
                for s in range(q):
                    a, b = support[s][j], support[tau[s]][pi[j]]
                    if forward.setdefault(a, b) != b or backward.setdefault(b, a) != a:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found.add(tau)
                break
    return found


def generated_group(gens, size):
    """Every element of the permutation group that gens generate on
    range(size), as image tuples, by breadth-first closure from the
    identity."""
    group = {tuple(range(size))}
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for g in gens:
            composed = tuple(map(g.__getitem__, p))
            if composed not in group:
                group.add(composed)
                frontier.append(composed)
    return group


def poly_mod_product(a, b, p, modulus):
    """The product of two residues, little-endian coefficient sequences of
    length r over GF(p), by the schoolbook product of the polynomials and
    long division by the monic modulus of r + 1 coefficients."""
    r = len(modulus) - 1
    prod = [0] * (2 * r - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for top in range(len(prod) - 1, r - 1, -1):
        lead = prod[top]
        for i, mi in enumerate(modulus):
            prod[top - r + i] = (prod[top - r + i] - lead * mi) % p
    return tuple(prod[:r])
