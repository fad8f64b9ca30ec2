"""Independent brute-force oracles: slower routes that never share code with
the operations they check."""

from __future__ import annotations

import time
from typing import Iterable, Sequence

import numpy as np

from bicayley import permgroup
from bicayley.bicay import delta_map, right_translation, sigma_map
from bicayley.errors import BudgetError, DegreeMismatch, InvalidMapError, InvariantViolation
from bicayley.families import _check_t, gamma_group, gamma_t, sigma_group, sigma_t
from bicayley.metacyclic import CLOSURE_BUDGET, GroupMap, check_generator_images, make_automorphism
from bicayley.permgroup import PermGroup
from bicayley.symmetry import arc_orbits, classify


def order_by_iteration(G, g):
    """Smallest k >= 1 with g^k = 1, by repeated multiplication."""
    k = 1
    cur = g
    while cur != G.identity:
        cur = G.mul(cur, g)
        k += 1
        assert k <= G.order
    return k


def power_by_iteration(G, g, k):
    if k < 0:
        return power_by_iteration(G, G.inv(g), -k)
    cur = G.identity
    for _ in range(k):
        cur = G.mul(cur, g)
    return cur


def geom_sum_by_halving(mod, wj, k):
    """1 + wj + ... + wj^{k-1} mod mod, by halving (PairGroup.pow's former
    recursion)."""
    if k == 0:
        return 0
    if k % 2:
        return (geom_sum_by_halving(mod, wj, k - 1) + pow(wj, k - 1, mod)) % mod
    half = geom_sum_by_halving(mod, wj, k // 2)
    return half * (1 + pow(wj, k // 2, mod)) % mod


def power_by_halving(G, g, k):
    """g^k = b^{kj} a^{i (1 + w^j + ... + w^{(k-1)j})} with the halving sum."""
    if k < 0:
        return power_by_halving(G, G.inv(g), -k)
    j, i = g
    wj = G.twist_pow(j)
    return ((j * k) % G.mod_j, (i * geom_sum_by_halving(G.mod_i, wj, k)) % G.mod_i)


# -- subgroups by closure (the former MetacyclicGroup methods) ------------------


def normal_closure(G, seed):
    """The smallest normal subgroup holding seed: closures until conjugation
    by the generators adds nothing."""
    gens = list(seed)
    while True:
        sub = G.closure(gens)
        extra = [c for s in sub for t in (G.gen_a, G.gen_b) if (c := G.conj(s, t)) not in sub]
        if not extra:
            return sub
        gens = list(sub) + extra


def derived_subgroup(G):
    return normal_closure(G, [G.commutator(G.gen_a, G.gen_b)])


def maximal_subgroups(G):
    """The p+1 index-p subgroups of a 2-generated p-group, via G/Phi(G), as
    (generating set, element set) pairs; the generating set is the Frattini
    seed plus one coset representative per line of G/Phi."""
    a, b = G.gen_a, G.gen_b
    phi_gens = [G.pow(a, G.p), G.pow(b, G.p), G.commutator(a, b)]
    reps = [a] + [G.mul(G.pow(a, k), b) for k in range(G.p)]
    out = []
    for rep in reps:
        gens = phi_gens + [rep]
        sub = G.closure(gens)
        assert len(sub) * G.p == G.order, "quotient by the Frattini subgroup is not of rank 2"
        out.append((gens, sub))
    return out


def is_inner_abelian_by_closure(G):
    """Non-abelian with every maximal subgroup abelian: the generators of
    each maximal subgroup commute pairwise."""
    if G.is_abelian():
        return False
    mul = G.mul
    return all(
        mul(x, y) == mul(y, x) for gens, _ in maximal_subgroups(G) for x in gens for y in gens
    )


def frattini_by_maximal_intersection(G):
    """Intersection of all maximal subgroups, from the enumerated subgroups."""
    subs = [s for _, s in maximal_subgroups(G)]
    out = set(subs[0])
    for s in subs[1:]:
        out &= s
    return frozenset(out)


def frattini_by_closure(G):
    """G^p G' as an element set (valid since G is a p-group): the normal
    closure of a^p, b^p and [a, b]."""
    a, b = G.gen_a, G.gen_b
    return normal_closure(G, [G.pow(a, G.p), G.pow(b, G.p), G.commutator(a, b)])


def is_transitive_on(G, subset):
    """Whether the permutation group G is transitive on subset, which must
    be a nonempty G-invariant set of points."""
    from bicayley.errors import InvariantViolation

    pts = set(subset)
    if not pts:
        raise InvariantViolation("subset must be nonempty")
    for g in G.generators:
        if not pts.issuperset(int(g[x]) for x in pts):
            raise InvariantViolation("subset is not invariant under the group")
    return G.orbit(min(pts)) == pts


def derived_by_all_commutators(G):
    """Closure of the commutators of all element pairs."""
    els = G.elements()
    comms = {G.commutator(g, h) for g in els for h in els}
    return G.closure(comms)


def automorphisms_by_images(G):
    """Every generator-image pair (x, y) that defines an automorphism, by
    checking all |G|^2 candidates in (x, y) order."""
    from bicayley.metacyclic import check_generator_images

    els = G.elements()
    return [(x, y) for x in els for y in els if check_generator_images(G, x, y).ok]


def automorphisms(G):
    """All of Aut(G) for a metacyclic G as validated maps a -> x, b -> y,
    ordered by (x, y), with scalar arithmetic: x of order p^m, y of order
    p^n, generating G, with y^-1 x y = x^(1+p^r).  A homomorphism from a
    group of order |G| onto G is a bijection."""
    els = G.elements()
    xs = [g for g in els if G.element_order(g) == G.mod_i]
    ys = [g for g in els if G.element_order(g) == G.mod_j]
    out = []
    for x in xs:
        rhs = G.pow(x, G.twist)
        for y in ys:
            if G.generates(x, y) and G.conj(x, y) == rhs:
                out.append(GroupMap(x, y, validated=True))
    return out


def automorphism_pairs(G):
    """All of Aut(G) for a metacyclic G as the images (x, y) of (a, b), each
    packed as rank(x) * |G| + rank(y), ascending: (x, y) in rank order (the
    former MetacyclicGroup.automorphism_pairs, over the product table).

    a -> x, b -> y is an automorphism exactly when x has order p^m, y has
    order p^n, x and y generate G (`generates`) and y^-1 x y = x^(1+p^r),
    that is x y = y x^(1+p^r): a homomorphism from a group of order |G|
    onto G is a bijection.  Comparing row x of the table with column
    x^(1+p^r) tests every y at once.
    """
    table = G.right_mul_rows(np.arange(G.order)).T  # table[g, h] = rank(g h)
    size, p = G.order, G.p
    points = np.arange(size)
    power = points  # x^p for every x, by p - 1 products
    for _ in range(p - 1):
        power = table[power, points]
    # log_p of each order: the p-th powers taken until the identity, rank 0
    log_order = np.zeros(size, dtype=np.intp)
    cur = points
    while cur.any():
        log_order += cur != 0
        cur = power[cur]
    twisted = points  # x^(p^r), then x^(1+p^r)
    for _ in range(G.r):
        twisted = power[twisted]
    twisted = table[points, twisted]
    xs = np.flatnonzero(log_order == G.m)
    # the determinant test of `generates` for each x and every y = b^j a^i of the grid
    xj, xi = (c[:, None, None] for c in np.divmod(xs, G.mod_i))
    j, i = np.ogrid[: G.mod_j, : G.mod_i]
    valid = (
        (log_order == G.n)
        & ((xj * i - xi * j) % p != 0).reshape(len(xs), size)
        & (table[xs] == table[:, twisted[xs]].T)
    )
    rows, ys = np.nonzero(valid)
    return xs[rows] * size + ys


def subgroup_is_abelian(G, elements):
    elements = sorted(elements)
    for x in elements:
        for y in elements:
            if G.mul(x, y) != G.mul(y, x):
                return False
    return True


def regular_representation(G):
    """The right-multiplication permutations of the two generators, as a
    PermGroup with the base and strong generators of `schreier_sims`, the
    given ones first (the former PairGroup.regular_representation)."""
    els = G.elements()
    rank = G.rank
    return chain_group(len(els), [[rank(G.mul(h, g)) for h in els] for g in (G.gen_a, G.gen_b)])


def regular_table(G):
    """All right-multiplication permutations as one |G| x |G| array."""
    els = G.elements()
    rank = G.rank
    return np.array([[rank(G.mul(h, g)) for h in els] for g in els], dtype=np.int64)


def check_regular_action_exhaustive(G):
    """R(g)R(h) = R(gh) on every pair and every point: associativity in bulk."""
    table = regular_table(G)
    rank = G.rank
    els = G.elements()
    for gi, g in enumerate(els):
        pg = table[gi]
        for hi, h in enumerate(els):
            # compose R(g) then R(h), compare with R(gh)
            if not np.array_equal(table[hi][pg], table[rank(G.mul(g, h))]):
                return False
    return True


def enumerate_elements(G, limit=100_000):
    """Every element of the permutation group G, by closing its generators
    under products, in lexicographic order (the former
    PermGroup.enumerate_elements)."""
    ident = np.arange(G.degree, dtype=np.intp)
    seen = {ident.tobytes(): ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in G.generators:
                y = g[x]
                key = y.tobytes()
                if key not in seen:
                    seen[key] = y
                    new.append(y)
        if len(seen) > limit:
            raise BudgetError(f"enumeration exceeds limit {limit}")
        frontier = new
    return sorted(seen.values(), key=lambda p: p.tolist())


# -- the generic Schreier-Sims scan: the former `PermGroup._build_chain` ------


class ChainLevel:
    """One level of the scan's chain: its base point, the inverses of its
    transversal, its strong generators as (g, g^-1) pairs, and per orbit
    point how many of them the scan has shown to give trivial Schreier
    generators there (transversals only grow, so those stay trivial)."""

    __slots__ = ("base", "inverse", "gens", "checked")

    def __init__(self, base: int, degree: int):
        self.base = base
        self.inverse: dict[int, np.ndarray] = {base: np.arange(degree, dtype=np.intp)}
        self.gens: list[tuple[np.ndarray, np.ndarray]] = []
        self.checked: dict[int, int] = {}

    def grow(self, pair) -> None:
        """Add a strong generator; the orbit grows breadth-first, the known
        points under it alone, then each new point under every generator."""
        self.gens.append(pair)
        frontier, pairs = list(self.inverse), [pair]
        while frontier:
            new = []
            for pt in frontier:
                u_inv = self.inverse[pt]
                for g, g_inv in pairs:
                    img = int(g[pt])
                    if img not in self.inverse:
                        self.inverse[img] = u_inv[g_inv]  # (u g)^-1 = g^-1 u^-1
                        new.append(img)
            frontier, pairs = new, self.gens


def sift(perm, levels, start=0):
    """Strip perm through levels[start:]; (residue, the level where it stuck)."""
    for idx in range(start, len(levels)):
        lv = levels[idx]
        img = int(perm[lv.base])
        if img == lv.base:
            continue
        rep_inv = lv.inverse.get(img)
        if rep_inv is None:
            return perm, idx
        perm = rep_inv[perm]
    return perm, len(levels)


def schreier_chain(degree: int, generators) -> list[ChainLevel]:
    """The chain of one pass of deterministic Schreier-Sims.

    A strong generator joins every level up to the first base point it
    moves, growing those basic orbits; one that fixes every base opens a
    level at its least moved point.  The scan sifts each level's Schreier
    generators through the levels below it, deepest level first, in a fixed
    order; a non-trivial residue joins the chain and the scan resumes at the
    level where it stuck, past the pairs already shown trivial.  Level 0
    holds every strong generator, the given ones (validated, distinct, not
    the identity) first, then the residues in the order they joined."""
    gens, seen = [], set()
    for g in generators:
        p = permgroup._validate_perm(g, degree)
        if p.tobytes() not in seen and not permgroup.is_identity(p):
            seen.add(p.tobytes())
            gens.append(p)
    ident = np.arange(degree, dtype=np.intp)
    ident_bytes = ident.tobytes()
    levels: list[ChainLevel] = []

    def add(g) -> None:
        pair = (g, permgroup.invert(g))  # one inverse per strong generator
        for lv in levels:
            lv.grow(pair)
            if g[lv.base] != lv.base:
                return
        levels.append(ChainLevel(int((g != ident).argmax()), degree))
        levels[-1].grow(pair)

    def scan(idx: int) -> int:
        # sift level idx's Schreier generators not yet shown trivial through
        # the levels below it; the first non-trivial residue joins the chain
        # and the scan resumes at the level where it stuck, else at idx - 1
        lv = levels[idx]
        for pt in sorted(lv.inverse):
            u_inv = lv.inverse[pt]
            u = None  # inverted only when some generator here needs it
            for k in range(lv.checked.get(pt, 0), len(lv.gens)):
                g, g_inv = lv.gens[k]
                # Schreier generator u g t^-1, t the representative of
                # g[pt]; it is trivial exactly when (u g)^-1 == t^-1
                t_inv = lv.inverse[int(g[pt])]
                if u_inv[g_inv].tobytes() == t_inv.tobytes():
                    continue
                if u is None:
                    u = permgroup.invert(u_inv)
                residue, stuck = sift(t_inv[g[u]], levels, idx + 1)
                if residue.tobytes() != ident_bytes:
                    lv.checked[pt] = k  # pair k is checked again on resuming
                    add(residue)
                    return stuck
            lv.checked[pt] = len(lv.gens)
        return idx - 1

    for g in gens:
        add(g)
    idx = len(levels) - 1
    while idx >= 0:
        idx = scan(idx)
    return levels


def schreier_sims(degree: int, generators) -> tuple[tuple[int, ...], tuple[np.ndarray, ...]]:
    """(base, strong generators) of the group the generators make, from
    `schreier_chain`; the given generators come first."""
    levels = schreier_chain(degree, generators)
    return tuple(lv.base for lv in levels), tuple(g for g, _ in levels[0].gens) if levels else ()


def chain_group(degree: int, generators) -> PermGroup:
    """The group the generators make, given the base and strong generators
    of `schreier_sims`, so that its order, membership and semiregularity
    are defined."""
    base, strong = schreier_sims(degree, generators)
    return PermGroup(degree, strong, base)


def is_normal(G: PermGroup, N: PermGroup) -> bool:
    """Whether <N> is normal in <G> (the former `permgroup.is_normal`); N's
    generators must lie in G, and both groups need a base (`chain_group`).

    One conjugate per pair of generators: g^-1 N g, a subgroup of N of the
    same finite order, is N itself, so g N g^-1 = N needs no check."""
    if G.degree != N.degree:
        raise DegreeMismatch(f"degrees {G.degree} and {N.degree} differ")
    for n in N.generators:
        if not G.contains(n):
            raise InvariantViolation("N is not contained in G")
    for g in G.generators:
        ginv = permgroup.invert(g)
        for n in N.generators:
            if not N.contains(g[n[ginv]]):  # g^-1 n g
                return False
    return True


def census_by_pairs(group):
    """The census by one canonical labelling per generating pair."""
    from bicayley.bicay import BiCayleyGraph
    from bicayley.errors import BudgetError
    from bicayley.families import CensusClass, CensusResult
    from bicayley.metacyclic import TABLE_BUDGET
    from bicayley.symmetry import canonical_digest, classify

    if group.order > TABLE_BUDGET:
        raise BudgetError(f"census limited to groups of order <= {TABLE_BUDGET}")
    start = time.monotonic()
    els = group.elements()
    ident = group.identity
    nonid = [g for g in els if g != ident]
    buckets = {}
    pair_count = 0
    generating = 0
    for i, x in enumerate(nonid):
        for y in nonid[i + 1 :]:
            pair_count += 1
            if len(group.closure([x, y])) != group.order:
                continue
            generating += 1
            bg = BiCayleyGraph(group, (), (), (ident, x, y))
            digest = canonical_digest(bg.graph)
            entry = buckets.get(digest)
            if entry is None:
                buckets[digest] = [(ident, x, y), 1, bg]
            else:
                entry[1] += 1
    classes = []
    for digest in sorted(buckets):
        spokes, count, bg = buckets[digest]
        classes.append(CensusClass(spokes, digest, count, classify(bg.graph)))
    elapsed = time.monotonic() - start
    return CensusResult(group.params(), pair_count, generating, tuple(classes), elapsed)


def _g6_size_header(n):
    if n <= 62:
        return chr(63 + n)
    if n <= 258047:
        return "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    return "~~" + "".join(chr(63 + ((n >> s) & 63)) for s in (30, 24, 18, 12, 6, 0))


def graph6_encode_by_bits(g):
    """graph6 text, one upper-triangle bit at a time."""
    n = g.n
    bits = bytearray(n * (n - 1) // 2)
    for u, v in g.edges:
        # position of pair (u, v), u < v, in column-major upper-triangle order
        bits[v * (v - 1) // 2 + u] = 1
    chunks = []
    for k in range(0, len(bits), 6):
        group = bits[k : k + 6]
        val = 0
        for b in group:
            val = (val << 1) | b
        val <<= 6 - len(group)
        chunks.append(chr(63 + val))
    return _g6_size_header(n) + "".join(chunks)


def graph6_decode_by_bits(text):
    """Parse graph6 text, one body bit at a time."""
    from bicayley.errors import GraphParseError
    from bicayley.graphs import Graph

    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise GraphParseError("empty graph6 string", 0)
    for off, ch in enumerate(s):
        if not ch.isascii():
            raise GraphParseError(f"non-ASCII character {ch!r} in graph6", off)
        if not 63 <= ord(ch) <= 126:
            raise GraphParseError(f"invalid graph6 byte {ord(ch)!r}", off)
    data = s.encode("ascii")
    pos = 0
    if data[0] == 126:  # '~'
        if len(data) >= 2 and data[1] == 126:
            if len(data) < 8:
                raise GraphParseError("truncated graph6 size header", len(data))
            n = 0
            for byte in data[2:8]:
                n = (n << 6) | (byte - 63)
            pos = 8
        else:
            if len(data) < 4:
                raise GraphParseError("truncated graph6 size header", len(data))
            n = 0
            for byte in data[1:4]:
                n = (n << 6) | (byte - 63)
            pos = 4
    else:
        n = data[0] - 63
        pos = 1
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - pos != need:
        raise GraphParseError(
            f"graph6 body has {len(data) - pos} bytes, expected {need}", pos
        )
    edges = []
    bit_index = 0
    v = 1  # column of the current bit; positions are visited in increasing order
    for byte in data[pos:]:
        val = byte - 63
        for shift in range(5, -1, -1):
            if bit_index >= nbits:
                break
            while (v + 1) * v // 2 <= bit_index:
                v += 1
            if (val >> shift) & 1:
                edges.append((bit_index - v * (v - 1) // 2, v))
            bit_index += 1
    return Graph(n, edges)


# -- graph construction ---------------------------------------------------------


def graph_by_edge_loop(n, edges):
    """(edges, adj) of the simple graph on 0..n-1, one pair at a time
    (Graph.__init__'s former loop): edges a sorted tuple of (u, v), u < v."""
    norm = set()
    for u, v in edges:
        if u == v:
            raise InvariantViolation(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise InvariantViolation(f"edge ({u}, {v}) outside vertex range")
        norm.add((u, v) if u < v else (v, u))
    edges = tuple(sorted(norm))
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return edges, tuple(tuple(sorted(x)) for x in adj)


def adjacency(graph):
    """v -> the sorted tuple of v's neighbours, one edge at a time."""
    adj = [[] for _ in range(graph.n)]
    for u, v in graph.edges.tolist():
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(nbrs)) for nbrs in adj)


def components_by_bfs(graph):
    """Connected components as sorted vertex lists, ordered by least vertex,
    by breadth-first search over adjacency sets."""
    adj = [set(nbrs) for nbrs in adjacency(graph)]
    seen = set()
    out = []
    for start in range(graph.n):
        if start in seen:
            continue
        seen.add(start)
        comp, frontier = [start], [start]
        while frontier:
            new = []
            for x in frontier:
                for w in adj[x] - seen:
                    seen.add(w)
                    new.append(w)
            comp += new
            frontier = new
        out.append(sorted(comp))
    return out


# -- graph automorphisms --------------------------------------------------------


def brute_force_aut_order(graph) -> int:
    """Degree-preserving backtracking with no refinement; oracle for small graphs."""
    if graph.n > 30:
        raise BudgetError("brute-force oracle limited to 30 vertices")
    n = graph.n
    degs = graph.degrees()
    adjsets = [set(nb) for nb in adjacency(graph)]
    count = 0
    image = [-1] * n
    used = [False] * n

    def extend(v: int) -> None:
        nonlocal count
        if v == n:
            count += 1
            return
        for w in range(n):
            if used[w] or degs[w] != degs[v]:
                continue
            ok = True
            for u in range(v):
                if (u in adjsets[v]) != (image[u] in adjsets[w]):
                    ok = False
                    break
            if not ok:
                continue
            image[v] = w
            used[w] = True
            extend(v + 1)
            used[w] = False
            image[v] = -1

    extend(0)
    return count


def refine_by_rows(nbr, colors):
    """Colour refinement as `_Engine.refine` did it before its packed key:
    each round ranks the rows (colour, sorted neighbour colours) with
    np.unique(axis=0).  nbr is the engine's padded neighbour table."""
    _, colors = np.unique(colors, return_inverse=True)
    k = int(colors.max()) + 1
    while True:
        sig = np.sort(np.concatenate([colors, [k]])[nbr], axis=1)
        _, inv = np.unique(np.column_stack([colors, sig]), axis=0, return_inverse=True)
        inv = inv.reshape(-1)
        new_k = int(inv.max()) + 1
        if new_k == k:
            return inv
        colors, k = inv, new_k


# -- tuple permutation kernels ------------------------------------------------
#
# permgroup.py's permutations were tuples before they became numpy arrays;
# these are its tuple kernels, kept unchanged as the reference for the array
# versions.

Perm = tuple[int, ...]


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p first, then q."""
    if len(p) != len(q):
        raise DegreeMismatch(f"degrees {len(p)} and {len(q)} differ")
    return tuple(q[x] for x in p)


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def perm_power(p: Perm, k: int) -> Perm:
    if k < 0:
        return perm_power(invert(p), -k)
    result = identity(len(p))
    base = p
    while k:
        if k & 1:
            result = compose(result, base)
        base = compose(base, base)
        k >>= 1
    return result


def is_permutation_by_sort(p, degree: int) -> bool:
    """Whether the integer sequence p, sorted, is 0, 1, ..., degree - 1 (the
    library's former sort-and-compare test)."""
    return sorted(int(x) for x in p) == list(range(degree))


def integer_points(p):
    """p's points as nested Python ints, or None where the library's one
    integer rule refuses p; decided by walking p, not by numpy's conversion.

    An ndarray counts by its dtype (integer kinds) or by being empty.  A
    nest of lists and tuples counts when its rows at each depth have one
    length and its entries are Python or numpy integers or bools, at least
    one of them not a bool (as numpy promotes [0, True] to integers), or
    when it has no entry at all.  Integers are assumed to fit in int64."""
    if isinstance(p, np.ndarray):
        return p.tolist() if p.dtype.kind in "iu" or not p.size else None
    entries = []

    def shape(x):  # the shape of the nest x, or None for rows of different lengths
        if not isinstance(x, (list, tuple)):
            entries.append(x)
            return ()
        shapes = {shape(y) for y in x}
        if None in shapes or len(shapes) > 1:
            return None
        return (len(x), *shapes.pop()) if shapes else (0,)

    if shape(p) is None:
        return None
    bools = [isinstance(x, (bool, np.bool_)) for x in entries]
    ints = [isinstance(x, (int, np.integer)) and not b for x, b in zip(entries, bools)]
    if entries and not (any(ints) and all(i or b for i, b in zip(ints, bools))):
        return None

    def ints_of(x):
        return [ints_of(y) for y in x] if isinstance(x, (list, tuple)) else int(x)

    return ints_of(p)


def subgroup_by_table(table, ranks) -> frozenset[int]:
    """The ranks of the subgroup that the elements of the given ranks
    generate, by squaring the set {identity (rank 0)} + ranks under the full
    multiplication table (`regular_table`) until it stops growing: a finite
    subset closed under products is a subgroup."""
    current = np.unique([0, *ranks])
    while True:
        grown = np.unique(table[np.ix_(current, current)])
        if len(grown) == len(current):
            return frozenset(current.tolist())
        current = grown


def cycle_type(p: Perm) -> tuple[int, ...]:
    seen = [False] * len(p)
    sizes = []
    for start in range(len(p)):
        if seen[start]:
            continue
        size = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            size += 1
        sizes.append(size)
    return tuple(sorted(sizes, reverse=True))


def _orbit(point: int, generators: Sequence[Perm]) -> frozenset[int]:
    seen = {point}
    frontier = [point]
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = g[x]
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return frozenset(seen)


# -- orbits by Python loops: the former `PermGroup` and `quotient_graph` code ----


def orbit_size_by_bfs(point: int, generators) -> int:
    """Size of point's orbit, by a breadth-first search from point over a
    Python set (the former `permgroup._orbit_size`)."""
    seen = {point}
    frontier = [point]
    while frontier:
        new = []
        for g in generators:
            for x in g[frontier].tolist():
                if x not in seen:
                    seen.add(x)
                    new.append(x)
        frontier = new
    return len(seen)


def basic_orbit_sizes_by_bfs(degree: int, generators, base) -> list[int]:
    """|b_i^(G_i)| for each base point b_i, G_i generated by the generators
    fixing base[:i], each orbit by `orbit_size_by_bfs`."""
    gens = [np.asarray(g) for g in generators]
    sizes = []
    for b in base:
        sizes.append(orbit_size_by_bfs(b, gens))
        gens = [g for g in gens if g[b] == b]
    return sizes


def orbits_by_scan(labels) -> list[frozenset[int]]:
    """The orbits of orbit labels, by a scan in point order, which meets each
    orbit first at its label, its least point (the former `PermGroup.orbits`)."""
    parts: dict[int, list[int]] = {}
    for point, label in enumerate(labels.tolist()):
        parts.setdefault(label, []).append(point)
    return [frozenset(part) for part in parts.values()]


def is_semiregular_by_sets(G) -> bool:
    """Whether every orbit has the group's size, over Python sets (the
    former `PermGroup.is_semiregular`)."""
    size = G.order()
    return all(len(orb) == size for orb in orbits_by_scan(G.orbit_labels()))


def quotient_by_unique(graph, N):
    """(quotient graph, orbit sizes ascending) with each vertex's orbit index
    from np.unique's inverse of the labels (the former `quotient_graph`)."""
    from bicayley import Graph

    owner = np.unique(N.orbit_labels(), return_inverse=True)[1]
    ends = owner[graph.edges]
    q = Graph(int(owner.max(initial=-1)) + 1, ends[ends[:, 0] != ends[:, 1]])
    return q, tuple(sorted(np.bincount(owner).tolist()))


def orbit_of_tuple(generators: Iterable[Perm], seed: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Orbit of a point tuple under the componentwise action of the generators."""
    gens = list(generators)
    seen = {seed}
    frontier = [seed]
    while frontier:
        new = []
        for item in frontier:
            for g in gens:
                img = tuple(g[x] for x in item)
                if img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    return frozenset(seen)


def _orbit_count(items: list[tuple[int, ...]], gens, normalize) -> int:
    left = set(items)
    count = 0
    while left:
        seed = min(left)
        orb = orbit_of_tuple(gens, seed)
        left -= {normalize(x) for x in orb}
        count += 1
    return count


def arc_orbits_by_scatter(graph, generators):
    """(keys, labels, reversal) as `symmetry.arc_orbits` had it: each arc
    permutation scattered from its sorting order, then folded into the labels
    (the former body)."""
    from bicayley.permgroup import orbit_labels

    n = graph.n
    e = graph.edges
    keys = np.sort(np.concatenate([e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]]))
    u, v = np.divmod(keys, n)
    places = np.arange(len(keys))

    def index(a, b):
        packed = a * n + b
        order = packed.argsort()
        if not np.array_equal(packed[order], keys):
            raise InvalidMapError("a generator maps an arc to a non-arc")
        idx = np.empty_like(order)
        idx[order] = places
        return idx

    labels = places
    for g in generators:
        labels = orbit_labels(len(keys), [index(g[u], g[v])], labels)
    return keys, labels, index(v, u)


# -- scalar generator-image maps -------------------------------------------------
#
# The element-at-a-time map layer that metacyclic.py carried before every map
# became its `map_ranks` row: apply, compose and order of a map, and the word
# search that carried a map on a spoke pair back to the images of (a, b).


def apply_map(G, f, g):
    """Image of g = b^j a^i, i.e. (image of b)^j (image of a)^i."""
    if not f.validated:
        raise InvalidMapError("map has not been validated as an automorphism")
    j, i = g
    return G.mul(G.pow(f.image_b, j), G.pow(f.image_a, i))


def compose_maps(G, f1, f2):
    """The map 'apply f1, then f2'."""
    if not (f1.validated and f2.validated):
        raise InvalidMapError("map has not been validated as an automorphism")
    return GroupMap(
        apply_map(G, f2, f1.image_a),
        apply_map(G, f2, f1.image_b),
        validated=True,
    )


def map_order(G, f):
    if not f.validated:
        raise InvalidMapError("map has not been validated as an automorphism")
    ident = (G.gen_a, G.gen_b)
    cur = f
    k = 1
    while (cur.image_a, cur.image_b) != ident:
        cur = compose_maps(G, cur, f)
        k += 1
        if k > G.order:
            raise InvalidMapError("map does not power to the identity")
    return k


def express_in_images(G, x, y, targets):
    """Words over (x, y) reaching each target, by breadth-first search.

    Raises InvalidMapError if some target is outside <x, y>.  Used to carry a
    map defined on an arbitrary generating pair back to images of (a, b):
    evaluate the words for a and b at the desired images of x and y.
    """
    gens = (x, y)
    parent = {G.identity: None}
    frontier = [G.identity]
    wanted = set(targets)
    while frontier and not wanted <= parent.keys():
        new = []
        for el in frontier:
            for idx, g in enumerate(gens):
                nxt = G.mul(el, g)
                if nxt not in parent:
                    parent[nxt] = (el, idx)
                    new.append(nxt)
        if len(parent) > CLOSURE_BUDGET:
            raise BudgetError("word search exceeds the enumeration budget")
        frontier = new
    words = []
    for t in targets:
        t = (t[0] % G.mod_j, t[1] % G.mod_i)
        if t not in parent:
            raise InvalidMapError(f"{G.element_str(t)} is not in the span of the pair")
        word = []
        cur = t
        while parent[cur] is not None:
            prev, idx = parent[cur]
            word.append(idx)
            cur = prev
        words.append(tuple(reversed(word)))
    return words


def evaluate_word(G, word, x, y):
    out = G.identity
    gens = (x, y)
    for idx in word:
        out = G.mul(out, gens[idx])
    return out


def sigma_condition_by_sets(bg, f, g):
    """The first of sigma_map's conditions that (f, g) fails, or None, by sets
    of scalar images."""
    G = bg.group
    img = lambda x: apply_map(G, f, x)
    if {img(x) for x in bg.R} != set(bg.R):
        return "R^alpha != R"
    if {img(x) for x in bg.L} != {G.mul(G.mul(G.inv(g), x), g) for x in bg.L}:
        return "L^alpha != g^-1 L g"
    if {img(x) for x in bg.S} != {G.mul(G.inv(g), x) for x in bg.S}:
        return "S^alpha != g^-1 S"
    return None


def delta_condition_by_sets(bg, f, x, y):
    """The first of delta_map's conditions that (f, x, y) fails, or None."""
    G = bg.group
    img = lambda z: apply_map(G, f, z)
    conj = lambda t, u: G.mul(G.mul(G.inv(t), u), t)
    if {img(z) for z in bg.R} != {conj(x, z) for z in bg.L}:
        return "R^alpha != x^-1 L x"
    if {img(z) for z in bg.L} != {conj(y, z) for z in bg.R}:
        return "L^alpha != y^-1 R y"
    if {img(z) for z in bg.S} != {G.mul(G.mul(G.inv(y), G.inv(z)), x) for z in bg.S}:
        return "S^alpha != y^-1 S^-1 x"
    return None


def spoke_maps_by_words(bg):
    """`spoke_stabilizer_maps` by its former route: express a and b as words in
    the spokes x, y, evaluate the words at each arrangement's images of x and
    y, and keep the validated sigma maps."""
    from bicayley.bicay import sigma_map
    from bicayley.metacyclic import make_automorphism

    G = bg.group
    ident = G.identity
    if bg.R or bg.L or len(bg.S) != 3 or ident not in bg.S:
        raise InvariantViolation("spoke arrangements need R = L = {} and S = {1, x, y}")
    x, y = [s for s in bg.S if s != ident]
    word_a, word_b = express_in_images(G, x, y, [G.gen_a, G.gen_b])
    out = []
    for pi in (
        (ident, x, y), (ident, y, x),
        (x, y, ident), (x, ident, y),
        (y, ident, x), (y, x, ident),
    ):
        g = pi[0]
        ginv = G.inv(g)
        x_img = G.mul(ginv, pi[1])
        y_img = G.mul(ginv, pi[2])
        a_img = evaluate_word(G, word_a, x_img, y_img)
        b_img = evaluate_word(G, word_b, x_img, y_img)
        try:
            alpha = make_automorphism(G, a_img, b_img)
        except InvalidMapError:
            continue
        res = sigma_map(bg, alpha, g)
        if res.valid:
            out.append((alpha, g, res.permutation))
    return out


# -- per-element bi-Cayley loops ------------------------------------------------
#
# bicay.py built its graphs and maps one element at a time through scalar
# mul/apply_map before the whole-group rank kernels; these are those loops.


def bicay_edges_by_elements(group, R, L, S):
    """The edge list of BiCay(H, R, L, S), one product per element and set member."""
    half = group.order
    rank = group.rank
    edges = []
    for h in group.elements():
        hr = rank(h)
        for r in R:
            edges.append((rank(group.mul(r, h)), hr))
        for l in L:
            edges.append((half + rank(group.mul(l, h)), half + hr))
        for s in S:
            edges.append((hr, half + rank(group.mul(s, h))))
    return edges


def right_translation_by_elements(bg, g):
    """Images of h_i -> (hg)_i."""
    G = bg.group
    half = bg.half
    images = [0] * (2 * half)
    for h in G.elements():
        hr = G.rank(h)
        target = G.rank(G.mul(h, g))
        images[hr] = target
        images[half + hr] = half + target
    return images


def sigma_images_by_elements(bg, f, g):
    """Images of h_0 -> (h^f)_0, h_1 -> (g h^f)_1."""
    G = bg.group
    half = bg.half
    images = [0] * (2 * half)
    for h in G.elements():
        hr = G.rank(h)
        ha = apply_map(G, f, h)
        images[hr] = G.rank(ha)
        images[half + hr] = half + G.rank(G.mul(g, ha))
    return images


def delta_images_by_elements(bg, f, x, y):
    """Images of h_0 -> (x h^f)_1, h_1 -> (y h^f)_0."""
    G = bg.group
    half = bg.half
    images = [0] * (2 * half)
    for h in G.elements():
        hr = G.rank(h)
        ha = apply_map(G, f, h)
        images[hr] = half + G.rank(G.mul(x, ha))
        images[half + hr] = G.rank(G.mul(y, ha))
    return images


# -- family certificates: the former verifiers, one body each -------------------


def _pair_dict(G, x, y, rep):
    out = {
        "image_a": G.element_str(x),
        "image_b": G.element_str(y),
        "is_automorphism": rep.ok,
    }
    if not rep.ok:
        out["violated"] = rep.violated()
        if rep.forced_a_exponents:
            out["forces"] = [f"a^{e} = 1" for e in rep.forced_a_exponents]
    return out


def _neighbor_cycle(bg, result, fixes):
    perm = result.permutation
    edges = bg.graph.edges
    # the other end of each edge at fixes, read off the edges without building adj
    neighbors = (edges[(edges == fixes).any(axis=1)].sum(axis=1) - fixes).tolist()
    cycle_ok = perm is not None and all(perm[w] in neighbors and perm[w] != w for w in neighbors)
    return {
        "valid": result.valid,
        "failed_condition": result.failed_condition,
        "fixes_base_vertex": perm is not None and int(perm[fixes]) == fixes,
        "three_cycles_neighbors": bool(cycle_ok),
    }


def verify_semisymmetric_family_reference(t: int, full_aut: bool | None = None) -> dict:
    """Certificates that gamma_t is edge- but not vertex-transitive (the
    former `families.verify_semisymmetric_family`, with its own report code).

    Arithmetic part (any t within budget): the rotation images
    (a^-2 b, a^{3^t-3} b) satisfy the presentation and generate; both
    candidate spoke-inverting images fail the conjugation relation, the
    defect forcing a^{2*3^t} = 1.  Graph part: sigma_{alpha,a} fixes the
    identity vertex and 3-cycles its neighbours; with full_aut, classify
    must report semisymmetric.  full_aut defaults to True: gamma_t has at
    most 4374 vertices within the family budget.
    """
    _check_t(t)
    if full_aut is None:
        full_aut = True
    G = gamma_group(t)
    a, b = G.gen_a, G.gen_b
    x1 = G.mul(G.pow(a, -2), b)
    y1 = G.mul(G.pow(a, 3**t - 3), b)
    rep1 = check_generator_images(G, x1, y1)

    # a |-> a^-1 plus a^-1 b |-> b^-1 a forces b |-> a^{3^t} b^-1
    x2 = G.inv(a)
    y2 = G.mul(G.pow(a, 3**t), G.inv(b))
    rep2 = check_generator_images(G, x2, y2)

    # a |-> b^-1 a plus a^-1 b |-> a^-1 forces b |-> b^-1
    x3 = G.mul(G.inv(b), a)
    y3 = G.inv(b)
    rep3 = check_generator_images(G, x3, y3)

    bg = gamma_t(t)
    alpha = make_automorphism(G, x1, y1)
    sig = sigma_map(bg, alpha, a)
    report = {
        "family": "gamma",
        "t": t,
        "group": [3, t + 1, t, t],
        "vertices": bg.graph.n,
        "rotation_images": _pair_dict(G, x1, y1, rep1),
        "inversion_images_rejected": _pair_dict(G, x2, y2, rep2),
        "swap_images_rejected": _pair_dict(G, x3, y3, rep3),
        "spoke_rotation": _neighbor_cycle(bg, sig, bg.index(G.identity, 0)),
        "part_swap_excluded": (not rep2.ok) and (not rep3.ok),
    }
    checks = [
        rep1.ok,
        not rep2.ok,
        not rep3.ok,
        2 * 3**t in rep2.forced_a_exponents,
        2 * 3**t in rep3.forced_a_exponents,
        report["spoke_rotation"]["valid"],
        report["spoke_rotation"]["fixes_base_vertex"],
        report["spoke_rotation"]["three_cycles_neighbors"],
        report["part_swap_excluded"],
    ]
    if full_aut:
        sym = classify(bg.graph)
        report["classification"] = sym.classification
        report["symmetry"] = sym.to_dict()
        report["verified_by_full_aut"] = True
        checks.append(sym.classification == "semisymmetric")
    else:
        report["classification"] = "semisymmetric (algebraic certificate only)"
        report["verified_by_full_aut"] = False
    report["passed"] = all(checks)
    return report


def verify_symmetric_family_reference(t: int, full_aut: bool | None = None, graph_checks: bool | None = None) -> dict:
    """Certificates that sigma_t is arc-transitive (the former
    `families.verify_symmetric_family`, with its own report code).

    Arithmetic part: the images (a^{2*3^t+1} b^-3, a^{2*3^t+1} b^-2) and
    (a^-1, a^-1 b) both satisfy the presentation and generate.  Graph part:
    sigma_{alpha,b} 3-cycles the neighbours of the identity vertex,
    delta_{beta,1,1} swaps the two parts at the identity, and the arc orbit
    under R(H) plus those two maps covers every arc.  graph_checks defaults
    to True; full_aut defaults to t <= 2, since sigma_3 (13122 vertices) is
    above the engine's vertex budget.
    """
    _check_t(t)
    if graph_checks is None:
        graph_checks = True
    if full_aut is None:
        full_aut = t <= 2
    H = sigma_group(t)
    a, b = H.gen_a, H.gen_b
    x1 = H.mul(H.pow(a, 2 * 3**t + 1), H.pow(b, -3))
    y1 = H.mul(H.pow(a, 2 * 3**t + 1), H.pow(b, -2))
    rep1 = check_generator_images(H, x1, y1)
    x2 = H.inv(a)
    y2 = H.mul(H.inv(a), b)
    rep2 = check_generator_images(H, x2, y2)
    report = {
        "family": "sigma",
        "t": t,
        "group": [3, t + 1, t + 1, t],
        "vertices": 2 * H.order,
        "rotation_images": _pair_dict(H, x1, y1, rep1),
        "inversion_images": _pair_dict(H, x2, y2, rep2),
    }
    checks = [rep1.ok, rep2.ok]
    if graph_checks:
        bg = sigma_t(t)
        alpha = make_automorphism(H, x1, y1)
        beta = make_automorphism(H, x2, y2)
        sig = sigma_map(bg, alpha, b)
        delt = delta_map(bg, beta, H.identity, H.identity)
        base0 = bg.index(H.identity, 0)
        base1 = bg.index(H.identity, 1)
        swaps = delt.valid and int(delt.permutation[base0]) == base1 and int(delt.permutation[base1]) == base0
        report["spoke_rotation"] = _neighbor_cycle(bg, sig, base0)
        report["part_swap"] = {
            "valid": delt.valid,
            "failed_condition": delt.failed_condition,
            "swaps_identity_vertices": swaps,
        }
        gens = [
            right_translation(bg, a),
            right_translation(bg, b),
            sig.permutation,
            delt.permutation,
        ]
        keys, labels, _ = arc_orbits(bg.graph, [g for g in gens if g is not None])
        arc = keys.searchsorted(base0 * bg.graph.n + base1)
        report["arc_orbit_size"] = int((labels == labels[arc]).sum())
        report["arc_count"] = 2 * bg.graph.edge_count
        checks += [
            report["spoke_rotation"]["valid"],
            report["spoke_rotation"]["fixes_base_vertex"],
            report["spoke_rotation"]["three_cycles_neighbors"],
            delt.valid,
            swaps,
            report["arc_orbit_size"] == report["arc_count"],
        ]
        if full_aut:
            sym = classify(bg.graph)
            report["classification"] = sym.classification
            report["symmetry"] = sym.to_dict()
            report["verified_by_full_aut"] = True
            checks.append(sym.classification == "arc-transitive")
        else:
            report["classification"] = "arc-transitive (algebraic certificate only)"
            report["verified_by_full_aut"] = False
    else:
        report["classification"] = "arc-transitive (algebraic certificate only)"
        report["verified_by_full_aut"] = False
    report["passed"] = all(checks)
    return report
