"""Bi-Cayley graphs over two-generator group handles.

A graph BiCay(H, R, L, S) has vertex set H_0 | H_1 and three edge classes:
right edges {h_0, g_0} with g h^-1 in R, left edges {h_1, g_1} with
g h^-1 in L, and spokes {h_0, g_1} with g h^-1 in S.  Vertices are indexed
h_0 -> rank(h) and h_1 -> |H| + rank(h) with rank the lexicographic position
of the normal form (j, i), so identical inputs always produce identical
adjacency data.

One image rule: for alpha in Aut(H), x0, x1 in H and a swap flag, the map
phi: h_0 -> (x0 h^alpha)_swap, h_1 -> (x1 h^alpha)_(1-swap) sends R, L and S
to x0 R^alpha x0^-1, x1 L^alpha x1^-1 and x1 S^alpha x0^-1; a swap puts the
first two in the other part and inverts the third.  phi is an automorphism
exactly when each image is the connection set of the part it lands in.
sigma_map is phi(alpha, 1, g), delta_map phi(alpha, x, y, swap), and
apply_group_automorphism, swap_parts and normalize_S build the image under
phi(alpha, 1, 1), phi(1, 1, 1, swap) and phi(1, s, 1), s the first spoke.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .errors import InvalidMapError, InvariantViolation, NotAutomorphism, SetConditionError
from .graphs import Graph
from .metacyclic import Element, GroupMap, PairGroup, make_automorphism
from .permgroup import PermGroup, as_perm

if TYPE_CHECKING:
    from .permgroup import Perm


def _norm_set(group: PairGroup, items: Iterable[Element]) -> tuple[Element, ...]:
    return tuple(sorted({(j % group.mod_j, i % group.mod_i) for j, i in items}))


class BiCayleyGraph:
    """BiCay(H, R, L, S) with its vertex indexing and connection sets."""

    def __init__(
        self,
        group: PairGroup,
        R: Iterable[Element] = (),
        L: Iterable[Element] = (),
        S: Iterable[Element] = (),
    ):
        self.group = group
        self.R = _norm_set(group, R)
        self.L = _norm_set(group, L)
        self.S = _norm_set(group, S)
        ident = group.identity
        for name, conn in (("R", self.R), ("L", self.L)):
            if ident in conn:
                raise SetConditionError(f"identity element in {name}")
            if set(conn) != {group.inv(x) for x in conn}:
                raise SetConditionError(f"{name} is not inverse-closed")
        self.half = half = group.order
        group.check_enumerable()
        # the edges {h, c h} for every h and every c in a connection set
        import numpy as np

        h, left = np.arange(half), group.left_mul_ranks
        blocks = [np.column_stack((left(r), h)) for r in self.R]
        blocks += [np.column_stack((half + left(l), half + h)) for l in self.L]
        blocks += [np.column_stack((h, half + left(s))) for s in self.S]
        self.graph = Graph(2 * half, np.array(blocks, dtype=np.intp).reshape(-1, 2))

    def index(self, h: Element, part: int) -> int:
        """Vertex index of h_part."""
        if part not in (0, 1):
            raise InvariantViolation("part must be 0 or 1")
        return self.group.rank(h) + part * self.half

    def vertex(self, idx: int) -> tuple[Element, int]:
        part, r = divmod(idx, self.half)
        return self.group.unrank(r), part

    def __repr__(self) -> str:
        return (
            f"BiCayleyGraph(|H|={self.half}, |R|={len(self.R)}, "
            f"|L|={len(self.L)}, |S|={len(self.S)})"
        )


def build(group: PairGroup, R: Iterable[Element], L: Iterable[Element], S: Iterable[Element]) -> BiCayleyGraph:
    return BiCayleyGraph(group, R, L, S)


def _check_automorphism(bg: BiCayleyGraph, images: Perm) -> Perm:
    perm = as_perm(images)
    if not bg.graph.preserves_edges(perm):
        raise NotAutomorphism("constructed map does not preserve adjacency")
    return perm


def right_translation(bg: BiCayleyGraph, g: Element) -> Perm:
    """The permutation h_i -> (hg)_i; always a graph automorphism."""
    import numpy as np

    target = bg.group.right_mul_ranks(g)
    return _check_automorphism(bg, np.concatenate((target, bg.half + target)))


def right_group(bg: BiCayleyGraph) -> PermGroup:
    """R(H), generated by the right translations of the two group generators.
    R(H) is semiregular, so its stabilizer of 0 is trivial and the
    generators are strong relative to the base [0]."""
    gens = [right_translation(bg, bg.group.gen_a), right_translation(bg, bg.group.gen_b)]
    return PermGroup(bg.graph.n, gens, [0])


@dataclass(frozen=True)
class MapResult:
    """Outcome of a sigma/delta construction: a permutation or the failed condition."""

    permutation: Perm | None
    failed_condition: str | None = None

    @property
    def valid(self) -> bool:
        return self.permutation is not None


def _image(bg: BiCayleyGraph, row, x0: Element, x1: Element, swap: bool = False) -> tuple[set, set, set]:
    """The connection sets (R', L', S') of phi(bg); alpha by its rank row, None for the identity."""
    G = bg.group

    def image(conn, u, v):  # u conn^alpha v^-1
        return {G.mul(G.mul(u, z if row is None else G.unrank(int(row[G.rank(z)]))), G.inv(v)) for z in conn}

    R, L, S = image(bg.R, x0, x0), image(bg.L, x1, x1), image(bg.S, x1, x0)
    return (L, R, {G.inv(s) for s in S}) if swap else (R, L, S)


def _map(bg: BiCayleyGraph, f: GroupMap, x0: Element, x1: Element, failures, swap: bool = False) -> MapResult:
    """The rule's phi as a MapResult, failing at the first image of R, L, S not its part's set."""
    import numpy as np

    G = bg.group
    row = G.map_ranks(f)
    images = _image(bg, row, x0, x1, swap)
    for k, failure in zip((1, 0, 2) if swap else (0, 1, 2), failures):
        if images[k] != set((bg.R, bg.L, bg.S)[k]):
            return MapResult(None, failure)
    offsets = (bg.half, 0) if swap else (0, bg.half)
    parts = [offset + G.left_mul_ranks(x)[row] for offset, x in zip(offsets, (x0, x1))]
    return MapResult(_check_automorphism(bg, np.concatenate(parts)))


def sigma_map(bg: BiCayleyGraph, f: GroupMap, g: Element) -> MapResult:
    """sigma_{alpha,g}: h_0 -> (h^alpha)_0, h_1 -> (g h^alpha)_1; valid
    exactly when R^alpha = R, L^alpha = g^-1 L g and S^alpha = g^-1 S."""
    return _map(bg, f, bg.group.identity, g, ("R^alpha != R", "L^alpha != g^-1 L g", "S^alpha != g^-1 S"))


def delta_map(bg: BiCayleyGraph, f: GroupMap, x: Element, y: Element) -> MapResult:
    """delta_{alpha,x,y}: h_0 -> (x h^alpha)_1, h_1 -> (y h^alpha)_0 swaps the parts;
    valid exactly when R^alpha = x^-1 L x, L^alpha = y^-1 R y and S^alpha = y^-1 S^-1 x."""
    failures = ("R^alpha != x^-1 L x", "L^alpha != y^-1 R y", "S^alpha != y^-1 S^-1 x")
    return _map(bg, f, x, y, failures, swap=True)


def is_connected(bg: BiCayleyGraph) -> bool:
    """Whether the graph is connected; when 1 in S, whether <R u L u S> = H."""
    return bg.graph.is_connected()


def swap_parts(bg: BiCayleyGraph) -> BiCayleyGraph:
    """BiCay(H, L, R, S^-1), isomorphic to the input via h_0 <-> h_1."""
    G = bg.group
    return BiCayleyGraph(G, *_image(bg, None, G.identity, G.identity, swap=True))


def apply_group_automorphism(bg: BiCayleyGraph, f: GroupMap) -> BiCayleyGraph:
    """BiCay(H, R^alpha, L^alpha, S^alpha), isomorphic via h_i -> (h^alpha)_i."""
    G = bg.group
    return BiCayleyGraph(G, *_image(bg, G.map_ranks(f), G.identity, G.identity))


def normalize_S(bg: BiCayleyGraph) -> BiCayleyGraph:
    """BiCay(H, s R s^-1, L, S s^-1) with s the first spoke, so 1 is a spoke;
    isomorphic via h_0 -> (s h)_0, h_1 -> h_1.  A no-op if 1 is in S already."""
    G = bg.group
    if not bg.S:
        raise InvariantViolation("cannot normalize an empty spoke set")
    if G.identity in bg.S:
        return bg
    return BiCayleyGraph(G, *_image(bg, None, bg.S[0], G.identity))


def spoke_stabilizer_maps(bg: BiCayleyGraph) -> list[tuple[GroupMap, Element, Perm]]:
    """All sigma maps fixing the identity vertex of a one-matching graph
    (S = {1, x, y} generating, R = L = {}).

    A valid sigma map sends the spoke neighbour 1_1 to g_1 with g in S and
    permutes the three spokes, so it is the homomorphism x -> g^-1 s,
    y -> g^-1 s' of one of the six spoke arrangements (g, s, s').  Each
    arrangement's rank row phi is grown along a breadth-first tree of right
    multiplications by x and y and kept only if it respects both steps at
    every h, which makes it a homomorphism; its images of a and b are then
    validated, making the returned family exhaustive over sigma maps.  These
    are exactly the part-preserving elements of the normalizer of R(H) fixing
    the identity vertex, so for a normal bi-Cayley graph
    |Aut| = |H| * len(result) * (2 if a part-swapping map exists else 1).
    """
    import numpy as np

    G = bg.group
    ident = G.identity
    if bg.R or bg.L or len(bg.S) != 3 or ident not in bg.S:
        raise InvariantViolation("spoke arrangements need R = L = {} and S = {1, x, y}")
    x, y = [s for s in bg.S if s != ident]
    arrangements = (
        (ident, x, y), (ident, y, x),
        (x, y, ident), (x, ident, y),
        (y, ident, x), (y, x, ident),
    )
    steps = [G.right_mul_ranks(x), G.right_mul_ranks(y)]
    # moves[s][k]: right multiplication by arrangement k's image of step s
    moves = [np.array([G.right_mul_ranks(G.mul(G.inv(pi[0]), pi[s])) for pi in arrangements]) for s in (1, 2)]
    rows = np.arange(len(arrangements))[:, None]
    phi = np.zeros((len(arrangements), G.order), dtype=np.intp)
    seen = np.zeros(G.order, dtype=bool)
    seen[0] = True  # the identity, rank 0, is fixed
    frontier = np.zeros(1, dtype=np.intp)
    while len(frontier):
        fresh = np.zeros_like(seen)
        for step, move in zip(steps, moves):
            child = step[frontier]
            new = ~seen[child]
            phi[:, child[new]] = move[rows, phi[:, frontier[new]]]
            seen[child] = fresh[child[new]] = True
        frontier = np.flatnonzero(fresh)
    if not seen.all():
        raise InvalidMapError("the spokes x, y do not generate the group")
    ra, rb = G.rank(G.gen_a), G.rank(G.gen_b)
    out = []
    for k, (g, _, _) in enumerate(arrangements):
        row = phi[k]
        # row[h s] = row[h] s^phi for both steps s and every h: a homomorphism
        if not all(np.array_equal(row[step], move[k][row]) for step, move in zip(steps, moves)):
            continue
        try:
            alpha = make_automorphism(G, G.unrank(int(row[ra])), G.unrank(int(row[rb])))
        except InvalidMapError:
            continue
        res = sigma_map(bg, alpha, g)
        if res.valid:
            out.append((alpha, g, res.permutation))
    return out


@dataclass(frozen=True)
class QuotientReport:
    orbit_count: int
    orbit_sizes: tuple[int, ...]
    semiregular: bool
    valency_profile: tuple[int, ...]
    is_cubic: bool


def quotient_graph(graph: Graph | BiCayleyGraph, N: PermGroup) -> tuple[Graph, QuotientReport]:
    """Quotient by the orbits of N; N's generators must preserve adjacency."""
    if isinstance(graph, BiCayleyGraph):
        graph = graph.graph
    if N.degree != graph.n:
        raise InvariantViolation("group degree does not match the vertex count")
    for gen in N.generators:
        if not graph.preserves_edges(gen):
            raise NotAutomorphism("quotient group generator is not a graph automorphism")
    import numpy as np

    labels = N.orbit_labels()
    # labels are least points: orbit k is the one of the k-th point labelling itself
    owner = (np.cumsum(labels == np.arange(graph.n)) - 1)[labels]
    sizes = np.bincount(owner)
    ends = owner[graph.edges]
    q = Graph(len(sizes), ends[ends[:, 0] != ends[:, 1]])
    degs = tuple(sorted(q.degrees()))
    report = QuotientReport(
        orbit_count=len(sizes),
        orbit_sizes=tuple(sorted(sizes.tolist())),
        semiregular=N.is_semiregular(),
        valency_profile=degs,
        is_cubic=bool(degs) and degs[0] == 3 and degs[-1] == 3,
    )
    return q, report
