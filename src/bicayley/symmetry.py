"""Graph automorphism groups, canonical forms and transitivity classification.

The engine is a McKay-style individualization-refinement search:

  * refinement iterates the signature (own colour, sorted multiset of
    neighbour colours) to a fixpoint, relabelling colour classes by sorted
    signature so colour ids are isomorphism-invariant;
  * the target cell is the smallest non-singleton cell (ties: lowest colour
    id), an invariant choice;
  * every tree node carries an invariant (cell count plus a CRC of the
    cell-size vector and the sorted multiset of arc colour pairs), so whole
    subtrees compare lexicographically;
  * a leaf is a discrete colouring; its certificate is (invariant trace,
    bytes of the relabelled edge set).

One traversal serves `aut_group` and `canonical_form`.  It walks the tree
with an explicit stack of open nodes, not by recursion, so the tree's depth
is not bounded by Python's recursion limit.  It keeps a child whose trace
prefix equals the first leaf's; the canonical mode also keeps one whose trace
prefix is at least the current best leaf's.  It skips a child that a known
automorphism fixing the individualized prefix maps onto an explored one.  Two
leaf rules harvest automorphisms and prune:

  * a leaf with the first leaf's certificate yields the automorphism gamma
    taking the first leaf onto it;
  * in the canonical mode a larger certificate becomes the best leaf, and a
    leaf with the best's certificate yields gamma from the best leaf.

Either way the search unwinds by truncating its stack to the last node that
the two leaves' paths share: individualized vertices keep their order through
refinement, so gamma maps one path onto the other and fixes that node's
prefix, and the rest of the subtree is the gamma-image of one already
explored.  The largest certificate and the generated group are therefore
exact.

The vertices individualized on the way to the first leaf form a base of the
automorphism group, and the harvested automorphisms are a strong generating
set relative to it: at each level of that path every child whose subtree
holds an equivalent leaf is kept by its trace, then either yields an
automorphism fixing the prefix or is pruned as the image of one that did.
Both reach `PermGroup.with_base`, so |Aut| is a product of basic orbit sizes.

A search may start with known automorphisms (the census passes R(H), the
right translations of a bi-Cayley graph).  They join the harvested ones
before the traversal, so orbit pruning uses them from the root, and they
are among the generators handed to `with_base`.  The argument above holds
unchanged: a child that a known automorphism fixing the prefix maps onto an
explored child lies in that child's orbit under the generators fixing the
prefix, so its subtree is the image of an explored one and its basic orbit
is counted.  The search visits its first child at every node whatever it
knows, so the first leaf, and with it the base, does not move.

`canonical_search` is the one entry point of the canonical mode: it runs one
search per connected component (n = 0 has none) and returns the canonical
labelling and the automorphism group together.  `canonical_form` encodes the
relabelled graph; `aut_group` runs the cheaper automorphism mode on a
connected graph and takes every other graph's group from `canonical_search`,
and the census takes both the class digest and the group it classifies with
from one call.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Sequence

import numpy as np

from .bicay import BiCayleyGraph, right_group
from .errors import BudgetError, NotAutomorphism, PreconditionError
from .graphs import Graph, graph6_encode
from .permgroup import PermGroup, is_normal, orbit_labels

ENGINE_VERTEX_BUDGET = 5000


class _Engine:
    def __init__(self, graph: Graph):
        self.graph = graph
        self.n = graph.n
        self.eu, self.ev = graph.edges.T
        self.au = np.concatenate([self.eu, self.ev])
        self.av = np.concatenate([self.ev, self.eu])
        degs = np.bincount(self.au, minlength=self.n)
        self.dmax = int(degs.max(initial=0))
        # row v: v's neighbours, padded with n; a tail-sorted arc goes to the
        # column of its index minus the index of the first arc from its tail
        order = np.argsort(self.au, kind="stable")
        tails = self.au[order]
        self.nbr = np.full((self.n, self.dmax), self.n, dtype=np.int64)
        self.nbr[tails, np.arange(len(tails)) - np.searchsorted(tails, tails)] = self.av[order]
        self.initial = self._canon_ids(degs)

    @staticmethod
    def _canon_ids(values: np.ndarray) -> np.ndarray:
        """Each value's rank among the distinct values (np.unique's inverse)."""
        order = values.argsort()
        ordered = values[order]
        starts = np.empty(len(values), dtype=np.int64)  # 1 where a new value starts
        starts[:1] = 0
        np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
        ranks = np.empty(len(values), dtype=np.int64)
        ranks[order] = starts.cumsum()
        return ranks

    def refine(self, colors: np.ndarray) -> np.ndarray:
        """Iterate neighbour-colour-multiset splitting to a fixpoint.

        A vertex's signature (colour, sorted neighbour colours) packs left to
        right into one int64 key, k.bit_length() bits per column; when the next
        column would not fit, the key is replaced by its rank first.  Ranks
        keep the lexicographic order, so the new colour ids are the
        signatures' lexicographic ranks at every degree.
        """
        colors = self._canon_ids(colors)
        k = int(colors.max()) + 1 if self.n else 0
        while True:
            ext = np.concatenate([colors, [k]])  # sentinel colour for padding
            sig = ext[self.nbr]
            sig.sort(axis=1)
            bits = k.bit_length()
            key, used = colors, bits
            for col in range(self.dmax):
                if used + bits > 63:
                    key = self._canon_ids(key)
                    used = int(key.max()).bit_length()
                key = (key << bits) | sig[:, col]
                used += bits
            inv = self._canon_ids(key)
            new_k = int(inv.max()) + 1
            if new_k == k:
                return inv
            colors = inv
            k = new_k

    def invariant(self, colors: np.ndarray, k: int) -> int:
        sizes = np.bincount(colors, minlength=k)
        pairs = colors[self.au] * k + colors[self.av]
        pairs.sort()
        crc = zlib.crc32(sizes.tobytes() + pairs.tobytes())
        return (k << 32) | crc

    def leaf_bytes(self, colors: np.ndarray) -> bytes:
        a = colors[self.eu]
        b = colors[self.ev]
        key = np.minimum(a, b) * self.n + np.maximum(a, b)
        key.sort()
        return key.tobytes()

    def target_cell(self, colors: np.ndarray, k: int) -> np.ndarray:
        sizes = np.bincount(colors, minlength=k)
        big = np.flatnonzero(sizes > 1)
        best = big[np.argmin(sizes[big])]  # argmin takes the lowest id on ties
        return np.flatnonzero(colors == best)


class _Search:
    """One traversal for both jobs: `run_auto` collects automorphisms anchored
    to the first leaf; `run_canon` also keeps the largest certificate."""

    def __init__(self, engine: _Engine, known: Sequence[np.ndarray] = ()):
        self.e = engine
        # known automorphisms prune from the root and join the generators
        self.autos: list[np.ndarray] = list(known)
        self._auto_keys: set[bytes] = {g.tobytes() for g in self.autos}
        self.canon = False
        # a leaf: (trace, leaf bytes, leaf colouring, individualized path)
        self.first: tuple[tuple[int, ...], bytes, np.ndarray, list[int]] | None = None
        self.best: tuple[tuple[int, ...], bytes, np.ndarray, list[int]] | None = None
        self.base: list[int] = []  # vertices individualized on the way to the first leaf

    def _children(self, colors: np.ndarray, k: int, trace: tuple[int, ...], prefix: list[int]):
        """(refined child colouring, its trace, its prefix) for each kept v of
        the target cell.  v is skipped when a known automorphism fixing the
        individualized prefix maps it onto an explored vertex (the orbit labels
        are refreshed whenever explored subtrees have found automorphisms), and
        dropped after refinement unless its trace prefix equals the first
        leaf's or, in the canonical mode, is at least the best leaf's."""
        pref = np.asarray(prefix, dtype=np.intp)
        done: list[int] = []
        labels: np.ndarray | None = None
        labels_version = -1
        done_labels: set[int] = set()
        for v in self.e.target_cell(colors, k).tolist():
            if self.autos and done:
                if labels is None or labels_version != len(self.autos):
                    fixing = [g for g in self.autos if (g[pref] == pref).all()]
                    labels = orbit_labels(self.e.n, fixing)
                    labels_version = len(self.autos)
                    done_labels = {int(labels[d]) for d in done}
                if int(labels[v]) in done_labels:
                    continue
            child = colors * 2
            child[v] -= 1
            child = self.e.refine(child)
            done.append(v)
            if labels is not None:
                done_labels.add(int(labels[v]))
            t = trace + (self.e.invariant(child, int(child.max()) + 1),)
            # a child on the first leaf's trace is always kept, so the
            # automorphisms stay strong relative to the first path's base
            if self.first is None or t == self.first[0][: len(t)] or (
                self.canon and t >= self.best[0][: len(t)]
            ):
                yield child, t, prefix + [v]

    def run_auto(self) -> list[np.ndarray]:
        self._run(canon=False)
        return self.autos

    def run_canon(self) -> tuple[np.ndarray, bytes]:
        self._run(canon=True)
        assert self.best is not None
        _, bts, pos, _ = self.best
        return pos, bts

    def _run(self, canon: bool) -> None:
        self.canon = canon
        stack = []  # stack[d]: the kept-children iterator of the node at depth d
        node = (self.e.refine(self.e.initial), (), [])
        while node is not None:
            colors, trace, prefix = node
            k = int(colors.max()) + 1 if self.e.n else 0
            if k < self.e.n:
                stack.append(self._children(colors, k, trace, prefix))
            else:
                common = self._leaf(colors, trace, prefix)
                if common is not None:
                    # the automorphism fixes that node's prefix: it scans on,
                    # its refreshed orbit labels absorb the pruning
                    del stack[common + 1 :]
            node = None
            while stack and (node := next(stack[-1], None)) is None:
                stack.pop()

    def _leaf(self, pos: np.ndarray, trace: tuple[int, ...], path: list[int]) -> int | None:
        """Compare a leaf with the first and best leaves; the depth to unwind
        to when it is equivalent to one of them, else None."""
        bts = self.e.leaf_bytes(pos)
        if self.first is None:
            self.first = self.best = (trace, bts, pos.copy(), path)
            self.base = list(path)
            return None
        cert = (trace, bts)
        if cert == self.first[:2]:
            return self._equivalent(self.first, pos, path)
        if self.canon:
            if cert > self.best[:2]:
                self.best = (trace, bts, pos.copy(), path)
            elif cert == self.best[:2]:
                return self._equivalent(self.best, pos, path)

    def _equivalent(self, ref: tuple, pos: np.ndarray, path: list[int]) -> int:
        """Record the automorphism gamma taking leaf ref onto this leaf, and
        return the depth of the last node the two paths share.  Individualized
        vertices keep their order through refinement, so gamma maps ref's path
        onto this one and fixes that node's prefix: the rest of this subtree is
        the gamma-image of one already explored."""
        _, _, ref_pos, ref_path = ref
        ref_inv = np.empty(self.e.n, dtype=np.intp)
        ref_inv[ref_pos] = np.arange(self.e.n, dtype=np.intp)
        gamma = ref_inv[pos]
        key = gamma.tobytes()
        if key not in self._auto_keys:
            self._auto_keys.add(key)
            self.autos.append(gamma)
        common = 0
        for a, b in zip(ref_path, path):
            if a != b:
                break
            common += 1
        return common


def _check_budget(graph: Graph) -> None:
    if graph.n > ENGINE_VERTEX_BUDGET:
        raise BudgetError(
            f"{graph.n} vertices exceed the engine budget {ENGINE_VERTEX_BUDGET}"
        )


def _known_automorphisms(graph: Graph, automorphisms: Iterable) -> list[np.ndarray]:
    """The given maps as permutation arrays, each checked to be an
    automorphism of the graph."""
    known = []
    for g in automorphisms:
        perm = np.ascontiguousarray(g, dtype=np.intp)
        if not (
            perm.shape == (graph.n,)
            and np.array_equal(np.sort(perm), np.arange(graph.n))
            and graph.preserves_edges(perm)
        ):
            raise NotAutomorphism("a known automorphism is not an automorphism of the graph")
        known.append(perm)
    return known


def canonical_search(graph: Graph, automorphisms: Iterable = ()) -> tuple[list[int], PermGroup]:
    """A canonical labelling and the full automorphism group, from one
    canonical search per connected component.

    automorphisms, for a connected graph only, are known automorphisms of
    it (the census passes R(H)): the search starts with them and prunes by
    them from the root.  The labelling may differ from an unseeded search's
    but the relabelled graph does not; the group is the same.

    Components are sorted by (size, canonical form of the component) and laid
    out in that order: the labelling sends the vertex at canonical position p
    of the i-th block to the block's offset plus p, so isomorphic graphs get
    equal relabelled graphs.  Within each isomorphism class of components,
    the first member's automorphisms are copied onto every member along the
    canonical labellings, and a swap joins every consecutive pair of members.
    Those generators are strong relative to the first member's base copied
    onto every member and interleaved (first point of every copy, then the
    second, ...): the group is the product of wreath products over the
    classes.
    """
    _check_budget(graph)
    known = _known_automorphisms(graph, automorphisms)
    comps = graph.components()
    if known and len(comps) != 1:
        raise PreconditionError("known automorphisms need a connected graph")
    blocks = []
    for comp in comps:
        sub = graph if len(comps) == 1 else graph.subgraph(comp)
        search = _Search(_Engine(sub), known)
        labelling, _ = search.run_canon()
        # one component needs no form to sort by
        form = graph6_encode(sub.relabel(labelling)) if len(comps) > 1 else ""
        row = np.empty(len(comp), dtype=np.intp)  # row[p]: the vertex at canonical position p
        row[labelling] = comp
        blocks.append(((len(comp), form), row, labelling, search))
    blocks.sort(key=lambda block: block[0])
    relabel = np.empty(graph.n, dtype=np.intp)
    ident = np.arange(graph.n, dtype=np.intp)
    gens: list[np.ndarray] = []
    base: list[int] = []
    offset = 0
    for _key, same in groupby(blocks, key=lambda block: block[0]):
        members = list(same)
        _, _, rep_label, search = members[0]
        images = []  # images[j][v]: member j's vertex at the canonical position of rep vertex v
        for _, row, _, _ in members:
            relabel[row] = np.arange(offset, offset + len(row))
            offset += len(row)
            images.append(row[rep_label])
        for g in search.autos:
            for image in images:
                lifted = ident.copy()
                lifted[image] = image[g]
                gens.append(lifted)
        for a, b in zip(images, images[1:]):
            swap = ident.copy()
            swap[a] = b
            swap[b] = a
            gens.append(swap)
        # a trivial group still needs one base point per copy
        base.extend(int(image[b]) for b in search.base or [0] for image in images)
    return relabel.tolist(), PermGroup.with_base(graph.n, gens, base)


def aut_group(graph: Graph) -> PermGroup:
    """Full automorphism group, with a base and strong generating set.

    Deterministic for fixed input.  A connected graph runs the automorphism
    search; any other graph takes the group from `canonical_search`.
    """
    _check_budget(graph)
    if graph.n and graph.is_connected():
        search = _Search(_Engine(graph))
        return PermGroup.with_base(graph.n, search.run_auto(), search.base)
    return canonical_search(graph)[1]


def canonical_form(graph: Graph) -> bytes:
    """Byte string equal for two graphs exactly when they are isomorphic:
    the graph6 form of the graph relabelled by `canonical_search`."""
    labelling, _ = canonical_search(graph)
    return graph6_encode(graph.relabel(labelling)).encode("ascii")


def canonical_digest(graph: Graph) -> str:
    return canonical_form(graph).decode("ascii")


# -- classification -------------------------------------------------------------


@dataclass(frozen=True)
class SymmetryReport:
    aut_order: int
    vertex_orbits: int
    edge_orbits: int
    arc_orbits: int
    classification: str
    stabilizer_order: int

    def to_dict(self) -> dict:
        return {
            "aut_order": self.aut_order,
            "vertex_orbits": self.vertex_orbits,
            "edge_orbits": self.edge_orbits,
            "arc_orbits": self.arc_orbits,
            "classification": self.classification,
            "stabilizer_order": self.stabilizer_order,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def arc_action(graph: Graph, generators) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """The generators acting on arc indices: (keys, permutations, reversal).

    Arc (u, v) has index i where keys[i] = u * n + v, keys sorted.  Each
    generator g becomes the arc permutation i -> index of (g[u], g[v]), found
    by searchsorted on the packed images; the reversal maps (u, v) to (v, u).
    """
    n = graph.n
    e = graph.edges
    keys = np.sort(np.concatenate([e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]]))
    u, v = keys // n, keys % n

    def index(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        packed = a * n + b
        idx = np.minimum(np.searchsorted(keys, packed), len(keys) - 1)
        if not np.array_equal(keys[idx], packed):
            raise NotAutomorphism("a generator maps an arc to a non-arc")
        return idx

    return keys, [index(g[u], g[v]) for g in generators], index(v, u)


def classify(graph: Graph, aut: PermGroup | None = None) -> SymmetryReport:
    """Orbit counts on vertices, edges and arcs, and the transitivity class.

    Edge and arc orbits are orbits of arc-index permutations (`arc_action`);
    an edge orbit is an arc orbit joined with its reversal.
    """
    if aut is None:
        aut = aut_group(graph)
    order = aut.order()
    vorbits = len(aut.orbits())
    has_edges = graph.edge_count > 0
    eorbits = aorbits = 0
    if has_edges:
        keys, perms, reversal = arc_action(graph, aut.generators)
        roots = np.arange(len(keys))  # an orbit is labelled by its least arc
        aorbits = int((orbit_labels(len(keys), perms) == roots).sum())
        eorbits = int((orbit_labels(len(keys), perms + [reversal]) == roots).sum())
    regular = graph.is_regular()
    if has_edges and aorbits == 1:
        cls = "arc-transitive"
    elif has_edges and regular and eorbits == 1 and vorbits > 1:
        cls = "semisymmetric"
    elif vorbits == 1 and (not has_edges or eorbits > 1):
        cls = "vertex-not-edge-transitive"
    else:
        cls = "none"
    stab = order // len(aut.orbit(0)) if graph.n else 0
    return SymmetryReport(order, vorbits, eorbits, aorbits, cls, stab)


def _is_two_power_times_three(s: int) -> bool:
    if s % 3 != 0:
        return False
    s //= 3
    return s >= 1 and s & (s - 1) == 0


def check_stabilizer_law(graph: Graph, report: SymmetryReport | None = None) -> bool:
    """Vertex stabilizers of a cubic edge-transitive graph all have order 2^r * 3."""
    if not (graph.n and graph.is_regular() and graph.valency() == 3):
        raise PreconditionError("stabilizer law applies to cubic graphs only")
    aut = aut_group(graph)
    if report is None:
        report = classify(graph, aut)
    if report.edge_orbits != 1:
        raise PreconditionError("stabilizer law applies to edge-transitive graphs only")
    order = report.aut_order
    for orb in aut.orbits():
        if order % len(orb) != 0 or not _is_two_power_times_three(order // len(orb)):
            return False
    return True


def check_normal_bicayley(bg: BiCayleyGraph) -> bool:
    """Whether R(H) is normal in the full automorphism group of the graph."""
    return is_normal(aut_group(bg.graph), right_group(bg))
