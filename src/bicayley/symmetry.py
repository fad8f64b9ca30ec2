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
automorphism fixing the individualized prefix maps onto an explored one, and
a child w that is a twin of the node's first child v1 (N(v1) - {w} =
N(w) - {v1}, read off the neighbour table): the transposition (v1 w) is then
an automorphism, it fixes the prefix because v1 and w lie in a non-singleton
cell, and it joins the harvested ones.  Two leaf rules harvest automorphisms
and prune:

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
The group is built with both, so |Aut| is a product of basic orbit sizes.
A twin w skipped at a node of that path is in the basic orbit too: (v1 w)
is among the generators, fixes the prefix and maps the base point v1 onto
w.  Stars, complete multipartite graphs and combs, whose basic orbits are
twin classes, thus take one refinement per level instead of one per child.

No pruning rule moves the canonical form.  The first child of every node
is explored before its siblings, so the first leaf does not move.  Every
skipped subtree (an orbit image, a twin's, the rest of a subtree after an
equivalent leaf) is the image of an explored subtree under an automorphism
fixing the node's prefix, and refinement commutes with automorphisms, so it
holds only certificates that the explored one holds; a subtree dropped by
its trace holds only certificates below the first or the best leaf's.  So
the first leaf with the maximum certificate is never in a pruned subtree,
and the canonical mode ends with the maximum certificate over the whole tree.

A search may start with known automorphisms (the census passes R(H), the
right translations of a bi-Cayley graph).  They join the harvested ones
before the traversal, so orbit pruning uses them from the root, and they
are among the generators the group is built with.  The argument above holds
unchanged: a child that a known automorphism fixing the prefix maps onto an
explored child lies in that child's orbit under the generators fixing the
prefix, so its subtree is the image of an explored one and its basic orbit
is counted.  The search visits its first child at every node whatever it
knows, so the first leaf, and with it the base, does not move.

`canonical_search` is the one entry point of the canonical mode: it runs one
search per connected component (n = 0 has none) and returns the canonical
labelling and the automorphism group together.  A component with the size
and the root invariant of earlier classes of components is first matched
against them:
one search keeps only children whose trace is a prefix of one of those
classes' best-leaf traces and stops at the first leaf with one of their
certificates (`run_match`).  The same pruning rules hold there, since a
skipped subtree holds only certificates of an explored one, so it finds such
a leaf exactly when the component is isomorphic to one of the classes, and
that leaf relabels the component onto the class's canonical form.  Only a
component that matches no class takes a full canonical search.  `canonical_form` encodes the
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
from typing import Collection, Iterable, Sequence

import numpy as np

from .bicay import BiCayleyGraph, right_translation
from .errors import BudgetError, DegreeMismatch, NotAutomorphism, PreconditionError
from .graphs import Graph, graph6_encode
from .permgroup import PermGroup, invert, orbit_labels

ENGINE_VERTEX_BUDGET = 5000


class _Engine:
    def __init__(self, graph: Graph):
        self.graph = graph
        self.n = n = graph.n
        self.eu, self.ev = graph.edges.T
        # the arcs sorted by (tail, head)
        arcs = np.sort(np.concatenate([self.eu * n + self.ev, self.ev * n + self.eu]))
        self.au, self.av = np.divmod(arcs, n)
        degs = np.bincount(self.au, minlength=n)
        self.dmax = int(degs.max(initial=0))
        # row v: v's neighbours in ascending order, padded with n
        starts = np.concatenate([[0], degs.cumsum()])
        self.nbr = np.full((n, self.dmax), n, dtype=np.int64)
        self.nbr[self.au, np.arange(len(self.au)) - starts[self.au]] = self.av
        # columns of the table, read by the cubic sorting network in refine
        self.nbr_t = self.nbr.T.copy() if self.dmax == 3 else None
        self.initial, _ = self._canon_ids(degs)
        self._root: np.ndarray | None = None

    def root(self) -> np.ndarray:
        """The refined degree colouring, the root of every search on this
        engine; refined once."""
        if self._root is None:
            self._root = self.refine(self.initial)
        return self._root

    @staticmethod
    def _canon_ids(values: np.ndarray) -> tuple[np.ndarray, int]:
        """Each value's rank among the distinct values (np.unique's inverse),
        and the number of distinct values."""
        order = values.argsort()
        ordered = values[order]
        starts = np.empty(len(values), dtype=np.int64)  # 1 where a new value starts
        starts[:1] = 0
        np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
        ids = starts.cumsum()
        ranks = np.empty(len(values), dtype=np.int64)
        ranks[order] = ids
        return ranks, int(ids[-1]) + 1 if len(values) else 0

    def refine(self, colors: np.ndarray) -> np.ndarray:
        """Iterate neighbour-colour-multiset splitting to a fixpoint.

        A vertex's signature (colour, sorted neighbour colours) packs left to
        right into one int64 key, k.bit_length() bits per column; when the next
        column would not fit, the key is replaced by its rank first.  Ranks
        keep the lexicographic order, so the new colour ids are the
        signatures' lexicographic ranks at every degree.  Colours that are
        already ranks 0..k-1, as a child's are, are not ranked again; rows of
        at most three neighbours are sorted by a 3-comparator network.

        Refinement is exactly equivariant under relabelling: no vertex index
        enters a colour id, so for the graph relabelled by pi (v -> pi[v])
        and colours c' with c'[pi] == c, the result r' has r'[pi] == r.  A
        refined partition, with `invariant` and its cell sizes, is therefore
        an isomorphism invariant of the graph with its individualized
        vertices.
        """
        n = self.n
        if colors.min(initial=0) >= 0 and (sizes := np.bincount(colors)).all():
            k = len(sizes)
        else:
            colors, k = self._canon_ids(colors)
        ext = np.empty(n + 1, dtype=np.int64)
        while True:
            ext[:n] = colors
            ext[n] = k  # sentinel colour for padding
            if self.nbr_t is not None:
                a, b, c = ext[self.nbr_t]
                lo, hi = np.minimum(a, b), np.maximum(a, b)
                mid = np.minimum(hi, c)
                cols = (np.minimum(lo, mid), np.maximum(lo, mid), np.maximum(hi, c))
            else:
                sig = ext[self.nbr]
                sig.sort(axis=1)
                cols = sig.T
            bits = k.bit_length()
            key, used = colors, bits
            for col in cols:
                if used + bits > 63:
                    key, distinct = self._canon_ids(key)
                    used = (distinct - 1).bit_length()
                key = (key << bits) | col
                used += bits
            inv, new_k = self._canon_ids(key)
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

    def twins(self, v: int, w: int) -> bool:
        """Whether N(v) - {w} = N(w) - {v}, that is whether w's row with v
        read as w equals v's row: then the transposition (v w) is an
        automorphism."""
        row = self.nbr[w]
        row = np.where(row == v, w, row)
        row.sort()
        return bool((row == self.nbr[v]).all())


class _Search:
    """One traversal for three jobs: `run_auto` collects automorphisms
    anchored to the first leaf; `run_canon` also keeps the largest
    certificate; `run_match` looks for a leaf with one of given certificates."""

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
        # run_match: the certificates sought, every prefix of their traces,
        # and (colouring, certificate) of the leaf found with one of them
        self.targets: Collection[tuple[tuple[int, ...], bytes]] | None = None
        self.prefixes: set[tuple[int, ...]] = set()
        self.found: tuple[np.ndarray, tuple[tuple[int, ...], bytes]] | None = None

    def _children(self, colors: np.ndarray, k: int, trace: tuple[int, ...], prefix: list[int]):
        """(refined child colouring, its trace, its prefix) for each kept v of
        the target cell.  After the first child v1, a vertex v is skipped when
        a known automorphism fixing the individualized prefix maps it onto an
        explored vertex (the orbit labels fold in the automorphisms found
        since their last refresh), or when it is a twin of v1, whose
        transposition joins the automorphisms.  A child is dropped after
        refinement unless its trace prefix equals the first leaf's or, in the
        canonical mode, is at least the best leaf's; run_match keeps a child
        whose trace is a prefix of a sought leaf's."""
        pref = np.asarray(prefix, dtype=np.intp)
        cell = self.e.target_cell(colors, k).tolist()
        v1, c = cell[0], int(colors[cell[0]])
        # the child's ranks: every colour from c up moves one up, v keeps c
        lifted = colors + (colors >= c)
        done: list[int] = []
        labels: np.ndarray | None = None
        folded = 0  # self.autos[:folded] are folded into labels
        done_labels: set[int] = set()
        for v in cell:
            if v != v1:
                if folded < len(self.autos):
                    fixing = [g for g in self.autos[folded:] if (g[pref] == pref).all()]
                    folded = len(self.autos)
                    if fixing or labels is None:
                        labels = orbit_labels(self.e.n, fixing, labels)
                        done_labels = {int(labels[d]) for d in done}
                if labels is not None and int(labels[v]) in done_labels:
                    continue
                if self.e.twins(v1, v):
                    swap = np.arange(self.e.n, dtype=np.intp)
                    swap[[v1, v]] = v, v1
                    self._record(swap)
                    continue
            child = lifted.copy()
            child[v] = c
            child = self.e.refine(child)
            done.append(v)
            if labels is not None:
                done_labels.add(int(labels[v]))
            t = trace + (self.e.invariant(child, int(child.max()) + 1),)
            if self.targets is not None:
                keep = t in self.prefixes
            else:
                # a child on the first leaf's trace is always kept, so the
                # automorphisms stay strong relative to the first path's base
                keep = self.first is None or t == self.first[0][: len(t)] or (
                    self.canon and t >= self.best[0][: len(t)]
                )
            if keep:
                yield child, t, prefix + [v]

    def run_auto(self) -> list[np.ndarray]:
        self._run(canon=False)
        return self.autos

    def run_canon(self) -> tuple[np.ndarray, bytes]:
        self._run(canon=True)
        assert self.best is not None
        _, bts, pos, _ = self.best
        return pos, bts

    def run_match(self, targets: Collection[tuple[tuple[int, ...], bytes]]):
        """(colouring, certificate) of a leaf whose certificate is among
        targets, the best leaves' (trace, bytes) of canonical searches on
        other graphs, or None.  There is one exactly when this graph is
        isomorphic to one of those; the colouring relabels it onto that
        one's canonical form."""
        self.targets = targets
        self.prefixes = {trace[:i] for trace, _ in targets for i in range(1, len(trace) + 1)}
        self._run(canon=False)
        return self.found

    def _run(self, canon: bool) -> None:
        self.canon = canon
        stack = []  # stack[d]: the kept-children iterator of the node at depth d
        node = (self.e.root(), (), [])
        while node is not None:
            colors, trace, prefix = node
            k = int(colors.max()) + 1 if self.e.n else 0
            if k < self.e.n:
                stack.append(self._children(colors, k, trace, prefix))
            else:
                common = self._leaf(colors, trace, prefix)
                if common is not None:
                    # the automorphism fixes that node's prefix: it scans on,
                    # its refreshed orbit labels absorb the pruning; -1 ends
                    # the search
                    del stack[common + 1 :]
            node = None
            while stack and (node := next(stack[-1], None)) is None:
                stack.pop()

    def _leaf(self, pos: np.ndarray, trace: tuple[int, ...], path: list[int]) -> int | None:
        """Compare a leaf with the sought, first and best leaves; the depth to
        unwind to when it is equivalent to one of them (-1 when it is the
        sought one), else None."""
        bts = self.e.leaf_bytes(pos)
        cert = (trace, bts)
        if self.targets is not None and cert in self.targets:
            self.found = pos, cert
            return -1
        if self.first is None:
            self.first = self.best = (trace, bts, pos.copy(), path)
            self.base = list(path)
            return None
        if cert == self.first[:2]:
            return self._equivalent(self.first, pos, path)
        if self.canon:
            if cert > self.best[:2]:
                self.best = (trace, bts, pos.copy(), path)
            elif cert == self.best[:2]:
                return self._equivalent(self.best, pos, path)

    def _record(self, gamma: np.ndarray) -> None:
        key = gamma.tobytes()
        if key not in self._auto_keys:
            self._auto_keys.add(key)
            self.autos.append(gamma)

    def _equivalent(self, ref: tuple, pos: np.ndarray, path: list[int]) -> int:
        """Record the automorphism gamma taking leaf ref onto this leaf, and
        return the depth of the last node the two paths share.  Individualized
        vertices keep their order through refinement, so gamma maps ref's path
        onto this one and fixes that node's prefix: the rest of this subtree is
        the gamma-image of one already explored."""
        _, _, ref_pos, ref_path = ref
        ref_inv = np.empty(self.e.n, dtype=np.intp)
        ref_inv[ref_pos] = np.arange(self.e.n, dtype=np.intp)
        self._record(ref_inv[pos])
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

    A component isomorphic to an earlier one takes its relabelling from a
    matching search against the best leaves of the earlier classes of its
    size and root invariant (see the module docstring), not from a canonical
    search of its own.

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
    # (size, root invariant) -> {best certificate: form} for each class met
    forms: dict[tuple[int, int], dict[tuple, str]] = {}
    for comp in comps:
        sub = graph if len(comps) == 1 else graph.subgraph(comp)
        engine = _Engine(sub)
        root = engine.root()
        same = forms.setdefault((len(comp), engine.invariant(root, int(root.max()) + 1)), {})
        search = None
        match = _Search(engine).run_match(same) if same else None
        if match is not None:
            labelling, cert = match
            form = same[cert]
        else:
            search = _Search(engine, known)
            labelling, _ = search.run_canon()
            # one component needs no form to sort by
            form = graph6_encode(sub.relabel(labelling)) if len(comps) > 1 else ""
            same[search.best[:2]] = form
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
        # the first member of a class in component order is the one searched
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
    return relabel.tolist(), PermGroup(graph.n, gens, base)


def aut_group(graph: Graph) -> PermGroup:
    """Full automorphism group, with a base and strong generating set.

    Deterministic for fixed input.  A connected graph runs the automorphism
    search; any other graph takes the group from `canonical_search`.
    """
    if graph.n and graph.is_connected():
        _check_budget(graph)
        search = _Search(_Engine(graph))
        return PermGroup(graph.n, search.run_auto(), search.base)
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


def arc_orbits(graph: Graph, generators) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arc orbits under the generators: (keys, labels, reversal).

    Arc (u, v) has index i where keys[i] = u * n + v, keys sorted: the rows
    of the sorted neighbour table laid end to end.  Each generator g acts as
    the arc permutation i -> index of (g[u], g[v]); sorting the packed images
    puts each image arc at its place in that table, and the sorted images
    equal keys exactly when g maps arcs onto arcs.  The sorting order is the
    inverse arc permutation, which has the same orbits, so it is folded into
    the `orbit_labels` labels as it is and dropped before the next one is
    built: memory stays O(arcs) whatever the number of generators, and
    labels[i] is the least arc index in i's orbit.  The reversal maps (u, v)
    to (v, u); it is an involution, so its sorting order is the reversal itself.
    """
    n = graph.n
    e = graph.edges
    keys = np.sort(np.concatenate([e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]]))
    u, v = np.divmod(keys, n)

    def inverse_index(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        packed = a * n
        packed += b
        order = packed.argsort()
        if not np.array_equal(packed[order], keys):
            raise NotAutomorphism("a generator maps an arc to a non-arc")
        return order

    labels = np.arange(len(keys))
    for g in generators:
        labels = orbit_labels(len(keys), [inverse_index(g[u], g[v])], labels)
    return keys, labels, inverse_index(v, u)


def classify(graph: Graph, aut: PermGroup | None = None) -> SymmetryReport:
    """Orbit counts on vertices, edges and arcs, and the transitivity class,
    under aut (by default `aut_group(graph)`).

    Vertex orbits and the stabilizer order come from the group's orbit
    labels, arc orbits from the arc-index permutations (`arc_orbits`).  The
    reversal commutes with every automorphism, so it pairs the arc orbits;
    an edge orbit is an orbit paired with itself or a pair of two, that is
    (arc orbits + self-paired arc orbits) / 2.
    """
    if aut is None:
        aut = aut_group(graph)
    elif aut.degree != graph.n:
        raise DegreeMismatch(f"degrees {aut.degree} and {graph.n} differ")
    order = aut.order()
    labels = aut.orbit_labels()
    vorbits = int(np.count_nonzero(labels == np.arange(graph.n)))
    has_edges = graph.edge_count > 0
    eorbits = aorbits = 0
    if has_edges:
        keys, arc_labels, reversal = arc_orbits(graph, aut.generators)
        roots = np.flatnonzero(arc_labels == np.arange(len(keys)))  # an orbit is labelled by its least arc
        aorbits = len(roots)
        eorbits = (aorbits + int(np.count_nonzero(arc_labels[reversal[roots]] == roots))) // 2
    regular = graph.is_regular()
    if has_edges and aorbits == 1:
        cls = "arc-transitive"
    elif has_edges and regular and eorbits == 1 and vorbits > 1:
        cls = "semisymmetric"
    elif vorbits == 1 and (not has_edges or eorbits > 1):
        cls = "vertex-not-edge-transitive"
    else:
        cls = "none"
    stab = order // int(np.count_nonzero(labels == labels[0])) if graph.n else 0
    return SymmetryReport(order, vorbits, eorbits, aorbits, cls, stab)


def _is_two_power_times_three(s: int) -> bool:
    if s % 3 != 0:
        return False
    s //= 3
    return s >= 1 and s & (s - 1) == 0


def check_stabilizer_law(graph: Graph, report: SymmetryReport | None = None) -> bool:
    """Vertex stabilizers of a cubic edge-transitive graph all have order 2^r * 3.

    With one edge orbit there are at most two vertex orbits, and if two,
    every edge joins them, so they have equal size (3|O_1| = |E| = 3|O_2|):
    every stabilizer has the report's `stabilizer_order`.  The report is
    computed (`classify`, one search) when not given."""
    if not (graph.n and graph.is_regular() and graph.valency() == 3):
        raise PreconditionError("stabilizer law applies to cubic graphs only")
    if report is None:
        report = classify(graph)
    if report.edge_orbits != 1:
        raise PreconditionError("stabilizer law applies to edge-transitive graphs only")
    return _is_two_power_times_three(report.stabilizer_order)


def check_normal_bicayley(bg: BiCayleyGraph) -> bool:
    """Whether R(H) is normal in Aut of the graph, with no stabilizer chain: R(H) is
    regular on each part, so c lies in it iff c sends 1_0 to some h_0 and is the
    right translation by h.  That is tested on g^-1 r g for R(H)'s two generators r
    and Aut's generators g; g^-1 R(H) g inside R(H) is R(H), both being finite."""
    G = bg.group
    gens = [right_translation(bg, G.gen_a), right_translation(bg, G.gen_b)]
    conjugates = (g[r[invert(g)]] for g in aut_group(bg.graph).generators for r in gens)  # g^-1 r g
    return all(c[0] < bg.half and np.array_equal(c, right_translation(bg, G.unrank(int(c[0])))) for c in conjugates)
