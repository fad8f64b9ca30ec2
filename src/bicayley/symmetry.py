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

`canonical_form` keeps the lexicographically largest certificate over the
pruned tree; `aut_group` anchors on the first leaf and harvests one
automorphism from every other leaf with an equal certificate.  Both searches
skip a candidate branch when a known automorphism fixing the current
individualized prefix maps it onto an already-explored one; such subtrees
contain only duplicate leaves, so the extreme certificate and the generated
group are exact.

The vertices individualized on the way to the first leaf form a base of the
automorphism group, and the harvested automorphisms are a strong generating
set relative to it: at each level of that path every child whose subtree
holds an equivalent leaf either yields an automorphism fixing the prefix or
is pruned as the image of one that did.  `aut_group` hands both to
`PermGroup.with_base`, so |Aut| is a product of basic orbit sizes.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

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
        degs = graph.degrees()
        self.dmax = max(degs, default=0)
        nbr = np.full((self.n, self.dmax), self.n, dtype=np.int64)
        for v, nbhd in enumerate(graph.adj):
            nbr[v, : len(nbhd)] = nbhd
        self.nbr = nbr
        e = graph.edge_array()
        self.eu, self.ev = e[:, 0], e[:, 1]
        self.au = np.concatenate([self.eu, self.ev])
        self.av = np.concatenate([self.ev, self.eu])
        # signatures pack into one int64 when (dmax+1) * bits(colour) fits
        self._bits = (self.n + 2).bit_length()
        self._packable = (self.dmax + 1) * self._bits <= 63
        if self.n:
            self.initial = self._canon_ids(np.asarray(degs, dtype=np.int64))
        else:
            self.initial = np.zeros(0, np.int64)

    @staticmethod
    def _canon_ids(values: np.ndarray) -> np.ndarray:
        _, inv = np.unique(values, return_inverse=True)
        return inv.astype(np.int64)

    def refine(self, colors: np.ndarray) -> np.ndarray:
        """Iterate neighbour-colour-multiset splitting to a fixpoint."""
        colors = self._canon_ids(colors)
        k = int(colors.max()) + 1 if self.n else 0
        while True:
            ext = np.concatenate([colors, [k]])  # sentinel colour for padding
            sig = ext[self.nbr]
            sig.sort(axis=1)
            if self._packable:
                key = colors.copy()
                for col in range(self.dmax):
                    key = (key << self._bits) | sig[:, col]
                _, inv = np.unique(key, return_inverse=True)
            else:
                rows = np.column_stack([colors, sig])
                _, inv = np.unique(rows, axis=0, return_inverse=True)
            new_k = int(inv.max()) + 1
            if new_k == k:
                return inv.astype(np.int64)
            colors = inv.astype(np.int64)
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


class _AutoFound(Exception):
    """Unwind the search to the deepest node whose prefix the new automorphism fixes."""

    def __init__(self, depth: int):
        self.depth = depth


class _Search:
    def __init__(self, engine: _Engine):
        self.e = engine
        self.autos: list[np.ndarray] = []
        self._auto_keys: set[bytes] = set()
        self.first: tuple[tuple[int, ...], bytes, np.ndarray] | None = None
        self.base: list[int] = []  # run_auto: vertices individualized on the way to the first leaf
        self.best: tuple[tuple[int, ...], bytes, np.ndarray] | None = None

    def _record_auto(self, ref_pos: np.ndarray, pos: np.ndarray) -> np.ndarray:
        ref_inv = np.empty(self.e.n, dtype=np.intp)
        ref_inv[ref_pos] = np.arange(self.e.n, dtype=np.intp)
        gamma = ref_inv[pos]
        key = gamma.tobytes()
        if key not in self._auto_keys:
            self._auto_keys.add(key)
            self.autos.append(gamma)
        return gamma

    def _children(self, colors: np.ndarray, k: int, prefix: list[int]):
        """(v, refined child colouring, its invariant) for each v of the target
        cell, skipping v when a known automorphism fixing the individualized
        prefix maps it onto an explored vertex.  The orbit labels are refreshed
        whenever the caller's subtrees have found new automorphisms."""
        pref = np.asarray(prefix, dtype=np.intp)
        done: list[int] = []
        labels: np.ndarray | None = None
        labels_version = -1
        done_labels: set[int] = set()
        for v in self.e.target_cell(colors, k).tolist():
            if self.autos and done:
                if labels is None or labels_version != len(self.autos):
                    fixing = [g for g in self.autos if np.array_equal(g[pref], pref)]
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
            yield v, child, self.e.invariant(child, int(child.max()) + 1)

    # -- automorphism search (anchored to the first leaf) ----------------------

    def run_auto(self) -> list[np.ndarray]:
        colors = self.e.refine(self.e.initial)
        self._auto_rec(colors, (), [])
        return self.autos

    def _auto_rec(self, colors: np.ndarray, trace: tuple[int, ...], prefix: list[int]) -> None:
        n = self.e.n
        k = int(colors.max()) + 1 if n else 0
        if k == n:
            pos = colors
            bts = self.e.leaf_bytes(pos)
            if self.first is None:
                self.first = (trace, bts, pos.copy())
                self.base = list(prefix)
                return
            ftrace, fbts, fpos = self.first
            if trace == ftrace and bts == fbts:
                gamma = self._record_auto(fpos, pos)
                fixed = 0
                for v in prefix:
                    if gamma[v] != v:
                        break
                    fixed += 1
                raise _AutoFound(fixed)
            return
        depth = len(trace)
        for v, child, inv in self._children(colors, k, prefix):
            ftrace = self.first[0] if self.first is not None else None
            if ftrace is not None and (depth >= len(ftrace) or inv != ftrace[depth]):
                continue
            try:
                self._auto_rec(child, trace + (inv,), prefix + [v])
            except _AutoFound as found:
                if found.depth < len(prefix):
                    raise
                # the automorphism fixes this node's prefix: keep scanning here,
                # the refreshed orbit labels absorb the pruning

    # -- canonical search (maximal certificate) ---------------------------------

    def run_canon(self) -> tuple[np.ndarray, bytes]:
        colors = self.e.refine(self.e.initial)
        self._canon_rec(colors, (), [], False)
        assert self.best is not None
        _, bts, pos = self.best
        return pos, bts

    def _canon_rec(
        self, colors: np.ndarray, trace: tuple[int, ...], prefix: list[int], better: bool
    ) -> None:
        n = self.e.n
        k = int(colors.max()) + 1 if n else 0
        if k == n:
            pos = colors
            bts = self.e.leaf_bytes(pos)
            key = (trace, bts)
            if self.first is None:
                self.first = (trace, bts, pos.copy())
            elif key == (self.first[0], self.first[1]) and not np.array_equal(self.first[2], pos):
                self._record_auto(self.first[2], pos)
            if self.best is None or key > (self.best[0], self.best[1]):
                self.best = (trace, bts, pos.copy())
            elif key == (self.best[0], self.best[1]) and not np.array_equal(self.best[2], pos):
                self._record_auto(self.best[2], pos)
            return
        depth = len(trace)
        for v, child, inv in self._children(colors, k, prefix):
            child_better = better
            if not child_better and self.best is not None:
                btrace = self.best[0]
                if depth < len(btrace):
                    if inv < btrace[depth]:
                        continue
                    if inv > btrace[depth]:
                        child_better = True
            self._canon_rec(child, trace + (inv,), prefix + [v], child_better)


def _check_budget(graph: Graph) -> None:
    if graph.n > ENGINE_VERTEX_BUDGET:
        raise BudgetError(
            f"{graph.n} vertices exceed the engine budget {ENGINE_VERTEX_BUDGET}"
        )


def _component_canon(graph: Graph) -> list[tuple[list[int], bytes, list[int]]]:
    """Per component: (vertex list, canonical bytes, canonical labeling)."""
    out = []
    for comp in graph.components():
        sub = graph.subgraph(comp)
        labeling = _Search(_Engine(sub)).run_canon()[0].tolist() if sub.n > 1 else [0]
        out.append((comp, graph6_encode(sub.relabel(labeling)).encode("ascii"), labeling))
    return out


def aut_group(graph: Graph) -> PermGroup:
    """Full automorphism group, with a base and strong generating set.

    Deterministic for fixed input.  Disconnected graphs decompose: the
    generators of one representative per isomorphism class, copied onto every
    member of the class along the canonical labelings, plus a component swap
    for every consecutive pair of members, are strong relative to the
    representative's base copied onto every member and interleaved (first
    point of every copy, then the second, ...).  The group is the product of
    wreath products over the classes.
    """
    _check_budget(graph)
    if graph.n == 0:
        return PermGroup.with_base(0, [], [])
    comps = graph.components()
    if len(comps) == 1:
        search = _Search(_Engine(graph))
        gens = search.run_auto()
        return PermGroup.with_base(graph.n, gens, search.base)
    info = _component_canon(graph)
    by_class: dict[tuple[int, bytes], list[tuple[list[int], list[int]]]] = {}
    for comp, digest, labeling in info:
        by_class.setdefault((len(comp), digest), []).append((comp, labeling))
    gens: list[np.ndarray] = []
    base: list[int] = []
    ident = np.arange(graph.n, dtype=np.intp)
    for (_, _digest), members in sorted(by_class.items()):
        # at_pos[j][p]: the vertex of member j at canonical position p
        at_pos = []
        for comp, labeling in members:
            row = np.empty(len(comp), dtype=np.intp)
            row[labeling] = comp
            at_pos.append(row)
        rep, rep_label = members[0]
        rep_label = np.asarray(rep_label, dtype=np.intp)
        local_gens: list[np.ndarray] = []
        local_base = [0]  # a trivial group still needs one point per copy
        if len(rep) > 1:
            search = _Search(_Engine(graph.subgraph(rep)))
            local_gens = search.run_auto()
            local_base = search.base or local_base
        for g in local_gens:
            for row in at_pos:
                lifted = ident.copy()
                lifted[row[rep_label]] = row[rep_label[g]]
                gens.append(lifted)
        for row_a, row_b in zip(at_pos, at_pos[1:]):
            # swap two isomorphic components along their canonical labelings
            swap = ident.copy()
            swap[row_a] = row_b
            swap[row_b] = row_a
            gens.append(swap)
        base.extend(int(row[rep_label[b]]) for b in local_base for row in at_pos)
    return PermGroup.with_base(graph.n, gens, base)


def canonical_form(graph: Graph) -> bytes:
    """Byte string equal for two graphs exactly when they are isomorphic.

    Disconnected graphs are assembled from canonically relabelled components
    sorted by (size, component form); isomorphic inputs sort identically, so
    the assembled form is still a complete isomorphism invariant.
    """
    _check_budget(graph)
    if graph.n == 0:
        return b"?"
    comps = graph.components()
    if len(comps) == 1:
        pos, _ = _Search(_Engine(graph)).run_canon()
        return graph6_encode(graph.relabel([int(x) for x in pos])).encode("ascii")
    info = _component_canon(graph)
    blocks = sorted(
        ((len(comp), digest, comp, labeling) for comp, digest, labeling in info),
        key=lambda item: (item[0], item[1]),
    )
    relabel = [0] * graph.n
    offset = 0
    for size, _digest, comp, labeling in blocks:
        for local, image in enumerate(labeling):
            relabel[comp[local]] = offset + image
        offset += size
    return graph6_encode(graph.relabel(relabel)).encode("ascii")


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
    e = graph.edge_array()
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
    has_edges = bool(graph.edges)
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


def brute_force_aut_order(graph: Graph) -> int:
    """Degree-preserving backtracking with no refinement; oracle for small graphs."""
    if graph.n > 30:
        raise BudgetError("brute-force oracle limited to 30 vertices")
    n = graph.n
    degs = graph.degrees()
    adjsets = [set(nb) for nb in graph.adj]
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
