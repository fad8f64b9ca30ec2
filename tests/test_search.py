"""The individualization-refinement search: pinned canonical forms,
refinement against the row ranking it replaced, the strength of the
canonical traversal, a seeded oracle family for its pruning, and families
for its twin transpositions and its matching of repeated components."""

import hashlib
import itertools
import random

import pytest

from bicayley import Graph, abelian_family, aut_group, canonical_form, gamma_t, sigma_t, symmetry

from .oracles import brute_force_aut_order, refine_by_rows
from .test_symmetry import copies, disjoint_union, petersen


def star(k):
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def hypercube(d):
    return Graph(1 << d, [(v, v | 1 << b) for v in range(1 << d) for b in range(d) if not v >> b & 1])


def complete(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def complete_bipartite(n):
    return Graph(2 * n, [(i, n + j) for i in range(n) for j in range(n)])


def relabel(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return g.relabel(perm)


def random_graph(n, p, rng):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


# -- byte-identity fence ------------------------------------------------------------

# SHA-256 of canonical_form, computed before the automorphism and canonical
# searches became one traversal; the forms name census classes, so they must
# not move.
CANONICAL_SHA256 = {
    "gamma_1": "a6b89ec98a35d655274df6191a32c1360fa2b4e5192deee2cff26e25b3cc3516",
    "gamma_2": "50dacb4ecd75c3e4d1da3ec798ad74937115812b9e9af968fd0f4ad84ecc38fa",
    "gamma_3": "453726dfe98bbafe643954a060d8468f461b9d81d8cce9ef70c3ae3e22092346",
    "sigma_1": "ab204a6647d6e3d0be7a62026c2215c8993269084a98bc6f4f76e36593231f18",
    "sigma_2": "7c463f1442d5af76cee67977b3e06b3d35ef239011415bd563bab67d21394dce",
    "abelian_5_13": "cb99c32fad6b9e14e70de8537b10e6b1b162dee09aae327113d6c65ca65f92f7",
    "abelian_9_1": "3b24a506eb28ebfc33b21bca8a2c0da051f6900e51c0993dffb59ead84c5cf0b",
    "abelian_3_7": "5297e28dfd105a83a154a56095d02d3b30482e5c7a7db400738223bc470b8774",
    "gray_x3": "1ef1091c5fd5b7fa300a3418496ae5bb95f1e4c1a556de03acf2738bd2a07af6",
    "petersen_x4": "be09b4877f9630d719598508eb068534f41712b539f87e6e9bb99f5c7cc0c693",
    "star_16": "247b9501a6ea264facd12f6190adf60c157c9419034e814c0b3ceb2150491654",
    "cube_6": "8792e49cdb9ecf52525e4439351b4b7ebe76bce0688c354a26744049d6a3ecd4",
    "cube_7": "1fdaa7a13f2743744af3925fc08e8bf72cdaa44e01460e539ccf58805e217754",
    "k_8_8": "3b5c8710634c5a5f470fbb6adcb7c779d5bee8570fd9b6e1d9adf38f9ddae037",
}

FENCE_GRAPHS = {
    "gamma_1": lambda: gamma_t(1).graph,
    "gamma_2": lambda: gamma_t(2).graph,
    "gamma_3": lambda: gamma_t(3).graph,
    "sigma_1": lambda: sigma_t(1).graph,
    "sigma_2": lambda: sigma_t(2).graph,
    "abelian_5_13": lambda: abelian_family(5, 13).graph,
    "abelian_9_1": lambda: abelian_family(9, 1).graph,
    "abelian_3_7": lambda: abelian_family(3, 7).graph,
    "gray_x3": lambda: copies(gamma_t(1).graph, 3),
    "petersen_x4": lambda: copies(petersen(), 4),
    "star_16": lambda: star(16),
    "cube_6": lambda: hypercube(6),
    "cube_7": lambda: hypercube(7),
    "k_8_8": lambda: complete_bipartite(8),
}


@pytest.mark.parametrize("name", sorted(FENCE_GRAPHS))
def test_canonical_form_bytes_are_pinned(name):
    g = FENCE_GRAPHS[name]()
    for i in range(3):
        form = canonical_form(relabel(g, f"fence:{name}:{i}"))
        assert hashlib.sha256(form).hexdigest() == CANONICAL_SHA256[name], i


# -- refinement ---------------------------------------------------------------------


def test_refine_matches_row_ranking():
    """The packed key ranks a vertex's (colour, sorted neighbour colours) as
    the row ranking does, at every degree: sparse and dense random graphs,
    stars and complete graphs up to degree 70, from the degree colouring
    and from individualized ones."""
    import numpy as np

    rng = random.Random(608)
    graphs = [star(70), complete(40), complete_bipartite(20), hypercube(6)]
    graphs += [random_graph(n, p, rng) for n in (12, 30, 60) for p in (0.1, 0.5, 0.9)]
    for g in graphs:
        engine = symmetry._Engine(g)
        starts = [engine.initial]
        for v in rng.sample(range(g.n), 4):
            individualized = engine.refine(engine.initial) * 2
            individualized[v] -= 1
            starts.append(individualized)
        for colors in starts:
            assert np.array_equal(engine.refine(colors), refine_by_rows(engine.nbr, colors)), g.n


def individualize(engine, colors, v):
    """colors with v split from its cell and refined, as the search makes
    a child: v keeps its cell's colour and the rest of the cell, and every
    later cell, moves up by one."""
    c = colors[v]
    child = colors + (colors >= c)
    child[v] = c
    return engine.refine(child)


def summary(engine, colors):
    """(k, `invariant`, cell sizes) of a refined colouring."""
    import numpy as np

    k = int(colors.max()) + 1
    return k, engine.invariant(colors, k), tuple(np.bincount(colors, minlength=k).tolist())


EQUIVARIANCE_GRAPHS = {
    "gamma_1": lambda: gamma_t(1).graph,
    "gamma_2": lambda: gamma_t(2).graph,
    "sigma_1": lambda: sigma_t(1).graph,
    "Petersen": petersen,
    "Q_5": lambda: hypercube(5),
    "K_1,6": lambda: star(6),
}


@pytest.mark.parametrize("name", list(EQUIVARIANCE_GRAPHS))
def test_refine_is_equivariant_under_relabelling(name):
    """For h, the graph relabelled by pi (v -> pi[v]), the root colouring
    of h composed with pi is g's root colouring, and so is the refinement
    with pi[v] individualized against the one with v; `invariant` agrees."""
    import numpy as np

    g = EQUIVARIANCE_GRAPHS[name]()
    e = symmetry._Engine(g)
    root = e.root()
    for seed in range(3):
        rng = random.Random(seed)
        pi = list(range(g.n))
        rng.shuffle(pi)
        f = symmetry._Engine(g.relabel(pi))
        pi = np.array(pi)
        assert np.array_equal(f.root()[pi], root)
        assert summary(f, f.root()) == summary(e, root)
        for v in rng.sample(range(g.n), min(g.n, 5)):
            child, image = individualize(e, root, v), individualize(f, f.root(), pi[v])
            assert np.array_equal(image[pi], child), (name, seed, v)
            assert summary(f, image) == summary(e, child)


@pytest.mark.parametrize("make, t, differ", [
    (gamma_t, 1, True), (gamma_t, 2, True), (gamma_t, 3, True), (sigma_t, 1, False), (sigma_t, 2, False),
])
def test_parts_witness(make, t, differ):
    """Refine with 1_0 individualized, then with 1_1.  On gamma_t the two
    (k, `invariant`, cell sizes) differ, so no automorphism maps 1_0 to 1_1
    and gamma_t is not vertex-transitive; on the vertex-transitive sigma_t
    they agree."""
    bg = make(t)
    e = symmetry._Engine(bg.graph)
    one = bg.group.identity
    part0, part1 = (summary(e, individualize(e, e.root(), bg.index(one, i))) for i in (0, 1))
    assert (part0 != part1) == differ


# -- the canonical traversal is as strong as the automorphism one --------------------


# (refinements, automorphisms found) by run_auto and by run_canon, counted
# when the search still recursed: the explicit stack takes the same steps.
# A deeper or shallower unwind target changes them.
# K_12, K_1,12 and K_6,6 were (78, 11), (78, 11) and (76, 11) in both modes
# before twin transpositions: now one refinement per level of the first path
# (plus K_6,6's second part), and a transposition of twins for each other
# basic orbit point.
SEARCH_STEPS = {
    "K_12": ((12, 11), (12, 11)),
    "K_1,12": ((12, 11), (12, 11)),
    "Q_5": ((21, 5), (21, 5)),
    "K_6,6": ((21, 11), (21, 11)),
    "L(C_12(2,3))": ((23, 3), (21, 4)),  # unwinds to the best leaf's path too
}


@pytest.mark.parametrize("name", ["K_12", "K_1,12", "Q_5", "K_6,6", "L(C_12(2,3))"])
def test_canon_makes_no_more_refinements_than_auto(name, monkeypatch):
    g = {"K_12": complete(12), "K_1,12": star(12), "Q_5": hypercube(5), "K_6,6": complete_bipartite(6),
         "L(C_12(2,3))": relabel(line_graph(circulant(12, (2, 3))), 2)}[name]
    calls = [0]
    refine = symmetry._Engine.refine

    def counted(self, colors):
        calls[0] += 1
        return refine(self, colors)

    monkeypatch.setattr(symmetry._Engine, "refine", counted)
    steps = []
    for run in (symmetry._Search.run_auto, symmetry._Search.run_canon):
        calls[0] = 0
        search = symmetry._Search(symmetry._Engine(g))
        run(search)
        steps.append((calls[0], len(search.autos)))
    assert tuple(steps) == SEARCH_STEPS[name]
    assert 0 < steps[1][0] <= steps[0][0]


# -- depth ------------------------------------------------------------------------------


def comb(length):
    """A path of `length` vertices, each with two pendant leaves.  |Aut| is
    2^(length + 1), and the search individualizes one leaf per path vertex,
    so its tree is about `length` levels deep."""
    leaves = [(i, length + 2 * i + j) for i in range(length) for j in (0, 1)]
    return Graph(3 * length, [(i, i + 1) for i in range(length - 1)] + leaves)


def test_search_depth_is_not_bounded_by_recursion_limit(tmp_path, capsys):
    import inspect
    import json
    import sys

    from bicayley import cli
    from bicayley.graphs import format_edge_list

    g = comb(120)
    path = tmp_path / "comb.edges"
    path.write_text(format_edge_list(g))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        assert aut_group(g).order() == 2**121
        assert canonical_form(g) == canonical_form(relabel(g, "comb"))
        assert cli.main(["analyze", "--in", str(path)]) == 0
    finally:
        sys.setrecursionlimit(limit)
    assert json.loads(capsys.readouterr().out)["aut_order"] == 2**121


# -- seeded oracle family for the pruning rules ----------------------------------------


def igraph(n, j, k):
    """I(n, j, k): an outer n-cycle of step j, an inner one of step k, spokes i -- n + i.
    Cubic, and for most (n, j, k) not vertex-transitive, so refinement leaves
    two orbits in one cell."""
    edges = {tuple(sorted((i, (i + j) % n))) for i in range(n)}
    edges |= {tuple(sorted((n + i, n + (i + k) % n))) for i in range(n)}
    edges |= {(i, n + i) for i in range(n)}
    return Graph(2 * n, sorted(e for e in edges if e[0] != e[1]))


def circulant(n, steps):
    return Graph(n, sorted({tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps}))


def line_graph(g):
    return Graph(len(g.edges), [
        (i, j) for i, j in itertools.combinations(range(len(g.edges)), 2) if set(g.edges[i]) & set(g.edges[j])
    ])


def oracle_family():
    """(graph, [(piece index, multiplicity)], pieces) for seeded random graphs,
    circulants, I-graphs and the line graph of C_12(2, 3), alone and as
    disjoint unions with a repeated piece (whose automorphisms come from the
    canonical search), relabelled."""
    rng = random.Random(606)
    pieces = []
    for _ in range(40):
        g = random_graph(rng.randrange(2, 8), rng.choice([0.3, 0.5, 0.7]), rng)
        if g.is_connected():
            pieces.append(g)
    for n in range(5, 11):
        pieces.append(circulant(n, rng.sample(range(1, n // 2 + 1), min(2, n // 2))))
    pieces += [igraph(5, 1, 2), igraph(6, 1, 2), igraph(7, 1, 2), igraph(7, 1, 3), igraph(8, 1, 3)]
    family = [(p, [(i, 1)]) for i, p in enumerate(pieces)]
    for _ in range(40):
        i, j = rng.sample(range(len(pieces)), 2)
        a, b = pieces[i], pieces[j]
        if a.n != b.n and a.n * 2 + b.n <= 30:  # pieces of different sizes are not isomorphic
            family.append((disjoint_union(a, b, a), [(i, 2), (j, 1)]))
    family += [(copies(p, 2), [(i, 2)]) for i, p in enumerate(pieces) if p.n <= 8]
    # 24 vertices, |Aut| = 48: in about a quarter of its labellings, pruning by
    # known automorphisms that move the individualized prefix loses half the group
    pieces.append(line_graph(circulant(12, (2, 3))))
    family += [(pieces[-1], [(len(pieces) - 1, 1)])] * 12
    return [(relabel(g, rng.random()), parts) for g, parts in family], pieces


def test_search_pruning_against_oracles():
    """|Aut| against brute force (on each connected piece, then the wreath
    product order of the union) and against sympy's order of the same
    generators, which differs when they are not strong relative to the
    search's base."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    import math

    family, pieces = oracle_family()
    piece_order = [brute_force_aut_order(p) for p in pieces]
    for g, parts in family:
        expect = 1
        for i, m in parts:
            expect *= piece_order[i] ** m * math.factorial(m)
        aut = aut_group(g)
        assert aut.order() == expect, g.edges
        gens = [combinatorics.Permutation(list(x)) for x in aut.generators] or [combinatorics.Permutation(g.n - 1)]
        assert combinatorics.PermutationGroup(gens).order() == expect, g.edges


def test_canonical_forms_against_networkx():
    """Forms agree exactly on isomorphic pairs: each family graph against a
    relabelling of itself and against every other member with as many
    vertices and edges (isomorphic or not by networkx)."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(607)
    family = [g for g, _ in oracle_family()[0]]
    forms = [canonical_form(g) for g in family]
    outcomes = set()
    for g, form in zip(family, forms):
        assert canonical_form(relabel(g, rng.random())) == form
    for (g, fg), (h, fh) in itertools.combinations(zip(family, forms), 2):
        if (g.n, len(g.edges)) != (h.n, len(h.edges)):
            continue
        G, H = nx.Graph(), nx.Graph()
        G.add_nodes_from(range(g.n))
        H.add_nodes_from(range(h.n))
        G.add_edges_from(g.edges)
        H.add_edges_from(h.edges)
        same = nx.is_isomorphic(G, H)
        assert (fg == fh) == same, (g.edges, h.edges)
        outcomes.add(same)
    assert outcomes == {True, False}


# -- twins and repeated components ---------------------------------------------------


def complete_multipartite(*parts):
    ends = list(itertools.accumulate(parts, initial=0))
    return Graph(ends[-1], [(u, v) for a, b in zip(ends, ends[1:]) for u in range(a, b) for v in range(b, ends[-1])])


def planted_twins(rng):
    """A random graph on 4..6 vertices with each vertex blown up into a class
    of 1..3 twins, adjacent to each other (true twins) or not (false twins)."""
    base = random_graph(rng.randrange(4, 7), 0.5, rng)
    classes, n = [], 0
    for _ in range(base.n):
        size = rng.randrange(1, 4)
        classes.append((range(n, n + size), rng.random() < 0.5))
        n += size
    edges = [(u, v) for a, b in base.edges.tolist() for u in classes[a][0] for v in classes[b][0]]
    edges += [e for members, adjacent in classes if adjacent for e in itertools.combinations(members, 2)]
    return Graph(n, edges)


def twin_family():
    """(name, graph) for stars, complete bipartite and multipartite graphs,
    combs and random graphs with planted twin classes: graphs whose search
    would descend once per twin without the transpositions."""
    rng = random.Random(610)
    family = [(f"K_1,{k}", star(k)) for k in (2, 5, 7)]
    family += [(f"K_{m},{n}", complete_multipartite(m, n)) for m, n in ((2, 3), (3, 3), (3, 5), (4, 4))]
    family += [("K_2,2,3", complete_multipartite(2, 2, 3)), ("K_1,1,2", complete_multipartite(1, 1, 2))]
    family += [(f"comb_{k}", comb(k)) for k in (2, 3, 5, 8)]
    family += [(f"planted_{i}", planted_twins(rng)) for i in range(12)]
    # a cubic graph with vertex orbits of sizes 4, 2, 2, each vertex doubled
    # into two false twins: 6-regular, so refinement leaves one cell that
    # holds twins and vertices of other orbits
    cubic = [(0, 1), (0, 6), (0, 7), (1, 3), (1, 7), (2, 4), (2, 5), (2, 7), (3, 4), (3, 6), (4, 5), (5, 6)]
    family += [("doubled_cubic", Graph(16, [(2 * u + i, 2 * v + j) for u, v in cubic for i in (0, 1) for j in (0, 1)]))]
    return family


def twin_family_faults():
    """What goes wrong on the twin family: |Aut| against brute force and
    networkx, canonical forms across three labellings, and forms against
    networkx isomorphism between members of equal size."""
    nx = pytest.importorskip("networkx")
    faults = []
    forms = []
    for name, g in twin_family():
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges.tolist())
        expect = brute_force_aut_order(g)
        if sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(G, G).isomorphisms_iter()) != expect:
            faults.append((name, "oracles disagree"))
        labelled = [relabel(g, f"twins:{name}:{i}") for i in range(3)]
        groups = [aut_group(h) for h in labelled]
        if not all(h.preserves_edges(x) for h, aut in zip(labelled, groups) for x in aut.generators):
            faults.append((name, "generators"))
        if [aut.order() for aut in groups] != [expect] * 3:
            faults.append((name, "order"))
        same = {canonical_form(h) for h in labelled}
        if len(same) != 1:
            faults.append((name, "forms differ across labellings"))
        forms.append((name, G, same.pop()))
    for (a, G, fa), (b, H, fb) in itertools.combinations(forms, 2):
        if (G.number_of_nodes(), G.number_of_edges()) == (H.number_of_nodes(), H.number_of_edges()):
            if (fa == fb) != nx.is_isomorphic(G, H):
                faults.append((a, b, "forms against isomorphism"))
    return faults


def test_twin_family_against_oracles():
    assert twin_family_faults() == []


def test_a_twin_test_that_passes_non_twins_is_caught(monkeypatch):
    """A mutant that skips every later child of a node as a twin of the
    first records transpositions that are no automorphisms."""
    monkeypatch.setattr(symmetry._Engine, "twins", lambda self, v, w: True)
    kinds = {fault[-1] for fault in twin_family_faults()}
    assert {"generators", "order"} <= kinds


def test_repeated_components_match_or_fall_back(monkeypatch):
    """Petersen, pentagonal prism, Petersen: the prism's matching search
    against the Petersen graph finds no leaf and falls back to a full
    search, the second Petersen graph matches the first."""
    found = []
    run_match = symmetry._Search.run_match

    def recorded(self, target):
        labelling = run_match(self, target)
        found.append(labelling is not None)
        return labelling

    monkeypatch.setattr(symmetry._Search, "run_match", recorded)
    pentagonal_prism = Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
                             + [(i, i + 5) for i in range(5)])
    g = disjoint_union(petersen(), pentagonal_prism, petersen())
    assert aut_group(g).order() == 2 * 120**2 * 20
    assert found == [False, True]
    reordered = disjoint_union(pentagonal_prism, petersen(), petersen())
    assert canonical_form(relabel(g, "union")) == canonical_form(reordered) == canonical_form(g)


def test_refine_calls_of_a_search_match_row_ranking(monkeypatch):
    """Every refinement of the searches on cubic, twin-rich and disconnected
    graphs (children's colour ids from the parent's ranks, the cubic
    sorting network) equals the row ranking."""
    import numpy as np

    calls = [0]
    refine = symmetry._Engine.refine

    def checked(self, colors):
        calls[0] += 1
        out = refine(self, colors)
        assert np.array_equal(out, refine_by_rows(self.nbr, colors))
        return out

    monkeypatch.setattr(symmetry._Engine, "refine", checked)
    for g in (gamma_t(1).graph, sigma_t(1).graph, star(9), complete_bipartite(5), copies(petersen(), 3), comb(6)):
        symmetry.classify(relabel(g, "rows"))
        canonical_form(relabel(g, "rows:canon"))
    assert calls[0] > 0


# -- searches seeded with known automorphisms ------------------------------------------


def test_seeded_search_matches_unseeded():
    """canonical_search seeded with a random subset of aut_group's generators
    gives the unseeded relabelled graph and |Aut|, and sympy finds the same
    order for the generators it returns, which differs when they are not
    strong relative to the search's base."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(609)
    seeded_any = False
    for g, _ in oracle_family()[0]:
        if not g.is_connected():
            continue
        labelling, aut = symmetry.canonical_search(g)
        gens = list(aut_group(g).generators)
        seeds = rng.sample(gens, rng.randrange(len(gens) + 1))
        seeded_any |= bool(seeds)
        seeded_labelling, seeded = symmetry.canonical_search(g, seeds)
        assert g.relabel(seeded_labelling) == g.relabel(labelling), g.edges
        assert seeded.order() == aut.order(), g.edges
        perms = [combinatorics.Permutation(list(x)) for x in seeded.generators] or [combinatorics.Permutation(g.n - 1)]
        assert combinatorics.PermutationGroup(perms).order() == aut.order(), g.edges
    assert seeded_any


def test_seeded_search_rejects_bad_seeds():
    from bicayley.errors import NotAutomorphism, PreconditionError

    g = petersen()  # outer cycle 0..4, spokes i -- i + 5
    rotation = [(i + 1) % 5 for i in range(5)] + [5 + (i + 1) % 5 for i in range(5)]
    assert g.preserves_edges(rotation)
    swap = list(range(10))
    swap[0], swap[1] = 1, 0  # moves the edge {1, 2} onto the non-edge {0, 2}
    for bad in (swap, rotation[:9], [0] * 10, rotation + [10]):
        with pytest.raises(NotAutomorphism):
            symmetry.canonical_search(g, [rotation, bad])
    two = copies(g, 2)
    with pytest.raises(PreconditionError):
        symmetry.canonical_search(two, [rotation + [10 + v for v in rotation]])
