import functools
import json
import math
import random
import tracemalloc

import pytest

from bicayley import (
    BiCayleyGraph,
    Graph,
    aut_group,
    canonical_digest,
    canonical_form,
    canonical_search,
    check_normal_bicayley,
    check_stabilizer_law,
    census,
    classify,
    gamma_t,
    graph6_encode,
    make_group,
    right_group,
    sigma_t,
)
from bicayley.errors import BudgetError, DegreeMismatch, PreconditionError
from bicayley.metacyclic import PairGroup
from bicayley.symmetry import _is_two_power_times_three

from .graph_builders import copies, petersen
from .oracles import adjacency, brute_force_aut_order, chain_group, enumerate_elements, is_normal


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def k33():
    return Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])


def prism():
    return Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_known_aut_orders():
    assert aut_group(cycle(6)).order() == 12
    assert aut_group(k33()).order() == 72
    assert aut_group(petersen()).order() == 120


def test_aut_generators_preserve_adjacency():
    g = petersen()
    aut = aut_group(g)
    adj = adjacency(g)
    for gen in aut.generators:
        for u, v in g.edges:
            assert gen[v] in adj[gen[u]]


def test_aut_matches_brute_force():
    cases = [cycle(4), cycle(7), k33(), petersen(), prism(), Graph(1, []), Graph(2, [(0, 1)])]
    for seed in range(6):
        cases.append(random_graph(8, 0.35, seed))
    for g in cases:
        assert aut_group(g).order() == brute_force_aut_order(g)


def test_aut_order_relabeling_invariant():
    g = petersen()
    base = aut_group(g).order()
    rng = random.Random(3)
    for _ in range(5):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert aut_group(g.relabel(perm)).order() == base


def test_canonical_form_under_relabeling():
    rng = random.Random(11)
    for g in (petersen(), random_graph(12, 0.3, 2), gamma_t(1).graph):
        ref = canonical_form(g)
        trials = 200 if g.n <= 12 else 25
        for _ in range(trials):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(g.relabel(perm)) == ref


def test_canonical_form_distinguishes_perturbations():
    g = petersen()
    ref = canonical_form(g)
    rng = random.Random(5)
    adj = adjacency(g)
    non_edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if v not in adj[u]
    ]
    old_edges = [tuple(e) for e in g.edges.tolist()]
    count = 0
    while count < 20:
        drop = rng.choice(old_edges)
        add = rng.choice(non_edges)
        if set(drop) & set(add):
            continue  # keep degree sequences provably different
        count += 1
        edges = [e for e in old_edges if e != drop] + [add]
        assert canonical_form(Graph(g.n, edges)) != ref


def test_engine_budget():
    # one message whether aut_group runs its own search or canonical_search's
    path = Graph(5001, [(v, v + 1) for v in range(5000)])
    for graph in (path, Graph(5001, [])):
        with pytest.raises(BudgetError, match="^5001 vertices exceed the engine budget 5000$"):
            aut_group(graph)


def test_classify_path3():
    rep = classify(Graph(3, [(0, 1), (1, 2)]))
    assert rep.vertex_orbits == 2 and rep.edge_orbits == 1
    assert rep.classification == "none"


def test_classify_rejects_a_group_of_another_degree(gray_graph):
    # named before any orbit work, not as a numpy broadcast error
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    for graph, aut in ((path, aut_group(gray_graph.graph)), (gray_graph.graph, aut_group(path))):
        with pytest.raises(DegreeMismatch, match=f"degrees {aut.degree} and {graph.n} differ"):
            classify(graph, aut)


def test_classify_prism_vertex_transitive_only():
    rep = classify(prism())
    assert rep.classification == "vertex-not-edge-transitive"
    assert rep.vertex_orbits == 1 and rep.edge_orbits == 2


def test_classify_k33():
    rep = classify(k33())
    assert rep.classification == "arc-transitive"
    assert rep.aut_order == 72 and rep.stabilizer_order == 12


def test_classify_arc_orbits_memory_does_not_scale_with_generators():
    """Aut(K_60) has 59 generators on 3540 arcs.  One arc permutation per
    generator held at once peaked at 1.82 MiB under tracemalloc; folding each
    into the orbit labels before the next is built keeps the peak O(arcs)."""
    complete = Graph(60, [(u, v) for u in range(60) for v in range(u + 1, 60)])
    bipartite = Graph(60, [(u, v) for u in range(20) for v in range(20, 60)])
    for g, orders, orbits in (
        (complete, math.factorial(60), (1, 1, 1)),
        (bipartite, math.factorial(20) * math.factorial(40), (2, 1, 2)),
    ):
        aut = aut_group(g)
        tracemalloc.start()
        try:
            rep = classify(g, aut)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.aut_order == orders
        assert (rep.vertex_orbits, rep.edge_orbits, rep.arc_orbits) == orbits
        assert peak <= 1.82 / 2 * 2**20, peak


def test_report_invariants_and_json(gray_graph):
    rep = classify(gray_graph.graph)
    assert rep.stabilizer_order * 27 == rep.aut_order
    keys = list(json.loads(rep.to_json()).keys())
    assert keys == [
        "aut_order",
        "vertex_orbits",
        "edge_orbits",
        "arc_orbits",
        "classification",
        "stabilizer_order",
    ]


def test_stabilizer_law():
    assert check_stabilizer_law(k33())
    # the stabilizer orders 2^r 3 and none other, among them some not divisible by 3
    assert [s for s in range(1, 100) if _is_two_power_times_three(s)] == [3, 6, 12, 24, 48, 96]
    with pytest.raises(PreconditionError):
        check_stabilizer_law(cycle(6))  # not cubic
    with pytest.raises(PreconditionError):
        check_stabilizer_law(prism())  # cubic but not edge-transitive


def stabilizer_law_by_orbits(graph):
    """The law tested orbit by orbit on the full automorphism group."""
    aut = aut_group(graph)
    order = aut.order()
    for orbit in aut.orbits():
        s, r = divmod(order, len(orbit))
        if r or s % 3 or (s // 3) & (s // 3 - 1):
            return False
    return True


def test_stabilizer_law_reads_the_report(monkeypatch):
    """One stabilizer order serves every vertex, and a given report spares
    the search; the verdicts equal the per-orbit loop's."""
    from bicayley import abelian_family
    from bicayley.symmetry import _Search

    gray = gamma_t(1).graph
    graphs = {
        "K_3,3": (k33(), True),
        "Petersen": (petersen(), True),
        "Heawood": (abelian_family(1, 7).graph, True),
        "gamma_1": (gray, True),
        "gamma_2": (gamma_t(2).graph, True),  # 1458 / 243 = 6
        "sigma_1": (sigma_t(1).graph, True),
        "2 x Gray": (copies(gray, 2), False),  # 1296^2 * 2 / 54 = 62208
    }
    reports = {name: classify(graph) for name, (graph, _) in graphs.items()}
    assert reports["2 x Gray"].stabilizer_order == 62208
    calls = []
    for name in ("run_auto", "run_canon"):
        run = getattr(_Search, name)
        monkeypatch.setattr(_Search, name, lambda self, run=run, name=name: calls.append(name) or run(self))
    for name, (graph, law) in graphs.items():
        assert check_stabilizer_law(graph, reports[name]) == law, name
    with pytest.raises(PreconditionError, match="edge-transitive"):
        check_stabilizer_law(prism(), classify(prism()))
    assert calls == ["run_auto"]  # the prism's classify
    for name, (graph, law) in graphs.items():
        calls.clear()
        assert check_stabilizer_law(graph) == stabilizer_law_by_orbits(graph) == law, name
        # the law's one search, then the loop's
        assert calls == 2 * ["run_canon" if name == "2 x Gray" else "run_auto"], name


def test_normal_bicayley(gray_graph, sym162):
    # gamma_1, the Gray graph, is the one family member where R(H) is not
    # normal; on the others Aut is the normalizer, of order |H| * 6
    assert not check_normal_bicayley(gray_graph)
    for bg in (gamma_t(2), gamma_t(3), sym162, sigma_t(2)):
        assert check_normal_bicayley(bg) and aut_group(bg.graph).order() == 6 * bg.half


@functools.cache
def small_censuses():
    """{(p, m, n, r): census} for the 17 groups of order <= 3^6 with p in
    {3, 5, 7}, computed once for the tests that read them."""
    params = [
        (p, m, n, r)
        for p in (3, 5, 7)
        for m in range(2, 7)
        for n in range(1, 6)
        for r in range(1, m)
        if p ** (m + n) <= 3**6 and m <= n + r
    ]
    assert len(params) == 17
    return {q: census(make_group(*q)) for q in params}


def test_normal_bicayley_matches_the_chain_oracle():
    """The definition against `is_normal` over R(H)'s stabilizer chain, on
    every census class of the 17 groups of order <= 3^6 with p in {3, 5, 7}
    and on gamma_1..3 and sigma_1..2 (about 8 s on a 2-core Intel Xeon, most
    of it in the censuses and the oracle)."""
    graphs = [gamma_t(t) for t in (1, 2, 3)] + [sigma_t(t) for t in (1, 2)]
    for q, result in small_censuses().items():
        graphs += [BiCayleyGraph(make_group(*q), (), (), c.spokes) for c in result.classes]
    assert len(graphs) == 5 + 104
    verdicts = [check_normal_bicayley(bg) for bg in graphs]
    assert verdicts == [is_normal(aut_group(bg.graph), right_group(bg)) for bg in graphs]
    # only the Gray graph (gamma_1, and its census class over (3,2,1,1)) is not normal
    assert verdicts.count(False) == 2 and not verdicts[0]


def test_small_censuses_find_the_paper_classification():
    """Over the 17 groups of order <= 3^6 (no second census: the results are
    the ones the chain-oracle test reads), edge-transitive classes exist over
    four groups only, one each: gamma_1 and gamma_2 (semisymmetric) and
    sigma_1 and sigma_2 (arc-transitive).  No group with p = 5 or 7 has one."""
    found = {q: [(c.report.classification, c.digest) for c in result.edge_transitive_classes]
             for q, result in small_censuses().items()}
    expect = {
        (3, 2, 1, 1): [("semisymmetric", canonical_digest(gamma_t(1).graph))],
        (3, 3, 2, 2): [("semisymmetric", canonical_digest(gamma_t(2).graph))],
        (3, 2, 2, 1): [("arc-transitive", canonical_digest(sigma_t(1).graph))],
        (3, 3, 3, 2): [("arc-transitive", canonical_digest(sigma_t(2).graph))],
    }
    assert {q: classes for q, classes in found.items() if classes} == expect
    assert any(q[0] == 5 for q in found) and any(q[0] == 7 for q in found)


@pytest.mark.parametrize("mod_j, mod_i", [(5, 1), (1, 5)])
def test_normal_bicayley_conjugates_both_generators(mod_j, mod_i):
    # the Petersen graph BiCay(Z_5, {+-1}, {+-2}, {0}), with Z_5 generated by
    # b and then by a, the other generator trivial: R(H) is not normal
    # (|Aut| = 120, its normalizer 20), and only the non-trivial generator's
    # conjugates leave R(H)
    G = PairGroup(mod_j, mod_i, 1, 1)
    unit = (1 % mod_j, 1 % mod_i)
    bg = BiCayleyGraph(G, [G.pow(unit, k) for k in (1, -1)], [G.pow(unit, k) for k in (2, -2)], [G.identity])
    aut = aut_group(bg.graph)
    assert aut.order() == 120 and not is_normal(aut, right_group(bg))
    assert not check_normal_bicayley(bg)


def test_normal_bicayley_builds_no_stabilizer_chain():
    # R(H)'s chain on gamma_3 (4374 vertices) peaked at 147.5 MiB
    bg = gamma_t(3)
    tracemalloc.start()
    try:
        assert check_normal_bicayley(bg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_gray_aut_order_with_enumeration_oracle(gray_graph):
    aut = aut_group(gray_graph.graph)
    assert aut.order() == 1296
    assert len(enumerate_elements(aut, limit=5000)) == 1296


def test_sigma1_aut_with_enumeration_oracle(sym162):
    aut = aut_group(sym162.graph)
    assert aut.order() == len(enumerate_elements(aut, limit=5000))


def test_all_graphs_on_five_vertices():
    # exhaustive oracle: the 2^10 labeled graphs on 5 vertices fall into
    # exactly 34 isomorphism classes, and each class has 5!/|Aut| members
    import itertools
    import math

    pairs = list(itertools.combinations(range(5), 2))
    classes = {}
    for mask in range(1 << 10):
        g = Graph(5, [pairs[i] for i in range(10) if (mask >> i) & 1])
        classes.setdefault(canonical_form(g), []).append(g)
    assert len(classes) == 34
    for form, members in classes.items():
        aut_order = aut_group(members[0]).order()
        assert len(members) == math.factorial(5) // aut_order
        assert brute_force_aut_order(members[0]) == aut_order


def test_classical_cubic_anchors():
    # Heawood graph as the Fano plane incidence graph: |Aut| = 336
    fano = [
        (1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6),
    ]
    edges = [(p - 1, 7 + li) for li, line in enumerate(fano) for p in line]
    heawood = Graph(14, edges)
    rep = classify(heawood)
    assert rep.aut_order == 336
    assert rep.classification == "arc-transitive"
    assert check_stabilizer_law(heawood, rep)  # 336/14 = 24 = 2^3 * 3
    # Desargues graph via LCF [5,-5,9,-9]^5: |Aut| = 240
    lcf = [5, -5, 9, -9]
    edges = [(i, (i + 1) % 20) for i in range(20)]
    edges += [(i, (i + lcf[i % 4]) % 20) for i in range(20)]
    desargues = Graph(20, edges)
    assert aut_group(desargues).order() == 240


def test_explicit_subgroup_equals_full_aut_on_sym162(sym162):
    from bicayley import delta_map, make_automorphism, right_translation, sigma_map

    H = sym162.group
    a, b = H.gen_a, H.gen_b
    alpha = make_automorphism(
        H, H.mul(H.pow(a, 7), H.pow(b, -3)), H.mul(H.pow(a, 7), H.pow(b, -2))
    )
    beta = make_automorphism(H, H.inv(a), H.mul(H.inv(a), b))
    gens = [
        right_translation(sym162, a),
        right_translation(sym162, b),
        sigma_map(sym162, alpha, b).permutation,
        delta_map(sym162, beta, H.identity, H.identity).permutation,
    ]
    explicit = chain_group(162, gens)
    assert explicit.order() == aut_group(sym162.graph).order() == 486


def test_orbit_counts_relabeling_invariant():
    g = petersen()
    base = classify(g)
    rng = random.Random(21)
    for _ in range(3):
        perm = list(range(g.n))
        rng.shuffle(perm)
        moved = classify(g.relabel(perm))
        assert moved == base


def test_random_six_vertex_graphs_match_brute_force():
    rng = random.Random(99)
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    for _ in range(300):
        mask = rng.getrandbits(15)
        g = Graph(6, [pairs[i] for i in range(15) if (mask >> i) & 1])
        assert aut_group(g).order() == brute_force_aut_order(g)


def test_disconnected_aut_and_canon():
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert aut_group(two_triangles).order() == 72  # S3 wr S2
    assert brute_force_aut_order(two_triangles) == 72
    mixed = Graph(7, [(0, 1), (2, 3), (4, 5)])  # 3 edges + isolated vertex
    assert aut_group(mixed).order() == 48
    assert brute_force_aut_order(mixed) == 48
    rng = random.Random(17)
    ref = canonical_form(mixed)
    for _ in range(50):
        perm = list(range(7))
        rng.shuffle(perm)
        assert canonical_form(mixed.relabel(perm)) == ref
    empty = Graph(0, [])
    assert canonical_form(empty) == b"?" and aut_group(empty).order() == 1
    for g in (empty, Graph(1, []), two_triangles, mixed, petersen()):
        labelling, aut = canonical_search(g)
        assert sorted(labelling) == list(range(g.n))
        assert graph6_encode(g.relabel(labelling)).encode("ascii") == canonical_form(g)
        assert aut.order() == aut_group(g).order()


# -- base and strong generators read off the search ------------------------------


def disjoint_union(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.n
    return Graph(offset, edges)


def test_seeded_order_matches_generic_chain_and_brute_force():
    rng = random.Random(2024)
    rigid = Graph(6, [(0, 3), (0, 4), (1, 4), (2, 5), (3, 4), (3, 5)])  # refinement alone makes it discrete
    cases = [Graph(1, []), Graph(5, []), Graph(9, []), copies(Graph(2, [(0, 1)]), 4), copies(rigid, 3)]
    for seed in range(150):
        n = rng.randrange(1, 10)
        g = random_graph(n, rng.choice([0.15, 0.3, 0.5, 0.8]), seed)
        cases.append(g)
        if g.n <= 4:
            cases.append(disjoint_union(g, g, Graph(1, [])))
    kinds = {g.is_connected() for g in cases}
    assert kinds == {True, False}
    for g in cases:
        aut = aut_group(g)
        generic = chain_group(g.n, aut.generators).order()
        assert aut.order() == generic == brute_force_aut_order(g), g.edges


def test_seeded_order_on_multi_copy_graphs(gray_graph):
    gray = gray_graph.graph
    assert aut_group(copies(gray, 3)).order() == 1296**3 * 6
    assert aut_group(copies(petersen(), 4)).order() == 120**4 * 24
    mixed = disjoint_union(petersen(), Graph(1, []), petersen(), cycle(5), Graph(1, []), Graph(1, []))
    assert aut_group(mixed).order() == 120**2 * 2 * 6 * 10


def test_seeded_order_matches_sympy(gray_graph, sym162):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    from bicayley import abelian_family, gamma_t

    for bg in (sym162, gray_graph, gamma_t(2), abelian_family(3, 7)):
        aut = aut_group(bg.graph)
        ref = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g)) for g in aut.generators]
        )
        assert aut.order() == ref.order()


def test_seeded_contains_matches_generic_chain(gray_graph):
    from bicayley import compose

    rng = random.Random(8)
    for g in (petersen(), gray_graph.graph, copies(petersen(), 3), copies(cycle(4), 2)):
        aut = aut_group(g)
        generic = chain_group(g.n, aut.generators)
        gens = aut.generators
        for _ in range(20):
            w = tuple(range(g.n))
            for _ in range(rng.randrange(1, 8)):
                w = compose(w, rng.choice(gens))
            assert aut.contains(w) and generic.contains(w)
        outside = 0
        for _ in range(20):
            p = list(range(g.n))
            rng.shuffle(p)
            assert aut.contains(p) == generic.contains(p)
            outside += not generic.contains(p)
        assert outside > 0


def test_canonical_form_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(31)
    outcomes = set()
    for _ in range(150):
        n = rng.randrange(1, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = rng.randrange(0, len(pairs) + 1)
        g, h = Graph(n, rng.sample(pairs, m)), Graph(n, rng.sample(pairs, m))
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g.relabel(perm)) == canonical_form(g)
        G, H = nx.Graph(), nx.Graph()
        G.add_nodes_from(range(n))
        H.add_nodes_from(range(n))
        G.add_edges_from(g.edges)
        H.add_edges_from(h.edges)
        same = nx.is_isomorphic(G, H)
        assert (canonical_form(g) == canonical_form(h)) == same, (g.edges, h.edges)
        outcomes.add((same, g == h))
    assert {(True, False), (False, False)} <= outcomes  # isomorphic-but-unequal pairs and non-isomorphic ones
