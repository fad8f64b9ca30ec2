"""Acceptance gate: the toolkit's exit criteria, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one pass line per
criterion.  Every expected value is either pinned arithmetic, an
independently computed oracle (enumeration, brute force, LCF construction),
or a canonical-form comparison between two independent constructions.
"""

import random
import time

import numpy as np

from bicayley import (
    BiCayleyGraph,
    PermGroup,
    abelian_family,
    aut_group,
    canonical_form,
    check_generator_images,
    check_normal_bicayley,
    check_stabilizer_law,
    classify,
    delta_map,
    gamma_group,
    gamma_t,
    make_automorphism,
    make_group,
    quotient_graph,
    right_group,
    right_translation,
    sigma_group,
    sigma_map,
    sigma_t,
)
from bicayley.graphs import Graph
from bicayley.permgroup import invert, orbit_of_tuple, perm_power

from .oracles import derived_subgroup, enumerate_elements, regular_representation, regular_table


def _report(num, name, start, limit):
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.2f}s, limit {limit}s)")
    assert elapsed < limit, f"{name} exceeded the {limit}s budget ({elapsed:.1f}s)"


def test_01_arithmetic_oracle_equivalence():
    start = time.monotonic()
    for params in ((3, 2, 1, 1), (3, 2, 2, 1), (3, 3, 1, 2)):
        G = make_group(*params)
        els = G.elements()
        rank = G.rank
        table = regular_table(G)
        # mul on all pairs: R(g) then R(h) equals R(gh) pointwise
        for gi, g in enumerate(els):
            pg = table[gi]
            for hi, h in enumerate(els):
                if not np.array_equal(table[hi][pg], table[rank(G.mul(g, h))]):
                    raise AssertionError(f"mul mismatch at {g}, {h} in {params}")
        # inv on all elements
        for gi, g in enumerate(els):
            assert np.array_equal(table[rank(G.inv(g))], invert(tuple(table[gi])))
        # pow on all elements, sampled exponents across [-|G|, |G|]
        ks = [-G.order, -7, -1, 0, 1, 2, 3, G.p, G.order // 2, G.order - 1, G.order]
        for gi, g in enumerate(els):
            pg = tuple(table[gi])
            for k in ks:
                assert np.array_equal(table[rank(G.pow(g, k))], perm_power(pg, k))
        # regularity: the two generator permutations generate a group of order |G|
        assert regular_representation(G).order() == G.order
    _report(1, "arithmetic-oracle-equivalence", start, 5)


def test_02_inner_abelian_power_laws():
    start = time.monotonic()
    for params in ((3, 2, 1, 1), (3, 2, 2, 1), (3, 3, 1, 2)):
        G = make_group(*params)
        for g in G.elements():
            j, i = g
            assert G.pow(g, 3) == ((3 * j) % G.mod_j, (3 * i) % G.mod_i)
        assert len(derived_subgroup(G)) == 3
    _report(2, "inner-abelian-power-laws", start, 1)


def test_03_gray_family_reproduction(gray_graph):
    start = time.monotonic()
    assert gray_graph.graph.n == 54
    assert gray_graph.graph.valency() == 3
    assert gray_graph.graph.is_connected()
    aut = aut_group(gray_graph.graph)
    assert aut.order() == 1296
    # independent oracle: full closure enumeration of the generated group
    assert len(enumerate_elements(aut, limit=2000)) == 1296
    rep = classify(gray_graph.graph, aut)
    assert rep.classification == "semisymmetric"
    assert rep.vertex_orbits == 2 and rep.edge_orbits == 1
    assert rep.stabilizer_order == 48
    assert check_stabilizer_law(gray_graph.graph, rep)
    _report(3, "gray-family-reproduction", start, 30)


def test_04_symmetric_family_reproduction(sym162):
    start = time.monotonic()
    assert sym162.graph.n == 162
    rep = classify(sym162.graph)
    assert rep.classification == "arc-transitive"
    H = sym162.group
    a, b = H.gen_a, H.gen_b
    alpha = make_automorphism(
        H, H.mul(H.pow(a, 7), H.pow(b, -3)), H.mul(H.pow(a, 7), H.pow(b, -2))
    )
    beta = make_automorphism(H, H.inv(a), H.mul(H.inv(a), b))
    sig = sigma_map(sym162, alpha, b)
    delt = delta_map(sym162, beta, H.identity, H.identity)
    assert sig.valid and delt.valid
    gens = [
        right_translation(sym162, a),
        right_translation(sym162, b),
        sig.permutation,
        delt.permutation,
    ]
    arc = (sym162.index(H.identity, 0), sym162.index(H.identity, 1))
    orbit = orbit_of_tuple(gens, arc)
    all_arcs = {(u, v) for u, v in sym162.graph.edges} | {
        (v, u) for u, v in sym162.graph.edges
    }
    assert len(orbit) == 486
    assert orbit == frozenset(all_arcs)
    _report(4, "symmetric-family-reproduction", start, 60)


def test_05_generator_image_claims():
    start = time.monotonic()
    for t in (1, 2, 3):
        G = gamma_group(t)
        a, b = G.gen_a, G.gen_b
        rot = check_generator_images(
            G, G.mul(G.pow(a, -2), b), G.mul(G.pow(a, 3**t - 3), b)
        )
        assert rot.ok
        inv_pair = check_generator_images(
            G, G.inv(a), G.mul(G.pow(a, 3**t), G.inv(b))
        )
        swap_pair = check_generator_images(G, G.mul(G.inv(b), a), G.inv(b))
        for failed in (inv_pair, swap_pair):
            assert not failed.ok
            assert failed.violated() == "conjugation relation y^-1 x y = x^(1+p^r)"
            assert 2 * 3**t in failed.forced_a_exponents
        H = sigma_group(t)
        a, b = H.gen_a, H.gen_b
        first = check_generator_images(
            H,
            H.mul(H.pow(a, 2 * 3**t + 1), H.pow(b, -3)),
            H.mul(H.pow(a, 2 * 3**t + 1), H.pow(b, -2)),
        )
        second = check_generator_images(H, H.inv(a), H.mul(H.inv(a), b))
        assert first.ok and second.ok
    _report(5, "generator-image-claims", start, 1)


def test_06_normality_at_desk_scale(gray_graph, sym162):
    start = time.monotonic()
    assert check_normal_bicayley(gray_graph) is False
    assert check_normal_bicayley(sym162) is True
    g2 = gamma_t(2)
    aut2 = aut_group(g2.graph)
    # oracle: the chain order matches full enumeration of the generated group
    assert aut2.order() == len(enumerate_elements(aut2, limit=100_000))
    from bicayley.permgroup import is_normal

    assert is_normal(aut2, right_group(g2)) is True
    _report(6, "normal-bicayley-classification", start, 600)


def test_07_census_classification(census27, census81a, census81b):
    start = time.monotonic()
    et27 = census27.edge_transitive_classes
    assert len(et27) == 1
    assert et27[0].digest == canonical_form(gamma_t(1).graph).decode("ascii")
    et81a = census81a.edge_transitive_classes
    assert len(et81a) == 1
    assert et81a[0].digest == canonical_form(sigma_t(1).graph).decode("ascii")
    assert census81b.edge_transitive_classes == ()
    for result in (census27, census81a, census81b):
        for cls in result.edge_transitive_classes:
            assert check_stabilizer_law(
                BiCayleyGraph(
                    make_group(*result.group_params), (), (), cls.spokes
                ).graph
            )
    total = census27.elapsed_seconds + census81a.elapsed_seconds + census81b.elapsed_seconds
    print(f"  census build time: {total:.1f}s")
    assert total < 1800
    _report(7, "edge-transitive-census", start, 1800)


def test_08_quotient_is_pappus(gray_graph):
    start = time.monotonic()
    G = gray_graph.group
    derived = sorted(derived_subgroup(G))
    assert len(derived) == 3
    gens = [right_translation(gray_graph, h) for h in derived if h != G.identity]
    N = PermGroup(54, gens)
    q, qrep = quotient_graph(gray_graph.graph, N)
    assert q.n == 18 and qrep.is_cubic and qrep.semiregular
    # independent constructions of the Pappus graph: the abelian one-matching
    # family member over Z_3 x Z_3, and the LCF [5,7,-7,7,-7,-5]^3 realization
    assert canonical_form(q) == canonical_form(abelian_family(3, 1).graph)
    lcf = [5, 7, -7, 7, -7, -5]
    edges = [(i, (i + 1) % 18) for i in range(18)]
    edges += [(i, (i + lcf[i % 6]) % 18) for i in range(18)]
    assert canonical_form(q) == canonical_form(Graph(18, edges))
    _report(8, "pappus-quotient", start, 5)


def _random_symmetric_set(G, rng, size):
    out = set()
    while len(out) < size:
        g = G.unrank(rng.randrange(1, G.order))
        out.add(g)
        out.add(G.inv(g))
    return sorted(out)


def _random_automorphism(G, outer, rng):
    """A random inner automorphism, optionally composed with an outer one."""
    from .oracles import compose_maps

    h = G.unrank(rng.randrange(G.order))
    inner = make_automorphism(G, G.conj(G.gen_a, h), G.conj(G.gen_b, h))
    if outer is not None and rng.random() < 0.5:
        return compose_maps(G, inner, outer)
    return inner


def test_09_graph_identity_laws():
    start = time.monotonic()
    from bicayley import apply_group_automorphism, swap_parts

    for params, rotation in (
        ((3, 2, 1, 1), ((1, 1), (1, 0))),  # a^-2 b, a^{3-3} b
        ((3, 2, 2, 1), None),
    ):
        G = make_group(*params)
        outer = make_automorphism(G, *rotation) if rotation else None
        rng = random.Random(sum(params))
        for trial in range(50):
            R = _random_symmetric_set(G, rng, rng.randrange(0, 3))
            L = _random_symmetric_set(G, rng, rng.randrange(0, 3))
            S = [G.unrank(rng.randrange(G.order)) for _ in range(rng.randrange(1, 4))]
            bg = BiCayleyGraph(G, R, L, S)
            base = canonical_form(bg.graph)
            assert canonical_form(swap_parts(bg).graph) == base
            alpha = _random_automorphism(G, outer, rng)
            assert canonical_form(apply_group_automorphism(bg, alpha).graph) == base
    _report(9, "connection-set-identities", start, 60)


def test_10_gray_exception_spot_check(census27):
    start = time.monotonic()
    gray_digest = canonical_form(gamma_t(1).graph).decode("ascii")
    not_vertex_transitive = [
        c
        for c in census27.classes
        if c.report.edge_orbits == 1 and c.report.vertex_orbits > 1
    ]
    assert len(not_vertex_transitive) == 1
    assert not_vertex_transitive[0].digest == gray_digest
    _report(10, "gray-exception-spot-check", start, 1800)
