import itertools

import numpy as np
import pytest

from bicayley import (
    AbelianPairGroup,
    BiCayleyGraph,
    PermGroup,
    apply_group_automorphism,
    canonical_form,
    delta_map,
    identity_map,
    is_connected,
    make_automorphism,
    make_group,
    normalize_S,
    quotient_graph,
    right_group,
    right_translation,
    sigma_map,
    swap_parts,
)
from bicayley.errors import NotAutomorphism, SetConditionError
from bicayley.permgroup import identity as perm_identity

from .oracles import adjacency, chain_group, derived_subgroup, is_transitive_on, regular_representation
from .test_group_kernels import condition_graphs


def rotation_map(G, t):
    x = G.mul(G.pow(G.gen_a, -2), G.gen_b)
    y = G.mul(G.pow(G.gen_a, 3**t - 3), G.gen_b)
    return make_automorphism(G, x, y)


def test_build_family_shapes(gray_graph, sym162):
    assert gray_graph.graph.n == 54
    assert gray_graph.graph.valency() == 3
    assert sym162.graph.n == 162
    assert sym162.graph.valency() == 3


def test_build_matching(group27):
    bg = BiCayleyGraph(group27, (), (), [group27.identity])
    assert bg.graph.n == 54
    assert bg.graph.edge_count == 27
    assert bg.graph.degrees() == (1,) * 54
    assert not is_connected(bg)


def test_build_set_conditions(group27):
    a = group27.gen_a
    with pytest.raises(SetConditionError):
        BiCayleyGraph(group27, [a], (), [group27.identity])  # R not inverse-closed
    with pytest.raises(SetConditionError):
        BiCayleyGraph(group27, [group27.identity], (), [a])  # identity in R
    # inverse-closed R and L are fine, and degrees split |R|+|S| / |L|+|S|
    b = group27.gen_b
    bg = BiCayleyGraph(
        group27, [a, group27.inv(a)], [b, group27.inv(b)], [group27.identity]
    )
    degs = bg.graph.degrees()
    assert set(degs[:27]) == {3} and set(degs[27:]) == {3}


def test_right_translation(gray_graph):
    G = gray_graph.group
    assert np.array_equal(right_translation(gray_graph, G.identity), perm_identity(54))
    from bicayley.permgroup import compose

    pa = right_translation(gray_graph, G.gen_a)
    pb = right_translation(gray_graph, G.gen_b)
    pab = right_translation(gray_graph, G.mul(G.gen_a, G.gen_b))
    assert np.array_equal(compose(pa, pb), pab)
    rh = right_group(gray_graph)
    assert rh.order() == 27
    assert rh.is_semiregular()


def test_sigma_map_valid(gray_graph):
    G = gray_graph.group
    alpha = rotation_map(G, 1)
    res = sigma_map(gray_graph, alpha, G.gen_a)
    assert res.valid
    base = gray_graph.index(G.identity, 0)
    perm = res.permutation
    assert perm[base] == base
    nbrs = adjacency(gray_graph.graph)[base]
    assert all(perm[w] in nbrs and perm[w] != w for w in nbrs)


def test_sigma_map_identity(gray_graph):
    G = gray_graph.group
    res = sigma_map(gray_graph, identity_map(G), G.identity)
    assert res.valid and np.array_equal(res.permutation, perm_identity(54))


def test_sigma_map_invalid_condition_named(gray_graph):
    G = gray_graph.group
    alpha = rotation_map(G, 1)
    res = sigma_map(gray_graph, alpha, G.gen_b)
    assert not res.valid
    assert res.failed_condition == "S^alpha != g^-1 S"


def test_delta_map_symmetric_family(sym162):
    H = sym162.group
    beta = make_automorphism(H, H.inv(H.gen_a), H.mul(H.inv(H.gen_a), H.gen_b))
    res = delta_map(sym162, beta, H.identity, H.identity)
    assert res.valid
    v0 = sym162.index(H.identity, 0)
    v1 = sym162.index(H.identity, 1)
    assert res.permutation[v0] == v1 and res.permutation[v1] == v0


def test_delta_map_rejected_on_gray(gray_graph):
    G = gray_graph.group
    alpha = rotation_map(G, 1)
    res = delta_map(gray_graph, alpha, G.identity, G.identity)
    assert not res.valid
    assert res.failed_condition == "S^alpha != y^-1 S^-1 x"


def test_delta_map_abelian_inversion():
    H = AbelianPairGroup(3, 3)
    x, y = H.gen_a, H.gen_b
    bg = BiCayleyGraph(H, (), (), [H.identity, x, y])
    iota = make_automorphism(H, H.inv(x), H.inv(y))
    res = delta_map(bg, iota, H.identity, H.identity)
    assert res.valid


def test_delta_extension_acts_transitively(sym162):
    # a valid part-swapping map together with R(H) moves every vertex to 0
    H = sym162.group
    beta = make_automorphism(H, H.inv(H.gen_a), H.mul(H.inv(H.gen_a), H.gen_b))
    delt = delta_map(sym162, beta, H.identity, H.identity)
    gens = [
        right_translation(sym162, H.gen_a),
        right_translation(sym162, H.gen_b),
        delt.permutation,
    ]
    group = chain_group(162, gens)
    assert is_transitive_on(group, range(162))


def test_sigma_fixes_parts_delta_swaps_parts(gray_graph, sym162):
    G = gray_graph.group
    alpha = rotation_map(G, 1)
    sig = sigma_map(gray_graph, alpha, G.gen_a)
    half = gray_graph.half
    assert all(sig.permutation[v] < half for v in range(half))
    assert all(sig.permutation[v] >= half for v in range(half, 2 * half))
    H = sym162.group
    beta = make_automorphism(H, H.inv(H.gen_a), H.mul(H.inv(H.gen_a), H.gen_b))
    delt = delta_map(sym162, beta, H.identity, H.identity)
    half = sym162.half
    assert all(delt.permutation[v] >= half for v in range(half))
    assert all(delt.permutation[v] < half for v in range(half, 2 * half))


def test_spoke_stabilizer_maps_rotation_family(gray_graph):
    from bicayley import spoke_stabilizer_maps

    F = spoke_stabilizer_maps(gray_graph)
    assert len(F) == 6  # all six spoke arrangements extend to the group
    base = gray_graph.index(gray_graph.group.identity, 0)
    for _alpha, _g, perm in F:
        assert perm[base] == base
    # the rotation from the explicit construction appears among them
    G = gray_graph.group
    images = {(f.image_a, f.image_b) for f, _, _ in F}
    assert (G.mul(G.pow(G.gen_a, -2), G.gen_b), G.gen_b) in images


def test_normalizer_structure_on_normal_members(sym162):
    # for a normal one-matching graph: |Aut| = |H| * |F| * (2 if part-swap)
    from bicayley import aut_group, gamma_t, spoke_stabilizer_maps

    g2 = gamma_t(2)
    F2 = spoke_stabilizer_maps(g2)
    aut2 = aut_group(g2.graph)
    assert aut2.order() == g2.half * len(F2)  # semisymmetric: no part swap
    explicit = chain_group(
        g2.graph.n,
        [right_translation(g2, g2.group.gen_a), right_translation(g2, g2.group.gen_b)]
        + [perm for _, _, perm in F2],
    )
    assert explicit.order() == aut2.order()

    F1 = spoke_stabilizer_maps(sym162)
    assert aut_group(sym162.graph).order() == sym162.half * len(F1) * 2


def test_normalizer_smaller_on_exceptional_member(gray_graph):
    # the 54-vertex member is the one non-normal case: R(H)<F> is proper in Aut
    from bicayley import aut_group, spoke_stabilizer_maps

    F = spoke_stabilizer_maps(gray_graph)
    assert gray_graph.half * len(F) == 162
    assert aut_group(gray_graph.graph).order() == 1296


def test_abelian_pair_group_arithmetic():
    H = AbelianPairGroup(4, 6)
    assert H.order == 24
    assert H.is_abelian()
    assert H.mul((1, 2), (3, 5)) == (0, 1)
    assert H.pow((1, 2), 5) == (1, 10 % 6)
    assert H.element_order((1, 2)) == 12
    assert regular_representation(H).order() == 24


def test_is_connected(gray_graph, group27):
    assert is_connected(gray_graph)
    a = group27.gen_a
    bg = BiCayleyGraph(group27, (), (), [group27.identity, a, group27.pow(a, 2)])
    assert not is_connected(bg)  # <S> = <a> != H
    assert len(group27.closure([a])) == 9


@pytest.mark.parametrize("params", [(3, 2, 1, 1), (3, 2, 2, 1)])
def test_is_connected_matches_closure(params):
    """The graph's BFS answer is whether <R u L u S> = H, here for every spoke
    set {1, x, y}, and for right and left sets with S = {1}."""
    G = make_group(*params)
    a, b, one = G.gen_a, G.gen_b, G.identity
    cases = [((), (), [one, x, y]) for x, y in itertools.combinations(G.elements()[1:], 2)]
    cases += [([a, G.inv(a)], [a, G.inv(a)], [one]), ([a, G.inv(a)], [b, G.inv(b)], [one])]
    answers = set()
    for R, L, S in cases:
        bg = BiCayleyGraph(G, R, L, S)
        generated = len(G.closure(list(R) + list(L) + S)) == G.order
        assert is_connected(bg) == generated, (R, L, S)
        answers.add(generated)
    assert answers == {False, True}
    assert not is_connected(BiCayleyGraph(G, *cases[-2]))  # <a> != H


def test_swap_parts(gray_graph):
    for bg in [gray_graph] + condition_graphs():
        twice = swap_parts(swap_parts(bg))
        assert (twice.R, twice.L, twice.S) == (bg.R, bg.L, bg.S)
        assert canonical_form(swap_parts(bg).graph) == canonical_form(bg.graph)


def test_apply_group_automorphism(gray_graph):
    alpha = rotation_map(gray_graph.group, 1)
    moved = apply_group_automorphism(gray_graph, alpha)
    assert canonical_form(moved.graph) == canonical_form(gray_graph.graph)


def test_normalize_S(group27):
    # R and L non-empty over a non-abelian group too: R must move to s R s^-1
    G = group27
    a, b = G.gen_a, G.gen_b
    S = [a, G.pow(a, 2), G.mul(a, b)]
    for bg in [BiCayleyGraph(G, (), (), S)] + condition_graphs():
        normed = normalize_S(bg)
        assert bg.group.identity in normed.S
        assert canonical_form(normed.graph) == canonical_form(bg.graph)
        assert normalize_S(normed) is normed


def test_quotient_by_trivial(gray_graph):
    q, rep = quotient_graph(gray_graph.graph, PermGroup(54, [], ()))
    assert q == gray_graph.graph
    assert rep.orbit_count == 54 and rep.semiregular


def test_quotient_by_right_group(gray_graph):
    q, rep = quotient_graph(gray_graph.graph, right_group(gray_graph))
    assert q.n == 2 and q.edges.tolist() == [[0, 1]]
    assert rep.orbit_count == 2


def test_quotient_by_derived(gray_graph):
    G = gray_graph.group
    gens = [
        right_translation(gray_graph, h)
        for h in sorted(derived_subgroup(G))
        if h != G.identity
    ]
    q, rep = quotient_graph(gray_graph.graph, chain_group(54, gens))
    assert q.n == 18 and rep.is_cubic and rep.semiregular


def test_quotient_of_arc_transitive_member_stays_cubic_symmetric(sym162):
    from bicayley import classify

    H = sym162.group
    gens = [
        right_translation(sym162, h)
        for h in sorted(derived_subgroup(H))
        if h != H.identity
    ]
    q, rep = quotient_graph(sym162, chain_group(162, gens))
    assert q.n == 54 and rep.is_cubic and rep.semiregular
    assert classify(q).classification == "arc-transitive"


def test_quotient_rejects_non_automorphism(gray_graph):
    bad = list(range(54))
    bad[0], bad[1] = bad[1], bad[0]
    with pytest.raises(NotAutomorphism):
        quotient_graph(gray_graph.graph, PermGroup(54, [tuple(bad)], [0]))


def test_build_deterministic(group27):
    a, b = group27.gen_a, group27.gen_b
    s = [group27.identity, a, group27.mul(group27.inv(a), b)]
    g1 = BiCayleyGraph(group27, (), (), s)
    g2 = BiCayleyGraph(group27, (), (), list(reversed(s)))
    assert g1.graph == g2.graph
