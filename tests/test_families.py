import pytest

from bicayley import (
    FamilySpec,
    abelian_family,
    build_family,
    canonical_form,
    classify,
    find_lambda,
    gamma_group,
    gamma_t,
    is_connected,
    right_group,
    sigma_group,
    sigma_t,
)
from bicayley.errors import BudgetError, NoLambdaError, ParameterError
from bicayley.families import verify_semisymmetric_family, verify_symmetric_family
from bicayley.graphs import Graph


def test_family_groups():
    assert gamma_group(1).params() == (3, 2, 1, 1)
    assert gamma_group(2).params() == (3, 3, 2, 2)
    assert sigma_group(1).params() == (3, 2, 2, 1)
    for t in (1, 2, 3):
        assert gamma_group(t).is_inner_abelian()
        assert sigma_group(t).is_inner_abelian()


def test_gamma_shapes():
    g1 = gamma_t(1)
    assert g1.graph.n == 54 and g1.graph.valency() == 3 and is_connected(g1)
    orbs = right_group(g1).orbits()
    assert sorted(len(o) for o in orbs) == [27, 27]
    g2 = gamma_t(2)
    assert g2.graph.n == 486 and g2.graph.valency() == 3 and g2.graph.is_connected()


def test_sigma_shapes():
    s1 = sigma_t(1)
    assert s1.graph.n == 162 and s1.graph.valency() == 3 and is_connected(s1)
    s2 = sigma_t(2)
    assert s2.graph.n == 1458 and s2.graph.valency() == 3 and s2.graph.is_connected()


def test_family_budget_and_validation():
    with pytest.raises(BudgetError):
        gamma_t(4)
    with pytest.raises(ParameterError):
        gamma_t(0)
    with pytest.raises(ParameterError):
        FamilySpec(kind="nope")
    with pytest.raises(ParameterError):
        FamilySpec(kind="abelian", m=1, n=1)


def test_build_family_dispatch():
    assert build_family(FamilySpec(kind="gamma", t=1)).graph.n == 54
    assert build_family(FamilySpec(kind="sigma", t=1)).graph.n == 162
    assert build_family(FamilySpec(kind="abelian", m=3, n=1)).graph.n == 18


def test_find_lambda():
    assert find_lambda(1) == 0
    assert find_lambda(3) == 2
    assert find_lambda(7) == 3  # 9 - 3 + 1 = 7
    with pytest.raises(NoLambdaError):
        find_lambda(9)


def test_abelian_family_k33():
    # m = 1, n = 3: H = Z_3, spokes {1, x, x^2}: the complete bipartite K_{3,3}
    bg = abelian_family(1, 3)
    k33 = Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    assert canonical_form(bg.graph) == canonical_form(k33)


def test_abelian_family_pappus():
    bg = abelian_family(3, 1)
    assert bg.graph.n == 18 and bg.graph.valency() == 3
    rep = classify(bg.graph)
    assert rep.classification == "arc-transitive"
    assert rep.aut_order == 216
    # Pappus graph via its LCF notation [5,7,-7,7,-7,-5]^3
    lcf = [5, 7, -7, 7, -7, -5]
    edges = [(i, (i + 1) % 18) for i in range(18)]
    edges += [(i, (i + lcf[i % 6]) % 18) for i in range(18)]
    assert canonical_form(bg.graph) == canonical_form(Graph(18, edges))


def test_verify_semisymmetric_reports():
    for t in (1, 2, 3):
        full = t <= 1
        rep = verify_semisymmetric_family(t, full_aut=full)
        assert rep["passed"], rep
        assert rep["rotation_images"]["is_automorphism"]
        for key in ("inversion_images_rejected", "swap_images_rejected"):
            claim = rep[key]
            assert not claim["is_automorphism"]
            assert claim["violated"].startswith("conjugation")
            assert f"a^{2 * 3 ** t} = 1" in claim["forces"]
        assert rep["spoke_rotation"]["three_cycles_neighbors"]
        assert rep["verified_by_full_aut"] == full


def test_verify_semisymmetric_default_full_aut_at_t2():
    # the default contract computes the full automorphism group up to t = 2
    rep = verify_semisymmetric_family(2)
    assert rep["verified_by_full_aut"] is True
    assert rep["classification"] == "semisymmetric"
    assert rep["symmetry"]["vertex_orbits"] == 2
    assert rep["passed"]


def test_verify_semisymmetric_t2_images():
    rep = verify_semisymmetric_family(2, full_aut=False)
    G = gamma_group(2)
    # the rotation automorphism sends b to a^(3^2-3) b = a^6 b
    assert rep["rotation_images"]["image_b"] == G.element_str(
        G.mul(G.pow(G.gen_a, 6), G.gen_b)
    )


def test_verify_symmetric_reports():
    rep1 = verify_symmetric_family(1)
    assert rep1["passed"], rep1
    assert rep1["arc_orbit_size"] == 486 == rep1["arc_count"]
    assert rep1["part_swap"]["swaps_identity_vertices"]
    rep2 = verify_symmetric_family(2, full_aut=False)
    assert rep2["passed"] and rep2["arc_orbit_size"] == rep2["arc_count"]
    rep3 = verify_symmetric_family(3, graph_checks=False)
    assert rep3["passed"]
    assert rep3["rotation_images"]["is_automorphism"]
    assert rep3["inversion_images"]["is_automorphism"]


def test_census_small(census27):
    res = census27
    assert res.pair_count == 325
    assert res.generating_pair_count == 216
    et = res.edge_transitive_classes
    assert len(et) == 1
    assert et[0].report.classification == "semisymmetric"


def test_census_deterministic(group27, census27):
    from bicayley import census

    again = census(group27)
    assert [c.digest for c in again.classes] == [c.digest for c in census27.classes]
    assert [c.spokes for c in again.classes] == [c.spokes for c in census27.classes]


def test_census_includes_disconnected(group27, census27):
    from bicayley import census

    full = census(group27, connected_only=False)
    assert full.generating_pair_count == full.pair_count == 325
    assert len(full.classes) > len(census27.classes)


def test_census_budget():
    from bicayley import census, make_group

    with pytest.raises(BudgetError):
        census(make_group(3, 4, 2, 3))  # order 3^6 > 3^5


def _without_elapsed(result, group):
    from bicayley.families import census_to_dict

    doc = census_to_dict(result, group)
    del doc["elapsed_seconds"]
    return doc


@pytest.mark.parametrize(
    "params, connected_only",
    [((3, 2, 1, 1), True), ((3, 2, 2, 1), True), ((3, 3, 1, 2), True), ((3, 2, 1, 1), False)],
)
def test_census_matches_per_pair_oracle(params, connected_only):
    from bicayley import census, make_group

    from .oracles import census_by_pairs

    G = make_group(*params)
    fast = _without_elapsed(census(G, connected_only=connected_only), G)
    assert fast == _without_elapsed(census_by_pairs(G, connected_only=connected_only), G)
    assert fast["pair_count"] == (G.order - 1) * (G.order - 2) // 2


def test_census_order_243_finds_gamma_2():
    # 29161 pairs: one canonical form each was out of reach
    from bicayley import canonical_digest, census, make_group

    res = census(make_group(3, 3, 2, 2))
    et = res.edge_transitive_classes
    assert len(et) == 1
    assert et[0].digest == canonical_digest(gamma_t(2).graph)
    assert et[0].report.classification == "semisymmetric"
