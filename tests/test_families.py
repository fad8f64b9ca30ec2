import json

import pytest

from bicayley import (
    abelian_family,
    build_family,
    canonical_form,
    classify,
    find_lambda,
    gamma_group,
    gamma_t,
    right_group,
    sigma_group,
    sigma_t,
    symmetry,
)
from bicayley.errors import BudgetError, NoLambdaError, ParameterError, UsageError
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
    assert g1.graph.n == 54 and g1.graph.valency() == 3 and g1.graph.is_connected()
    orbs = right_group(g1).orbits()
    assert sorted(len(o) for o in orbs) == [27, 27]
    g2 = gamma_t(2)
    assert g2.graph.n == 486 and g2.graph.valency() == 3 and g2.graph.is_connected()


def test_sigma_shapes():
    s1 = sigma_t(1)
    assert s1.graph.n == 162 and s1.graph.valency() == 3 and s1.graph.is_connected()
    s2 = sigma_t(2)
    assert s2.graph.n == 1458 and s2.graph.valency() == 3 and s2.graph.is_connected()


def test_family_budget_and_validation():
    with pytest.raises(BudgetError):
        gamma_t(4)
    with pytest.raises(ParameterError):
        gamma_t(0)
    with pytest.raises(ParameterError):
        build_family("nope")
    with pytest.raises(ParameterError):
        build_family("abelian", m=1, n=1)


def test_build_family_dispatch():
    assert build_family("gamma", t=1).graph.n == 54
    assert build_family("sigma", t=1).graph.n == 162
    assert build_family("abelian", m=3, n=1).graph.n == 18


@pytest.mark.parametrize("kind, params, message", [
    pytest.param("nope", {"t": 1}, "unknown family kind 'nope'", id="nope"),
    pytest.param("Gamma", {"t": 1}, "unknown family kind 'Gamma'", id="Gamma"),
    pytest.param("gamma", {}, "gamma/sigma need a positive parameter t", id="gamma"),
    pytest.param("sigma", {"m": 3, "n": 1}, "gamma/sigma need a positive parameter t", id="sigma_m_n"),
    pytest.param("abelian", {}, "abelian family needs m, n with n*m^2 >= 3", id="abelian"),
    pytest.param("abelian", {"m": 3}, "abelian family needs m, n with n*m^2 >= 3", id="abelian_m"),
    pytest.param("abelian", {"n": 3, "t": 1}, "abelian family needs m, n with n*m^2 >= 3", id="abelian_n_t"),
])
def test_build_family_refuses_an_unknown_kind_or_a_missing_parameter(kind, params, message):
    with pytest.raises(ParameterError) as exc:
        build_family(kind, **params)
    assert str(exc.value) == message


INVALID_VALUES = [
    ("gamma", {"t": 0}), ("sigma", {"t": -3}), ("gamma", {"t": 4}), ("sigma", {"t": 4}),
    ("abelian", {"m": 1, "n": 1}), ("abelian", {"m": 0, "n": 5}),
    ("abelian", {"m": 1, "n": 9}),  # no lambda mod 9
    ("abelian", {"m": 1, "n": 10**18}), ("abelian", {"m": -1, "n": 3}),
]


@pytest.mark.parametrize("kind, params", INVALID_VALUES,
                         ids=[f"{kind}_{'_'.join(map(str, p.values()))}" for kind, p in INVALID_VALUES])
def test_build_family_raises_the_builders_own_error(kind, params):
    """An invalid value is the builder's to refuse: build_family raises the
    type and the message that the builder raises on its own."""
    builder = {"gamma": gamma_t, "sigma": sigma_t, "abelian": abelian_family}[kind]
    with pytest.raises(UsageError) as direct:
        builder(**params)
    with pytest.raises(UsageError) as dispatched:
        build_family(kind, **params)
    assert type(dispatched.value) is type(direct.value)
    assert str(dispatched.value) == str(direct.value)


def test_find_lambda():
    assert find_lambda(1) == 0
    assert find_lambda(3) == 2
    assert find_lambda(7) == 3  # 9 - 3 + 1 = 7
    with pytest.raises(NoLambdaError):
        find_lambda(9)


def test_abelian_family_budget(monkeypatch):
    from bicayley import families

    def no_search(n):
        raise AssertionError("find_lambda ran before the size budget")

    monkeypatch.setattr(families, "find_lambda", no_search)
    for m, n in ((1, 10**18), (10**9, 1), (2, 3**12)):
        with pytest.raises(BudgetError):
            abelian_family(m, n)
    with pytest.raises(ParameterError):
        abelian_family(1, 1)


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


_VERIFY_GRID = [("lemma51", t, full, None) for t in (1, 2, 3) for full in (None, False, True)] + [
    ("lemma52", t, full, graph) for t in (1, 2, 3) for full in (None, False, True) for graph in (None, False, True)
]


@pytest.mark.parametrize("target, t, full_aut, graph_checks", _VERIFY_GRID)
def test_verifiers_match_the_former_bodies(target, t, full_aut, graph_checks):
    from .oracles import verify_semisymmetric_family_reference, verify_symmetric_family_reference

    kwargs = {"full_aut": full_aut}
    library, reference = verify_semisymmetric_family, verify_semisymmetric_family_reference
    if target == "lemma52":
        kwargs["graph_checks"] = graph_checks
        library, reference = verify_symmetric_family, verify_symmetric_family_reference
    try:
        expected = json.dumps(reference(t, **kwargs))
    except BudgetError as exc:  # sigma_3 with the full group is over the engine budget
        with pytest.raises(BudgetError) as caught:
            library(t, **kwargs)
        assert (caught.type, str(caught.value)) == (type(exc), str(exc))
        return
    assert json.dumps(library(t, **kwargs)) == expected


def test_verify_default_full_aut_follows_the_engine_budget(monkeypatch):
    monkeypatch.setattr(symmetry, "ENGINE_VERTEX_BUDGET", 1000)
    # gamma_2 (486 vertices) fits the lowered budget, gamma_3 (4374) does not
    assert verify_semisymmetric_family(2)["verified_by_full_aut"] is True
    rep = verify_semisymmetric_family(3)
    assert rep["passed"] and rep["verified_by_full_aut"] is False
    assert rep["classification"] == "semisymmetric (algebraic certificate only)"
    with pytest.raises(BudgetError, match="engine budget 1000"):
        symmetry.aut_group(gamma_t(3).graph)
    with pytest.raises(BudgetError, match="engine budget 1000"):
        verify_semisymmetric_family(3, full_aut=True)
    # sigma_1 (162 vertices) fits, sigma_2 (1458) does not
    assert verify_symmetric_family(1)["verified_by_full_aut"] is True
    assert verify_symmetric_family(2)["verified_by_full_aut"] is False


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


def test_census_budget(monkeypatch):
    from bicayley import census, make_group
    from bicayley.metacyclic import MetacyclicGroup, PairGroup

    def no_kernel(*args):
        raise AssertionError("a kernel ran before the table budget")

    # refused before Aut(H) or any rank kernel is computed
    monkeypatch.setattr(MetacyclicGroup, "automorphism_generators", no_kernel)
    monkeypatch.setattr(PairGroup, "_rank_grid", no_kernel)
    # 5^5 = 3125 and 3^8 = 6561: within the enumeration budget, above TABLE_BUDGET = 2500
    for params in ((5, 3, 2, 2), (3, 4, 4, 3)):
        with pytest.raises(BudgetError, match="table budget 2500"):
            census(make_group(*params))


def _without_elapsed(result, group):
    from bicayley.families import census_to_dict

    doc = census_to_dict(result, group)
    del doc["elapsed_seconds"]
    return doc


# connected_only: the flag the census JSON writes (it lists the connected graphs only)
@pytest.mark.parametrize(
    "params, connected_only",
    [((3, 2, 1, 1), True), ((3, 2, 2, 1), True), ((3, 3, 1, 2), True)],
)
def test_census_matches_per_pair_oracle(params, connected_only):
    from bicayley import census, make_group

    from .oracles import census_by_pairs

    G = make_group(*params)
    fast = _without_elapsed(census(G), G)
    assert fast == _without_elapsed(census_by_pairs(G), G)
    assert fast["connected_only"] is connected_only
    assert fast["pair_count"] == (G.order - 1) * (G.order - 2) // 2


def test_census_order_243_finds_gamma_2():
    # 29161 pairs: one canonical form each was out of reach
    from bicayley import canonical_digest, census, make_group

    res = census(make_group(3, 3, 2, 2))
    et = res.edge_transitive_classes
    assert len(et) == 1
    assert et[0].digest == canonical_digest(gamma_t(2).graph)
    assert et[0].report.classification == "semisymmetric"


# Every valid non-abelian metacyclic group of order <= 3^5 with p in {3, 5}.
CENSUS_GROUPS = [
    (3, 2, 1, 1), (3, 2, 2, 1), (3, 3, 1, 2), (3, 2, 3, 1),
    (3, 3, 2, 1), (3, 3, 2, 2), (3, 4, 1, 3), (5, 2, 1, 1),
]

# SHA-256 of json.dumps(census_to_dict(...)) without elapsed_seconds, computed
# with the per-Aut(H)-orbit census that preceded the pair-orbit one; keyed by
# the group and the connected_only flag that JSON writes.
CENSUS_PINS = {
    ((3, 2, 1, 1), True): "1dec23bdc057e5a757235e5c5c8ab0fd579ba1ca6827276830143eb21b0a4bb4",
    ((3, 2, 2, 1), True): "9d2be82fd37f063fc56dedaf9d5b265b3cad8202848b00b550c7aaa2f0e88031",
    ((3, 3, 1, 2), True): "41726afad35f765bb40a69c44f9181e022c23e469c303f5bca25be7e1f718d30",
    ((3, 2, 3, 1), True): "45d9c598bbd970e98370a874cacb1f863a3aab3a2762a32df6a66ff3be3da8cf",
    ((3, 3, 2, 1), True): "a49fe028f7fb4237f673edafab34667e799df69685bccbe07890c7a830d889e5",
    ((3, 3, 2, 2), True): "f7cc603e17fe7cf62a1dd63f7c9de5488f92b2a93dbb81bccb17e799546ef112",
    ((3, 4, 1, 3), True): "b7bdb415c0f3eb18b26056c21eaa4d6c9ab32754feb62039a790e3767e462a8f",
    ((5, 2, 1, 1), True): "01247f975ad5d480fff78e7e65013e0554c102281f5f86fdeba142eecf575fc2",
}


# Ids keep each pin's position in the table from when it also pinned the
# disconnected census, so a pin's test name is the same across history.
CENSUS_PIN_IDS = [f"params{i}-True" for i in (1, 3, 4, 6, 7, 8, 9, 10)]


@pytest.mark.parametrize("params, connected_only", sorted(CENSUS_PINS), ids=CENSUS_PIN_IDS)
def test_census_json_pins(params, connected_only):
    import hashlib
    import json

    from bicayley import census, make_group

    G = make_group(*params)
    doc = _without_elapsed(census(G), G)
    assert doc["connected_only"] is connected_only
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == CENSUS_PINS[params, connected_only]


@pytest.mark.parametrize("params", CENSUS_GROUPS)
def test_census_moves(params):
    import numpy as np

    from bicayley import make_group
    from bicayley.families import _pair_moves

    from .oracles import apply_map, automorphisms

    G = make_group(*params)
    n = G.order
    aut = G.automorphism_group()
    gens = aut.generators
    assert aut.order() == len(automorphisms(G))
    els = G.elements()
    x, y = np.divmod(np.arange(n * n), n)
    proper = (x > 0) & (y > 0) & (x != y)
    generating = np.array([G.generates(u, v) for u in els for v in els]) & proper
    moves = _pair_moves(G)
    assert len(moves) == len(gens) + 3
    for move in moves:
        assert np.array_equal(np.sort(move), np.arange(n * n))  # a bijection of H x H
        assert np.array_equal(proper[move], proper)
        assert np.array_equal(generating[move], generating)
    if n > 125:  # the scalar images below take |H|^2 products
        return
    # the exact image of every pair (x, y), from scalar inv, mul and apply_map
    rank, inv = G.rank, G.inv
    images = [[(apply_map(G, f, u), apply_map(G, f, v)) for u in els for v in els] for f in G.automorphism_generators()]
    images.append([(v, u) for u in els for v in els])
    images.append([(inv(u), inv(v)) for u in els for v in els])
    images.append([(inv(u), G.mul(v, inv(u))) for u in els for v in els])
    for move, image in zip(moves, images, strict=True):
        assert move.tolist() == [rank(u) * n + rank(v) for u, v in image]


@pytest.mark.parametrize("params", [p for p in CENSUS_GROUPS if p[0] ** (p[1] + p[2]) == 3**5])
def test_census_reports_match_fresh_classification(params):
    # the per-pair oracle is too slow at order 243
    from bicayley import BiCayleyGraph, census, make_group

    G = make_group(*params)
    for cls in census(G).classes:
        bg = BiCayleyGraph(G, (), (), cls.spokes)
        assert cls.report == classify(bg.graph)
        assert cls.digest == canonical_form(bg.graph).decode("ascii")


def test_census_searches_once_per_orbit(monkeypatch):
    from bicayley import census, make_group
    from bicayley.symmetry import _Search

    calls = {"auto": 0, "canon": 0}
    run_auto, run_canon = _Search.run_auto, _Search.run_canon

    def count(name, run):
        def wrapped(self):
            calls[name] += 1
            return run(self)
        return wrapped

    monkeypatch.setattr(_Search, "run_auto", count("auto", run_auto))
    monkeypatch.setattr(_Search, "run_canon", count("canon", run_canon))
    # the three inner-abelian groups of order <= 81: 2 + 2 + 3 generating orbits
    for params in [(3, 2, 1, 1), (3, 2, 2, 1), (3, 3, 1, 2)]:
        census(make_group(*params))
    assert calls == {"auto": 0, "canon": 7}


@pytest.mark.slow
@pytest.mark.parametrize("params, classes, pairs", [
    ((11, 2, 1, 1), 15, 798_600),  # about 1 s and 210 MB peak RSS
    ((13, 2, 1, 1), 20, 2_214_576),  # about 4 s and 520 MB peak RSS
])
def test_census_finds_no_edge_transitive_class_at_p_11_and_13(params, classes, pairs):
    """The abstract's "p = 3 only" on two more primes: the inner-abelian
    groups of order 11^3 and 13^3 have no edge-transitive class."""
    from bicayley import census, make_group

    result = census(make_group(*params))
    assert (len(result.classes), result.generating_pair_count) == (classes, pairs)
    assert result.edge_transitive_classes == ()


# SHA-256 of json.dumps(census_to_dict(...)) without elapsed_seconds for every
# group of order 3^7 and 7^4 in budget, computed with the census whose scan for
# Aut(H)'s generators grew the orbit of (a, b) over all |H|^2 packed pairs;
# (class count, generating pairs) beside each.  Each census takes 3-8 s and
# up to 660 MB peak RSS.
LARGE_CENSUS_PINS = {
    (3, 2, 5, 1): (19, 1_417_176, "6221ae8299f8776db306f760e854a2923cffb2186de7a8ad84b1b06028dd7024"),
    (3, 3, 4, 1): (21, 1_417_176, "14b620bb885f4c7580946ac12c93b1e08517d6e36c81714c41548570df0c3678"),
    (3, 3, 4, 2): (3, 1_417_176, "a8b56653b58d936eb7871b0306117d72ff36c89317b386ef9fb0e51350d5ac0e"),
    (3, 4, 3, 1): (63, 1_417_176, "52df4876d3106dfa2c54ede42ae1c795e86ae655a181b48f5d5984e16970d154"),
    (3, 4, 3, 2): (9, 1_417_176, "55af5422dfcadb57a7cfa4b910a9d1830802c1b059446339d187442d01f1d1ca"),
    (3, 4, 3, 3): (2, 1_417_176, "7bb22a2b0b7964e06fedc1f108b19eb9cec5e5796045e32a0cde7778bf6c1328"),
    (3, 5, 2, 3): (21, 1_417_176, "92b3b9e1680539e05ceef5280eceeb5d25e975cf59ef5fd4bfab3be11131fae4"),
    (3, 5, 2, 4): (7, 1_417_176, "aff4f0072aa65572b1500b03c3a9b48c5550374fc9abbaa0efcf1cc76d15c868"),
    (3, 6, 1, 5): (55, 1_417_176, "d10559d45a26441527853089cf1961084bd6617f80d86aab9e07b83b810de074"),
    (7, 2, 2, 1): (7, 2_420_208, "0ace19a6fb2b3a63e1976de66cddf22ea7164f5d98300f946e0eb2f718b0e391"),
    (7, 3, 1, 2): (31, 2_420_208, "1f131ea9967da101c8e99bf7a1a357a3eb17cac117d92cd3ed7d4951b5f943b0"),
}


@pytest.mark.slow
@pytest.mark.parametrize("params", sorted(LARGE_CENSUS_PINS), ids=lambda p: "_".join(map(str, p)))
def test_census_json_pins_at_order_3_7_and_7_4(params):
    """Only (3, 4, 3, 3) has an edge-transitive class: gamma_3, semisymmetric."""
    import hashlib

    from bicayley import canonical_digest, census, make_group

    G = make_group(*params)
    result = census(G)
    doc = _without_elapsed(result, G)
    classes, pairs, digest = LARGE_CENSUS_PINS[params]
    assert (len(result.classes), result.generating_pair_count) == (classes, pairs)
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest
    reports = [c.report for c in result.edge_transitive_classes]
    if params == (3, 4, 3, 3):
        assert [(r.classification, r.aut_order) for r in reports] == [("semisymmetric", 13122)]
        assert result.edge_transitive_classes[0].digest == canonical_digest(gamma_t(3).graph)
    else:
        assert reports == []
