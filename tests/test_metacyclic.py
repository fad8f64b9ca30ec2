import random
import time

import numpy as np
import pytest

from bicayley import (
    AbelianPairGroup,
    GroupMap,
    check_generator_images,
    identity_map,
    make_automorphism,
    make_group,
)
from bicayley.errors import BudgetError, InvalidMapError, ParameterError
from bicayley.metacyclic import TABLE_BUDGET, PairGroup

from .oracles import (
    apply_map,
    automorphism_pairs,
    automorphisms,
    automorphisms_by_images,
    chain_group,
    check_regular_action_exhaustive,
    compose_maps,
    cycle_type,
    derived_by_all_commutators,
    derived_subgroup,
    frattini_by_closure,
    frattini_by_maximal_intersection,
    is_inner_abelian_by_closure,
    map_order,
    maximal_subgroups,
    order_by_iteration,
    power_by_iteration,
    regular_representation,
    regular_table,
    subgroup_by_table,
    subgroup_is_abelian,
)


def test_make_group_orders():
    assert make_group(3, 2, 1, 1).order == 27
    assert make_group(3, 2, 2, 1).order == 81
    assert make_group(3, 3, 1, 2).order == 81


def test_make_group_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        make_group(3, 1, 1, 1)  # violates r < m
    with pytest.raises(ParameterError):
        make_group(3, 3, 1, 1)  # violates m <= n + r
    with pytest.raises(ParameterError):
        make_group(2, 2, 1, 1)  # even prime
    with pytest.raises(ParameterError):
        make_group(9, 2, 1, 1)  # not prime
    with pytest.raises(ParameterError):
        make_group(3, 2, 0, 1)


def test_make_group_word_budget():
    with pytest.raises(OverflowError):
        make_group(3, 50, 1, 49)  # 3^50 > 2^63
    # refused before a big power or trial division on p: each took seconds
    for params in (
        (10**24 + 7, 2, 1, 1),  # p itself above the word budget
        (3, 3, 30_000_000, 2),  # 3^30000000 is never formed
        (9223372036854775783, 2, 1, 1),  # a prime below 2^63, so p^2 above it
    ):
        with pytest.raises(OverflowError):
            make_group(*params)


def test_large_prime_within_word_budget():
    # p^2 < 2^63 bounds trial division on p; the order p^3 is never factored
    p = 2147483647  # 2^31 - 1, prime
    G = make_group(p, 2, 1, 1)
    assert G.order == p**3
    assert G.element_order(G.gen_a) == p**2 and G.element_order(G.gen_b) == p
    with pytest.raises(ParameterError):
        make_group(2147483649, 2, 1, 1)  # 3 * 715827883


def test_mul_frozen_examples(group27):
    G = group27
    assert G.mul((0, 1), (1, 0)) == (1, 4)  # a*b = b*a^4
    assert G.mul((1, 1), (2, 2)) == (0, 0)
    for g in G.elements():
        assert G.mul(G.identity, g) == g
        assert G.mul(g, G.identity) == g


def test_commutation_law_exhaustive():
    # a^i b^j = b^j a^(i * (1+p^r)^j) on the two smallest groups
    for G in (make_group(3, 2, 1, 1), make_group(3, 2, 2, 1)):
        a, b = G.gen_a, G.gen_b
        for i in range(G.mod_i):
            for j in range(G.mod_j):
                lhs = G.mul(G.pow(a, i), G.pow(b, j))
                rhs = G.mul(G.pow(b, j), G.pow(a, i * G.twist_pow(j)))
                assert lhs == rhs


def test_pow_frozen_examples(group27):
    G = group27
    assert G.pow((1, 1), 2) == (2, 5)
    assert G.pow((1, 1), 3) == (0, 3)
    for g in G.elements():
        assert G.pow(g, 0) == G.identity


def test_pow_matches_iterated_mul(group27):
    G = group27
    ks = [-7, -1, 0, 1, 2, 3, 5, 9, 26, 27, 28, 80, 243]
    for g in G.elements():
        for k in ks:
            assert G.pow(g, k) == power_by_iteration(G, g, k)


def test_inv_frozen_examples(group27):
    G = group27
    assert G.inv((0, 1)) == (0, 8)
    assert G.inv((1, 0)) == (2, 0)
    assert G.inv((1, 1)) == (2, 2)
    assert G.mul((1, 1), (2, 2)) == G.identity
    for g in G.elements():
        assert G.mul(g, G.inv(g)) == G.identity
        assert G.mul(G.inv(g), g) == G.identity


def test_commutator_and_conj(group27):
    G = group27
    a, b = G.gen_a, G.gen_b
    assert G.commutator(a, b) == (0, 3)  # [a, b] = a^3
    assert G.conj(a, b) == (0, 4)  # b^-1 a b = a^4
    for g in G.elements():
        assert G.commutator(g, g) == G.identity


def test_element_order(group27):
    G = group27
    assert G.element_order(G.gen_a) == 9
    assert G.element_order(G.identity) == 1
    assert G.element_order((1, 1)) == 9
    for g in G.elements():
        assert G.element_order(g) == order_by_iteration(G, g)


def test_closure_sizes(group27):
    G = group27
    a, b = G.gen_a, G.gen_b
    assert len(G.closure([a])) == 9
    assert len(G.closure([a, b])) == 27
    assert G.closure([G.pow(a, 3)]) == derived_subgroup(G)


def test_closure_budget():
    G = make_group(3, 13, 1, 12)  # order 3^14 > 3^12
    with pytest.raises(BudgetError):
        G.closure([G.gen_a, G.gen_b])
    with pytest.raises(BudgetError):
        G.elements()


def test_derived_subgroup(group27):
    G = group27
    derived = derived_subgroup(G)
    assert derived == frozenset({(0, 0), (0, 3), (0, 6)})
    assert derived == derived_by_all_commutators(G)


def test_derived_subgroup_abelian_guard():
    G = AbelianPairGroup(3, 9)
    assert derived_subgroup(G) == frozenset({G.identity})


def test_frattini(group27, group81a):
    assert len(frattini_by_closure(group81a)) == 9
    for G in (group27, group81a):
        assert frattini_by_closure(G) == frattini_by_maximal_intersection(G)


def test_generates_matches_closure(group27, group81a, group81b):
    # Burnside basis test against the explicit subgroup on every pair
    for G in (group27, group81a, group81b):
        els = G.elements()
        for x in els:
            for y in els:
                assert G.generates(x, y) == (len(G.closure([x, y])) == G.order)


@pytest.mark.parametrize("moduli", [(1, 7), (7, 1), (5, 5), (5, 65), (65, 5), (3, 9), (9, 3), (4, 12), (12, 4)])
def test_abelian_generates_matches_closure(moduli):
    """The Frattini-quotient test against the explicit subgroup on every pair
    (x, y).  Z_65 x Z_5 has 325^2 pairs, so closure runs once per coset of
    <x> that y lies in: <x, y> = <x, y x^k> for every k."""
    G = AbelianPairGroup(*moduli)
    els = G.elements()
    for x in els:
        cyclic = sorted(G.rank(g) for g in G.closure([x]))
        # coset[r]: the least rank in the coset of <x> holding the element of rank r
        coset = np.min([G.right_mul_ranks(G.unrank(c)) for c in cyclic], axis=0)
        whole = {int(r): len(G.closure([x, G.unrank(int(r))])) == G.order for r in np.unique(coset)}
        for y, r in zip(els, coset.tolist()):
            assert G.generates(x, y) == whole[r], (moduli, x, y)


@pytest.mark.parametrize("args", [(9, 7, 2, 3), (6, 7, 2, 6)])
def test_pair_group_generates_matches_a_subgroup_oracle(args):
    """The closure test of plain PairGroups (non-abelian, twist 2 of order 3
    mod 7) against the subgroup grown by squaring under the full table, on
    every pair."""
    G = PairGroup(*args)
    table, els = regular_table(G), G.elements()
    whole = frozenset(range(G.order))
    generating = 0
    for x in els:
        for y in els:
            expect = subgroup_by_table(table, [G.rank(x), G.rank(y)]) == whole
            assert G.generates(x, y) == expect, (args, x, y)
            generating += expect
    assert 0 < generating < G.order**2


def test_pair_group_refuses_inconsistent_parameters():
    for args in ((2**63, 5, 1, 1), (5, 2**63, 1, 1)):
        with pytest.raises(OverflowError, match="machine word budget"):
            PairGroup(*args)
    with pytest.raises(ParameterError, match="twist multiplier order"):
        PairGroup(9, 7, 3, 3)  # 3 has order 6 mod 7
    with pytest.raises(ParameterError, match="must divide the b-exponent modulus"):
        PairGroup(8, 7, 2, 3)  # 2 has order 3 mod 7, which does not divide 8
    assert PairGroup(9, 7, 2, 3).order == 63


def test_relation_report_names_no_violation_for_the_generators(group27, group81b):
    for G in (group27, group81b):
        report = check_generator_images(G, G.gen_a, G.gen_b)
        assert report.ok and report.violated() is None
    report = check_generator_images(group27, group27.gen_a, group27.gen_a)
    assert not report.ok and report.violated() is not None


def test_factoring_is_bounded_in_time():
    # the moduli are factored apart: two primes near 2^20 factor, their
    # product (past 2^32) would not
    for moduli in ((2**40, 3**25), (1048583, 1048573)):
        G = AbelianPairGroup(*moduli)
        assert G.generates((1, 0), (0, 1)) and not G.generates((1, 0), (2, 0))
        assert G.element_order((1, 1)) == G.order
    # a prime modulus past 2^32 is refused, not divided by every d below its root
    for moduli in ((3, 2**61 - 1), (2**61 - 1, 2**61 - 1)):
        G = AbelianPairGroup(*moduli)
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="past 2\\^16"):
            G.generates((1, 0), (0, 1))
        with pytest.raises(BudgetError, match="past 2\\^16"):
            G.element_order((1, 1))
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "params, count",
    [((3, 2, 1, 1), 54), ((3, 2, 2, 1), 486), ((3, 3, 1, 2), 162), ((5, 2, 1, 1), 500)],
)
def test_automorphisms_match_all_generator_images(params, count):
    G = make_group(*params)
    pairs = automorphism_pairs(G)
    assert len(pairs) == count
    images = [(G.unrank(k // G.order), G.unrank(k % G.order)) for k in pairs.tolist()]
    assert images == automorphisms_by_images(G)
    assert [(f.image_a, f.image_b) for f in automorphisms(G)] == images
    els = G.elements()
    for x, y in images:
        f = GroupMap(x, y, validated=True)
        assert sorted(apply_map(G, f, g) for g in els) == list(els)


# every valid (p, m, n, r) within the Cayley table budget: p^3 <= 2500 leaves p <= 13
TABLE_GROUPS = [
    (p, m, n, r)
    for p in (3, 5, 7, 11, 13)
    for m in range(2, 8)
    for n in range(1, 8)
    for r in range(1, m)
    if m <= n + r and p ** (m + n) <= TABLE_BUDGET
]


@pytest.mark.parametrize("params", [q for q in TABLE_GROUPS if q[0] <= 7])
def test_generates_is_burnside_on_split_groups(params):
    """On a split metacyclic p-group the Frattini test is Burnside's: x and
    y generate exactly when their exponent pairs (j, i) are independent mod
    p; a few sampled pairs are also checked against the closure."""
    G = make_group(*params)
    rng = random.Random(str(params))
    els = G.elements()
    for k in range(300):
        x, y = rng.choice(els), rng.choice(els)
        assert G.generates(x, y) == ((x[0] * y[1] - x[1] * y[0]) % G.p != 0), (params, x, y)
        if k < 4:
            assert G.generates(x, y) == (len(G.closure([x, y])) == G.order), (params, x, y)


@pytest.mark.parametrize("params", TABLE_GROUPS)
def test_automorphism_generators_generate_aut(params):
    """The maps generate Aut(H), and their rows are strong for the base
    (a, b): the order read off that base equals both the number of image
    pairs the Cayley-table oracle finds and the order of the generic
    Schreier-Sims chain on the same rows."""
    G = make_group(*params)
    maps = G.automorphism_generators()
    assert all(f.validated for f in maps)
    assert len(maps) == (3 if G.m == G.n + G.r else 4)
    aut = G.automorphism_group()
    assert aut.order() == len(automorphism_pairs(G)) == chain_group(G.order, aut.generators).order()


@pytest.mark.parametrize(
    "params, order",
    [
        ((3, 4, 3, 3), 354_294),
        pytest.param((3, 4, 4, 3), 3_188_646, marks=pytest.mark.slow),  # the chain: ~0.6 s, ~200 MB
    ],
    ids=["3^7", "3^8"],
)
def test_automorphism_group_past_the_table(params, order):
    # above TABLE_BUDGET, where the Cayley-table oracle does not reach
    G = make_group(*params)
    aut = G.automorphism_group()
    assert aut.order() == chain_group(G.order, aut.generators).order() == order


def test_automorphism_group_budget(monkeypatch):
    def no_rows(*args):
        raise AssertionError("a row was built before the degree budget")

    monkeypatch.setattr(PairGroup, "map_ranks", no_rows)
    # 7^6 = 117649: within the enumeration budget, above DEGREE_BUDGET = 100000
    with pytest.raises(BudgetError, match="budget 100000"):
        make_group(7, 3, 3, 2).automorphism_group()


def test_automorphism_generators_at_a_large_prime():
    # p = 2^31 - 1: the primitive root is tested against the primes of
    # p (p - 1) with no listing of the group; m = n + r drops the fourth map
    G = make_group(2**31 - 1, 2, 1, 1)
    start = time.perf_counter()
    maps = G.automorphism_generators()
    assert time.perf_counter() - start < 1.0
    assert len(maps) == 3 and all(check_generator_images(G, f.image_a, f.image_b).ok for f in maps)


def test_is_inner_abelian(group27, group81a):
    assert group27.is_inner_abelian()
    assert group81a.is_inner_abelian()
    big = make_group(3, 3, 2, 1)  # r != m-1
    assert not big.is_inner_abelian()
    # oracle: exhaustive abelianness of every maximal subgroup
    flags = [subgroup_is_abelian(big, s) for _, s in maximal_subgroups(big)]
    assert not all(flags)
    assert all(subgroup_is_abelian(group27, s) for _, s in maximal_subgroups(group27))


def test_inner_abelian_closed_form_matches_closure_oracle():
    """r = m - 1 against the maximal subgroups, on every group with p in
    {3, 5, 7} and p^(m+n) within the Cayley table budget."""
    params = [
        (p, m, n, r)
        for p in (3, 5, 7)
        for m in range(2, 8)
        for n in range(1, 8)
        for r in range(1, m)
        if p ** (m + n) <= TABLE_BUDGET and m <= n + r
    ]
    assert len(params) == 28
    flags = []
    for p, m, n, r in params:
        G = make_group(p, m, n, r)
        flags.append(G.is_inner_abelian())
        assert flags[-1] == is_inner_abelian_by_closure(G), (p, m, n, r)
    assert 0 < sum(flags) < len(flags)


def test_inner_abelian_power_law(group27, group81a, group81b):
    # in inner-abelian groups: (1+p^r)^k = 1 + k p^r mod p^m, and g^p = (pj, pi)
    for G in (group27, group81a, group81b):
        p, m, r = G.p, G.m, G.r
        assert r == m - 1
        for k in range(G.mod_j):
            assert G.twist_pow(k) == (1 + k * p**r) % G.mod_i
        for g in G.elements():
            j, i = g
            assert G.pow(g, p) == ((p * j) % G.mod_j, (p * i) % G.mod_i)
        assert len(derived_subgroup(G)) == p


def test_regular_representation(group27):
    G = group27
    reg = regular_representation(G)
    assert reg.degree == 27
    assert reg.order() == 27
    assert check_regular_action_exhaustive(G)
    perm_a = reg.generators[0]
    assert cycle_type(perm_a) == (9, 9, 9)


# -- generator-image maps ------------------------------------------------------


def _claim_images(G, t):
    a, b = G.gen_a, G.gen_b
    x = G.mul(G.pow(a, -2), b)
    y = G.mul(G.pow(a, 3**t - 3), b)
    return x, y


def test_automorphism_pair_accepts_rotation(group27):
    G = group27
    x, y = _claim_images(G, 1)
    assert y == (1, 0)  # a^{3^1-3} b = b
    assert check_generator_images(G, x, y).ok


def test_automorphism_pair_rejects_inversion(group27):
    G = group27
    a, b = G.gen_a, G.gen_b
    x = G.inv(a)
    y = G.mul(G.pow(a, 3), G.inv(b))
    assert x == (0, 8) and y == (2, 3)
    rep = check_generator_images(G, x, y)
    assert not rep.ok
    assert not rep.conjugation_ok
    assert 2 * 3 in rep.forced_a_exponents  # forces a^(2*3^t) = 1 at t = 1


def test_automorphism_pair_rejects_swap(group27):
    G = group27
    a, b = G.gen_a, G.gen_b
    x = G.mul(G.inv(b), a)
    y = G.inv(b)
    assert x == (2, 1) and y == (2, 0)
    rep = check_generator_images(G, x, y)
    assert not rep.ok and not rep.conjugation_ok
    assert 6 in rep.forced_a_exponents


def test_apply_map(group27):
    G = group27
    a = G.gen_a
    x, y = _claim_images(G, 1)
    f = make_automorphism(G, x, y)
    assert apply_map(G, f, G.identity) == G.identity
    assert apply_map(G, f, a) == x
    aib = G.mul(G.inv(a), G.gen_b)
    assert apply_map(G, f, aib) == G.inv(a)


def test_apply_map_preserves_mul_exhaustive(group27):
    G = group27
    x, y = _claim_images(G, 1)
    f = make_automorphism(G, x, y)
    els = G.elements()
    img = {g: apply_map(G, f, g) for g in els}
    for g in els:
        for h in els:
            assert img[G.mul(g, h)] == G.mul(img[g], img[h])
    assert len(set(img.values())) == G.order


def test_unvalidated_map_rejected(group27):
    G = group27
    f = GroupMap(G.gen_a, G.gen_b, validated=False)
    with pytest.raises(InvalidMapError):
        apply_map(G, f, G.gen_a)
    with pytest.raises(InvalidMapError):
        make_automorphism(G, G.gen_a, G.gen_a)  # images do not generate


def test_compose_and_map_order(group27):
    G = group27
    x, y = _claim_images(G, 1)
    f = make_automorphism(G, x, y)
    ident = identity_map(G)
    assert compose_maps(G, f, ident) == f
    assert map_order(G, ident) == 1
    assert map_order(G, f) == 3
    # oracle: iterate images until both generators are fixed
    cur_a, cur_b = G.gen_a, G.gen_b
    k = 0
    while True:
        cur_a, cur_b = apply_map(G, f, cur_a), apply_map(G, f, cur_b)
        k += 1
        if (cur_a, cur_b) == (G.gen_a, G.gen_b):
            break
    assert k == 3


def test_element_serialization(group27):
    G = group27
    assert G.element_str((2, 5)) == "b^2*a^5"


def test_regular_action_exhaustive_up_to_order_243():
    # associativity in bulk: the regular action is a homomorphism on all pairs
    for params in ((3, 2, 1, 1), (3, 2, 2, 1), (3, 3, 2, 2)):
        assert check_regular_action_exhaustive(make_group(*params))


def test_apply_map_preserves_mul_order_243():
    G = make_group(3, 3, 2, 2)
    x, y = _claim_images(G, 2)
    f = make_automorphism(G, x, y)
    els = G.elements()
    img = {g: apply_map(G, f, g) for g in els}
    for g in els:
        gi = img[g]
        for h in els:
            assert img[G.mul(g, h)] == G.mul(gi, img[h])
