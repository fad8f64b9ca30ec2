import random

import numpy as np
import pytest

from bicayley import FamilySpec, PermGroup, build_family, compose, gamma_t, identity, invert, right_group
from bicayley.errors import ContainmentError, DegreeMismatch, InvariantViolation
from bicayley.permgroup import perm_power

from .oracles import (
    chain_group,
    derived_subgroup,
    enumerate_elements,
    is_normal,
    is_transitive_on,
    regular_representation,
)


def s4():
    return chain_group(4, [(1, 0, 2, 3), (1, 2, 3, 0)])


def a4():
    return chain_group(4, [(1, 2, 0, 3), (0, 2, 3, 1)])


def test_perm_algebra():
    p = (2, 0, 1, 3)
    assert np.array_equal(compose(p, invert(p)), identity(4))
    assert np.array_equal(compose(identity(4), p), p)
    assert np.array_equal(perm_power(p, 3), identity(4))
    with pytest.raises(DegreeMismatch):
        compose(p, identity(5))


def test_compose_matches_group_mul(group27):
    reg = regular_representation(group27)
    perm_a, perm_b = reg.generators
    ab = group27.mul(group27.gen_a, group27.gen_b)
    rank = group27.rank
    perm_ab = tuple(rank(group27.mul(h, ab)) for h in group27.elements())
    assert np.array_equal(compose(perm_a, perm_b), perm_ab)


def test_bad_permutation_rejected():
    with pytest.raises(InvariantViolation):
        PermGroup(3, [(0, 0, 1)], [0])


def test_orbits():
    G = s4()
    assert G.orbit(0) == frozenset(range(4))
    triv = PermGroup(4, [], ())
    assert [set(o) for o in triv.orbits()] == [{0}, {1}, {2}, {3}]
    assert PermGroup(0, [], ()).orbits() == []


def test_orbits_of_right_group(gray_graph):
    rh = right_group(gray_graph)
    orbs = rh.orbits()
    assert sorted(len(o) for o in orbs) == [27, 27]
    assert orbs[0] == frozenset(range(27))
    assert orbs[1] == frozenset(range(27, 54))


def test_group_order():
    assert s4().order() == 24
    assert a4().order() == 12
    assert PermGroup(5, [], ()).order() == 1


def test_order_matches_enumeration():
    for G in (s4(), a4()):
        assert len(enumerate_elements(G)) == G.order()


def test_right_group_order(gray_graph):
    rh = right_group(gray_graph)
    assert rh.order() == 27
    assert rh.is_semiregular()


def test_contains_and_sifting_soundness():
    G = a4()
    elements = {tuple(p) for p in enumerate_elements(G)}
    assert G.contains(identity(4))
    rng = random.Random(0)
    import itertools

    for perm in itertools.permutations(range(4)):
        assert G.contains(perm) == (perm in elements)
    # random words are members
    gens = G.generators
    for _ in range(20):
        w = identity(4)
        for _ in range(rng.randrange(1, 6)):
            w = compose(w, rng.choice(gens))
        assert G.contains(w)


def test_orbit_stabilizer_invariant():
    for G in (s4(), a4()):
        order = G.order()
        elements = enumerate_elements(G)
        for pt in range(G.degree):
            stab = sum(1 for p in elements if p[pt] == pt)
            assert len(G.orbit(pt)) * stab == order


def test_is_semiregular():
    assert not s4().is_semiregular()
    assert is_transitive_on(s4(), range(4))
    cyclic = chain_group(4, [(1, 2, 3, 0)])
    assert cyclic.is_semiregular()
    swap = chain_group(4, [[1, 0, 2, 3]])
    assert swap.is_semiregular([0, 1]) and not swap.is_semiregular([2]) and swap.is_semiregular([])
    for domain in ([999], [4], [-1], [0, 5]):  # points outside the degree, as in orbit()
        with pytest.raises(InvariantViolation):
            swap.is_semiregular(domain)


def test_semiregular_derived_translations(gray_graph):
    from bicayley import right_translation

    G = gray_graph.group
    gens = [right_translation(gray_graph, h) for h in sorted(derived_subgroup(G)) if h != G.identity]
    N = chain_group(54, gens)
    assert N.is_semiregular()
    assert len(N.orbits()) == 18


def test_is_transitive_on_checks_invariance():
    G = PermGroup(4, [(1, 0, 2, 3)], [0])
    with pytest.raises(InvariantViolation):
        is_transitive_on(G, {0, 2})
    assert is_transitive_on(G, {0, 1})
    assert not is_transitive_on(G, {0, 1, 2, 3})


def test_is_normal():
    S4, A4 = s4(), a4()
    assert is_normal(S4, S4)
    assert is_normal(S4, PermGroup(4, [], ()))
    assert is_normal(S4, A4)
    flip = chain_group(4, [(1, 0, 2, 3)])
    assert not is_normal(S4, flip)
    v4 = chain_group(4, [(1, 0, 3, 2), (2, 3, 0, 1)])
    assert is_normal(A4, v4)
    with pytest.raises(ContainmentError):
        is_normal(A4, flip)  # (01) is odd, not in A4


def test_orbits_form_partition():
    g2 = gamma_t(1)
    rh = right_group(g2)
    orbs = rh.orbits()
    seen = set()
    for orb in orbs:
        assert not (orb & seen)
        seen |= orb
        for g in rh.generators:
            assert {g[x] for x in orb} == orb
    assert seen == set(range(54))


def test_degree_budget():
    from bicayley.errors import BudgetError

    with pytest.raises(BudgetError):
        PermGroup(100_001, [], ())


def test_with_base_order_and_membership():
    import itertools

    # strong relative to (0, 1, 2): the 4-cycle, a 3-cycle fixing 0, a transposition fixing 0 and 1
    G = PermGroup(4, [(1, 2, 3, 0), (0, 2, 3, 1), (0, 1, 3, 2)], (0, 1, 2))
    assert G.order() == 24 == s4().order()
    for perm in itertools.permutations(range(4)):
        assert G.contains(perm)
    V4 = PermGroup(4, [(1, 0, 3, 2), (2, 3, 0, 1)], (0,))
    assert V4.order() == 4
    members = {tuple(p) for p in enumerate_elements(V4)}
    for perm in itertools.permutations(range(4)):
        assert V4.contains(perm) == (perm in members)
    assert PermGroup(3, [], ()).order() == 1


def test_with_base_rejects_generator_fixing_the_base():
    with pytest.raises(InvariantViolation, match="fixes the whole base"):
        PermGroup(4, [(1, 0, 2, 3), (0, 1, 3, 2)], (0,))
    with pytest.raises(InvariantViolation, match="fixes the whole base"):
        PermGroup(4, [(1, 0, 2, 3)], ())  # the empty base admits no generator
    with pytest.raises(InvariantViolation, match="base point 4 outside degree 4"):
        PermGroup(4, [(1, 0, 2, 3)], (4,))


def test_a_group_without_generators_is_trivial():
    for n in (0, 1, 5):
        T = PermGroup(n, [], ())
        assert T.order() == 1 and T.contains(identity(n)) and T.is_semiregular()
    assert not PermGroup(3, [], ()).contains((1, 0, 2))
    assert PermGroup(3, [identity(3)], ()).order() == 1  # the identity is dropped


RIGHT_GROUP_MEMBERS = [
    *[pytest.param(FamilySpec(kind, t), id=f"{kind}_{t}") for kind, t in
      (("gamma", 1), ("gamma", 2), ("gamma", 3), ("sigma", 1), ("sigma", 2))],
    *[pytest.param(FamilySpec("abelian", m=m, n=n), id=f"abelian_{m}_{n}") for m, n in ((3, 7), (5, 1))],
    # sympy's chain takes about 11 s on sigma_3's 13,122 points
    pytest.param(FamilySpec("sigma", 3), id="sigma_3", marks=pytest.mark.slow),
]


@pytest.mark.parametrize("spec", RIGHT_GROUP_MEMBERS)
def test_right_group_has_base_0_and_matches_sympy(spec):
    """R(H) with the base [0] has order |H| and is semiregular.  sympy's
    incremental Schreier-Sims from the base [0] keeps that base, so the
    stabilizer of 0 is trivial and the order is the size of 0's orbit."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    bg = build_family(spec)
    R = right_group(bg)
    assert R.order() == bg.half == bg.group.order and R.is_semiregular()
    S = combinatorics.PermutationGroup([combinatorics.Permutation(g.tolist()) for g in R.generators])
    base, _ = S.schreier_sims_incremental(base=[0])
    assert base == [0] and len(S.orbit(0)) == R.order()
    assert all(len(orbit) == R.order() for orbit in S.orbits())

