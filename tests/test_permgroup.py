import random

import numpy as np
import pytest

from bicayley import PermGroup, compose, gamma_t, identity, invert, is_normal, right_group
from bicayley.errors import ContainmentError, DegreeMismatch, InvariantViolation
from bicayley.permgroup import perm_power

from .oracles import derived_subgroup, enumerate_elements, is_transitive_on, regular_representation


def s4():
    return PermGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)])


def a4():
    return PermGroup(4, [(1, 2, 0, 3), (0, 2, 3, 1)])


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
        PermGroup(3, [(0, 0, 1)])


def test_orbits():
    G = s4()
    assert G.orbit(0) == frozenset(range(4))
    triv = PermGroup(4, [])
    assert [set(o) for o in triv.orbits()] == [{0}, {1}, {2}, {3}]
    assert PermGroup(0, []).orbits() == []


def test_orbits_of_right_group(gray_graph):
    rh = right_group(gray_graph)
    orbs = rh.orbits()
    assert sorted(len(o) for o in orbs) == [27, 27]
    assert orbs[0] == frozenset(range(27))
    assert orbs[1] == frozenset(range(27, 54))


def test_group_order():
    assert s4().order() == 24
    assert a4().order() == 12
    assert PermGroup(5, []).order() == 1


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
    cyclic = PermGroup(4, [(1, 2, 3, 0)])
    assert cyclic.is_semiregular()
    swap = PermGroup(4, [[1, 0, 2, 3]])
    assert swap.is_semiregular([0, 1]) and not swap.is_semiregular([2]) and swap.is_semiregular([])
    for domain in ([999], [4], [-1], [0, 5]):  # points outside the degree, as in orbit()
        with pytest.raises(InvariantViolation):
            swap.is_semiregular(domain)


def test_semiregular_derived_translations(gray_graph):
    from bicayley import right_translation

    G = gray_graph.group
    gens = [right_translation(gray_graph, h) for h in sorted(derived_subgroup(G)) if h != G.identity]
    N = PermGroup(54, gens)
    assert N.is_semiregular()
    assert len(N.orbits()) == 18


def test_is_transitive_on_checks_invariance():
    G = PermGroup(4, [(1, 0, 2, 3)])
    with pytest.raises(InvariantViolation):
        is_transitive_on(G, {0, 2})
    assert is_transitive_on(G, {0, 1})
    assert not is_transitive_on(G, {0, 1, 2, 3})


def test_is_normal():
    S4, A4 = s4(), a4()
    assert is_normal(S4, S4)
    assert is_normal(S4, PermGroup(4, []))
    assert is_normal(S4, A4)
    flip = PermGroup(4, [(1, 0, 2, 3)])
    assert not is_normal(S4, flip)
    v4 = PermGroup(4, [(1, 0, 3, 2), (2, 3, 0, 1)])
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
        PermGroup(100_001, [])


def test_with_base_order_and_membership():
    import itertools

    # strong relative to (0, 1, 2): the 4-cycle, a 3-cycle fixing 0, a transposition fixing 0 and 1
    G = PermGroup.with_base(4, [(1, 2, 3, 0), (0, 2, 3, 1), (0, 1, 3, 2)], (0, 1, 2))
    assert G.order() == 24 == s4().order()
    for perm in itertools.permutations(range(4)):
        assert G.contains(perm)
    V4 = PermGroup.with_base(4, [(1, 0, 3, 2), (2, 3, 0, 1)], (0,))
    assert V4.order() == 4
    members = {tuple(p) for p in enumerate_elements(V4)}
    for perm in itertools.permutations(range(4)):
        assert V4.contains(perm) == (perm in members)
    assert PermGroup.with_base(3, [], ()).order() == 1


def test_with_base_rejects_generator_fixing_the_base():
    with pytest.raises(InvariantViolation):
        PermGroup.with_base(4, [(1, 0, 2, 3), (0, 1, 3, 2)], (0,))
    with pytest.raises(InvariantViolation):
        PermGroup.with_base(4, [(1, 0, 2, 3)], (4,))
