"""The numpy permutation kernels against the tuple kernels they replaced.

The tuple versions live in tests/oracles.py; every array result must hold
exactly the images the tuple kernel computes, as a contiguous np.intp array.
"""

import itertools
import math
import random

import numpy as np
import pytest

from bicayley import Graph, abelian_family, aut_group, classify, gamma_t, sigma_t
from bicayley.errors import NotAutomorphism
from bicayley.permgroup import (
    compose,
    cycle_type,
    identity,
    invert,
    is_identity,
    orbit_labels,
    orbit_of_tuple,
    perm_power,
    perm_powers,
)
from bicayley.symmetry import arc_orbits

from . import oracles

DEGREES = (0, 1, 2, 3, 7, 30, 200)


def random_perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def sparse_perm(rng, n):
    """A permutation moving only a few points, so groups keep several orbits."""
    p = list(range(n))
    moved = rng.sample(range(n), min(n, rng.randrange(0, 4)))
    images = moved[:]
    rng.shuffle(images)
    for x, y in zip(moved, images):
        p[x] = y
    return tuple(p)


def same(array, images):
    """array is a contiguous np.intp array holding exactly the tuple images."""
    return (
        isinstance(array, np.ndarray)
        and array.dtype == np.intp
        and array.flags.c_contiguous
        and array.tolist() == list(images)
    )


def closure(gens, n):
    """Every element of <gens>, by tuple composition."""
    ident = oracles.identity(n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = oracles.compose(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def test_compose_invert_power_match_tuple_kernels():
    rng = random.Random(41)
    for n in DEGREES:
        for _ in range(12):
            p, q = random_perm(rng, n), random_perm(rng, n)
            order = math.lcm(*oracles.cycle_type(p))
            assert same(compose(p, q), oracles.compose(p, q))
            assert same(compose(np.array(p), list(q)), oracles.compose(p, q))
            assert same(invert(p), oracles.invert(p))
            ks = (0, 1, 2, 3, -1, -2, order, order + 1, -order - 1, 10**30 + 7, -(10**30) - 7)
            for k in ks + (rng.randrange(-10**6, 10**6),):
                assert same(perm_power(p, k), oracles.perm_power(p, k)), (n, k)
            assert cycle_type(p) == oracles.cycle_type(p)
            assert is_identity(p) == (p == oracles.identity(n))
            assert is_identity(compose(p, invert(p)))


def test_kernels_leave_their_inputs_alone():
    rng = random.Random(42)
    p, q = np.array(random_perm(rng, 50)), np.array(random_perm(rng, 50))
    before = p.tolist(), q.tolist()
    calls = (lambda: compose(p, q), lambda: invert(p), lambda: perm_power(p, -5), lambda: perm_power(p, 1))
    for call in calls:
        call()[0] = -1  # a result never aliases an input
        assert (p.tolist(), q.tolist()) == before


def test_powers_reject_bad_arguments():
    stack = np.array([[1, 2, 0], [0, 2, 1]])
    with pytest.raises(TypeError, match="perm_power for one permutation"):
        perm_powers(stack[0], [2], [0])
    with pytest.raises(ValueError, match="3 exponents for 2 rows"):
        perm_powers(stack, [1, 2, 3], [0, 1])
    for row in (-1, 2):
        with pytest.raises(IndexError, match=r"a row outside \[0, 2\)"):
            perm_powers(stack, [1], [row])
    # a 0-point permutation and an empty stack have powers too
    assert same(perm_power([], 5), ()) and same(perm_power(np.empty(0, np.intp), -(10**20)), ())
    assert perm_powers(np.empty((0, 3), np.uint8), [], []).shape == (0, 3)


def test_orbit_labels_match_tuple_orbits():
    rng = random.Random(43)
    long_cycle = tuple((i + 1) % 1000 for i in range(1000))
    cases = [(1000, [long_cycle]), (1000, [oracles.invert(long_cycle)])]
    for n in DEGREES:
        for _ in range(10):
            cases.append((n, [sparse_perm(rng, n) for _ in range(rng.randrange(0, 5))]))
            cases.append((n, [random_perm(rng, n) for _ in range(rng.randrange(0, 2))]))
    for n, gens in cases:
        labels = orbit_labels(n, [np.array(g, dtype=np.intp) for g in gens])
        expected = sorted({oracles._orbit(x, gens) for x in range(n)}, key=min)
        for orb in expected:
            assert {int(labels[x]) for x in orb} == {min(orb)}
        group = oracles.chain_group(n, gens)
        assert group.orbits() == expected
        assert all(group.orbit(x) == oracles._orbit(x, gens) for x in range(0, n, 7))


def test_orbit_of_tuple_matches_tuple_bfs():
    rng = random.Random(47)
    for n in (1, 2, 5, 12):
        for _ in range(10):
            gens = [sparse_perm(rng, n) for _ in range(rng.randrange(0, 3))]
            for k in (0, 1, 2, 3):
                seed = tuple(rng.randrange(n) for _ in range(k))
                assert orbit_of_tuple(gens, seed) == oracles.orbit_of_tuple(gens, seed)


def test_generic_chain_matches_closure():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randrange(1, 7)
        gens = [rng.choice((sparse_perm, random_perm))(rng, n) for _ in range(rng.randrange(0, 3))]
        elements = closure(gens, n)
        G = oracles.chain_group(n, gens)
        assert G.order() == len(elements)
        assert [tuple(p) for p in oracles.enumerate_elements(G)] == sorted(elements)
        for perm in itertools.permutations(range(n)):
            assert G.contains(perm) == (perm in elements)


def cycle(n, points):
    p = list(range(n))
    for x, y in zip(points, points[1:] + points[:1]):
        p[x] = y
    return p


def direct_product(*factors):
    """(degree, generators) of the product acting on disjoint blocks of points."""
    n = sum(k for k, _ in factors)
    gens, start = [], 0
    for k, factor_gens in factors:
        for g in factor_gens:
            gens.append(list(range(start)) + [start + x for x in g] + list(range(start + k, n)))
        start += k
    return n, gens


def wreath_product(base, top):
    """(degree, generators) of base wr top in its imprimitive action on m blocks of k points."""
    (k, base_gens), (m, top_gens) = base, top
    n = k * m
    gens = [list(g) + list(range(k, n)) for g in base_gens]
    gens += [[t[i // k] * k + i % k for i in range(n)] for t in top_gens]
    return n, gens


def chain_test_groups():
    """Seeded groups of degree 8-40 whose chains have several levels and
    non-trivial Schreier generators, and two regular representations, whose
    Schreier generators are all trivial."""
    from bicayley.metacyclic import make_group

    rng = random.Random(59)
    groups = []
    for _ in range(8):  # generators moving a few points: several orbits and levels
        n = rng.randrange(8, 41)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            p = list(range(n))
            moved = rng.sample(range(n), rng.randrange(2, 9))
            for x, y in zip(moved, rng.sample(moved, len(moved))):
                p[x] = y
            gens.append(p)
        groups.append((n, gens))
    for n in (8, 11, 16):  # two random permutations: S_n or A_n, almost surely
        groups.append((n, [list(random_perm(rng, n)) for _ in range(2)]))
    s5 = (5, [cycle(5, [0, 1, 2, 3, 4]), cycle(5, [0, 1])])
    d6 = (6, [cycle(6, [0, 1, 2, 3, 4, 5]), [0, 5, 4, 3, 2, 1]])
    c7 = (7, [cycle(7, list(range(7)))])
    s3, s4 = (3, [cycle(3, [0, 1, 2]), cycle(3, [0, 1])]), (4, [cycle(4, [0, 1, 2, 3]), cycle(4, [0, 1])])
    c3 = (3, [cycle(3, [0, 1, 2])])
    groups += [
        direct_product(s5, d6, c7),
        direct_product(s4, s4),
        wreath_product(s3, s4),
        wreath_product(wreath_product(c3, c3), c3),
        wreath_product(s5, (8, [cycle(8, list(range(8)))])),
    ]
    for params in ((3, 2, 1, 1), (5, 2, 2, 1)):
        R = oracles.regular_representation(make_group(*params))
        groups.append((R.degree, [g.tolist() for g in R.generators]))
    return groups


def test_generic_chain_matches_sympy_on_multi_level_groups():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(61)
    outcomes = set()
    for n, gens in chain_test_groups():
        G = oracles.chain_group(n, gens)
        S = combinatorics.PermutationGroup([combinatorics.Permutation(g) for g in gens])
        assert G.order() == S.order(), n
        for _ in range(10):
            word = identity(n)
            for _ in range(15):
                word = compose(word, rng.choice(gens))
            assert G.contains(word) and S.contains(combinatorics.Permutation(word.tolist()))
            perm = random_perm(rng, n)
            member = G.contains(perm)
            assert member == S.contains(combinatorics.Permutation(list(perm)))
            outcomes.add(member)
    assert outcomes == {True, False}


def test_chain_inverts_each_strong_generator_once(monkeypatch):
    """The oracle's scan over S_5 wr C_8 (degree 40, 32 levels) inverts each
    strong generator, given or residue, exactly once: an earlier chain
    inverted every strong generator again on every level and every restart,
    9,436 calls for one order()."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    from bicayley import permgroup

    arguments = []  # kept alive, so `is` tells the strong generators apart
    invert = permgroup.invert

    def counted(p):
        arguments.append(p)
        return invert(p)

    monkeypatch.setattr(permgroup, "invert", counted)
    n, gens = chain_test_groups()[-3]
    levels = oracles.schreier_chain(n, gens)
    order = math.prod(len(lv.inverse) for lv in levels)
    assert order == combinatorics.PermutationGroup([combinatorics.Permutation(g) for g in gens]).order()
    assert order == math.factorial(5) ** 8 * 8
    strong = [g for g, _ in levels[0].gens]  # level 0 holds every strong generator
    assert len(strong) > len(gens)  # the scan added residues
    assert [s.tolist() for s in strong[: len(gens)]] == gens  # given first, then residues
    assert [sum(a is g for a in arguments) for g in strong] == [1] * len(strong)


def test_chain_sifts_each_pair_once_on_k40(monkeypatch):
    """The oracle's scan of aut_group(K_40)'s 39 generators sifts each
    (point, strong generator) pair of its levels at most once, plus one
    re-check of each pair whose residue joined the chain.  A scan that
    restarted every resumed level at its first point made 141,664 sifts for
    the same chain, against 27,780 pairs and 19 residues."""
    sifts = [0]
    sift = oracles.sift

    def counted(*args):
        sifts[0] += 1
        return sift(*args)

    gens = aut_group(Graph(40, list(itertools.combinations(range(40), 2)))).generators
    monkeypatch.setattr(oracles, "sift", counted)
    levels = oracles.schreier_chain(40, gens)
    assert math.prod(len(lv.inverse) for lv in levels) == math.factorial(40)
    # the base and strong generators the scan has always chosen
    assert [lv.base for lv in levels] == [*range(38, -1, -2), *range(1, 39, 2)]
    assert len(levels[0].gens) == 58 and len(gens) == 39
    pairs = sum(len(lv.inverse) * len(lv.gens) for lv in levels)
    assert pairs == 27_780
    assert sifts[0] <= pairs + len(levels[0].gens) - len(gens)  # one re-check per residue


def test_scan_progress_changes_no_decision(monkeypatch):
    """A scan that forgets its progress, and so restarts every resumed level
    at its first point, builds the same chain: the same bases, strong
    generators in the same order, and the same transversals."""

    class Forgetful(dict):
        def __setitem__(self, key, value):
            pass

    class Restarting(oracles.ChainLevel):
        __slots__ = ()

        def __init__(self, base, degree):
            super().__init__(base, degree)
            self.checked = Forgetful()

    def chain(n, gens):
        return [(lv.base, [g.tobytes() for g, _ in lv.gens], {pt: u.tobytes() for pt, u in lv.inverse.items()})
                for lv in oracles.schreier_chain(n, gens)]

    groups = random_generator_sets(73, 200) + chain_test_groups()
    for graph in (gamma_t(1).graph, sigma_t(1).graph, Graph(16, list(itertools.combinations(range(16), 2)))):
        groups.append((graph.n, aut_group(graph).generators))
    expected = [chain(n, gens) for n, gens in groups]
    monkeypatch.setattr(oracles, "ChainLevel", Restarting)
    assert [chain(n, gens) for n, gens in groups] == expected


def random_generator_sets(seed, count):
    """count seeded (degree, generators) pairs of degree <= 12 with 1-3
    generators, each a random permutation or a product of transpositions."""
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        n = rng.randrange(1, 13)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            if rng.random() < 0.5:
                gens.append(list(random_perm(rng, n)))
                continue
            p = list(range(n))
            for _ in range(rng.randrange(1, 4)):
                x, y = rng.randrange(n), rng.randrange(n)
                p[x], p[y] = p[y], p[x]
            gens.append(p)
        sets.append((n, gens))
    return sets


def test_chain_order_and_membership_match_sympy_on_random_generator_sets():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    Permutation = combinatorics.Permutation
    rng = random.Random(67)
    outcomes = set()
    for n, gens in random_generator_sets(71, 600):
        G = oracles.chain_group(n, gens)
        S = combinatorics.PermutationGroup([Permutation(g) for g in gens])
        assert G.order() == S.order(), (n, gens)
        for _ in range(3):
            word = identity(n)
            for _ in range(rng.randrange(1, 8)):
                word = compose(word, rng.choice(gens))
            assert G.contains(word)
            perm = random_perm(rng, n)
            member = G.contains(perm)
            assert member == S.contains(Permutation(list(perm))), (n, gens, perm)
            outcomes.add(member)
    assert outcomes == {True, False}


def test_is_normal_matches_sympy_on_random_pairs():
    """N is made of words in G's generators, so it lies in G.  sympy's
    A.is_normal(B) asks whether A is normal in B, hence the swapped order."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    Permutation = combinatorics.Permutation
    rng = random.Random(73)
    verdicts = []
    for n, gens in random_generator_sets(79, 400):
        words = []
        for _ in range(rng.randrange(1, 3)):
            word = identity(n)
            for _ in range(rng.randrange(1, 6)):
                word = compose(word, rng.choice(gens))
            words.append(word.tolist())
        G, N = oracles.chain_group(n, gens), oracles.chain_group(n, words)
        expected = combinatorics.PermutationGroup([Permutation(w) for w in words]).is_normal(
            combinatorics.PermutationGroup([Permutation(g) for g in gens])
        )
        verdicts.append(oracles.is_normal(G, N))
        assert verdicts[-1] == expected, (n, gens, words)
    assert 100 < sum(verdicts) < len(verdicts) - 50


# -- orbit counts of classify ----------------------------------------------------------


def star(k):
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + [(i, i + 5) for i in range(5)] + inner)


def copies(g, m):
    return Graph(g.n * m, [(u + c * g.n, v + c * g.n) for c in range(m) for u, v in g.edges])


def analyze_pool():
    """The graphs of the benchmark's analyze workload."""
    hypercube7 = Graph(128, [(v, v ^ (1 << b)) for v in range(128) for b in range(7) if v < v ^ (1 << b)])
    gray = gamma_t(1).graph
    return [
        sigma_t(1).graph, sigma_t(2).graph, abelian_family(5, 13).graph, gamma_t(2).graph,
        abelian_family(9, 1).graph, abelian_family(3, 7).graph, gray, copies(gray, 3),
        copies(petersen(), 4), star(16), hypercube7,
        Graph(16, [(i, 8 + j) for i in range(8) for j in range(8)]),
    ]


def relabel(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return g.relabel(perm)


def test_classify_orbit_counts_match_tuple_oracles():
    for seed, g in enumerate(analyze_pool()):
        g = relabel(g, seed)
        aut = aut_group(g)
        rep = classify(g, aut)
        gens = [tuple(x.tolist()) for x in aut.generators]
        edges = [tuple(e) for e in g.edges.tolist()]
        arcs = edges + [(v, u) for u, v in edges]
        assert rep.vertex_orbits == oracles._orbit_count([(v,) for v in range(g.n)], gens, lambda t: t)
        assert rep.edge_orbits == oracles._orbit_count(edges, gens, lambda t: (min(t), max(t)))
        assert rep.arc_orbits == oracles._orbit_count(arcs, gens, lambda t: t)


def test_arc_orbits_match_tuple_bfs():
    rng = random.Random(59)
    graphs = [petersen(), copies(petersen(), 2), star(5), gamma_t(1).graph]
    graphs += [Graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8) if rng.random() < 0.4]) for _ in range(8)]
    for g in graphs:
        edges = [tuple(e) for e in g.edges.tolist()]
        if not edges:
            continue
        gens = list(aut_group(g).generators)
        some = rng.sample(gens, rng.randrange(0, len(gens) + 1))  # subgroups have smaller orbits
        keys, labels, reversal = arc_orbits(g, some)
        arcs = [divmod(int(k), g.n) for k in keys]
        assert sorted(arcs) == sorted(edges + [(v, u) for u, v in edges])
        assert [arcs[i] for i in reversal] == [(v, u) for u, v in arcs]
        for got, want in zip((keys, labels, reversal), oracles.arc_orbits_by_scatter(g, some)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        tuple_gens = [tuple(x.tolist()) for x in some]
        for i, arc in enumerate(arcs):
            orbit = {arcs[j] for j in np.flatnonzero(labels == labels[i])}
            assert orbit == oracles.orbit_of_tuple(tuple_gens, arc)


def test_arc_action_rejects_a_non_automorphism():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(NotAutomorphism):
        arc_orbits(g, [np.array([1, 0, 2, 3], dtype=np.intp)])
