"""The whole-group rank kernels of PairGroup against scalar mul/apply_map and
the per-element loops in tests/oracles.py."""

import json
import random
from functools import cache

import numpy as np
import pytest

from bicayley import cli
from bicayley.bicay import (
    BiCayleyGraph,
    delta_map,
    right_translation,
    sigma_map,
    spoke_stabilizer_maps,
)
from bicayley.errors import BudgetError, InvalidMapError
from bicayley.families import abelian_family, gamma_t, sigma_t
from bicayley.graphs import Graph, graph6_encode
from bicayley.metacyclic import (
    AbelianPairGroup,
    GroupMap,
    PairGroup,
    apply_map,
    identity_map,
    make_group,
)
from bicayley.permgroup import compose, invert, perm_power
from tests import oracles

KERNEL_GROUPS = [(3, 2, 1, 1), (3, 3, 2, 2), (5, 2, 2, 1)]
ABELIAN_MEMBERS = [(3, 7), (9, 1)]


def abelian_handle(m, n):
    return abelian_family(m, n).group


@cache
def all_groups():
    return tuple(make_group(*params) for params in KERNEL_GROUPS) + tuple(
        abelian_handle(m, n) for m, n in ABELIAN_MEMBERS
    )


@cache
def group_maps(G):
    if hasattr(G, "p"):
        return oracles.automorphisms(G)
    return [GroupMap(x, y, validated=True) for x, y in oracles.automorphisms_by_images(G)]


def scalar_ranks(G, fn):
    return np.array([G.rank(fn(h)) for h in G.elements()], dtype=np.intp)


def test_pow_closed_form_matches_halving():
    groups = [make_group(*params) for params in KERNEL_GROUPS]
    groups += [AbelianPairGroup(3, 21), PairGroup(9, 1, 1, 1)]
    for G in groups:
        ks = {0}
        for k in (1, 2, G.order, G.order + 1, 10**30 + 7):
            ks |= {k, -k}
        for g in G.elements():
            for k in ks:
                assert G.pow(g, k) == oracles.power_by_halving(G, g, k), (g, k)


def test_right_and_left_mul_ranks_match_scalar_mul():
    for G in all_groups():
        els = G.elements()
        shuffled = np.random.default_rng(G.order).permutation(G.order)
        for g in els:
            right = G.right_mul_ranks(g)
            left = G.left_mul_ranks(g)
            for out in (right, left):
                assert out.dtype == np.intp and out.flags.c_contiguous
            assert np.array_equal(right, scalar_ranks(G, lambda h: G.mul(h, g)))
            assert np.array_equal(left, scalar_ranks(G, lambda h: G.mul(g, h)))
            assert np.array_equal(G.left_mul_ranks(g, shuffled), left[shuffled])


def test_cayley_table_matches_scalar_mul_and_row_kernels():
    for G in all_groups():
        table = G.cayley_table()
        assert table.dtype == np.intp and table.shape == (G.order, G.order)
        expect = np.array([[G.rank(G.mul(g, h)) for h in G.elements()] for g in G.elements()])
        assert np.array_equal(table, expect)
        for g in G.elements():
            assert np.array_equal(table[G.rank(g)], G.left_mul_ranks(g))
            assert np.array_equal(table[:, G.rank(g)], G.right_mul_ranks(g))


def test_map_ranks_matches_apply_map_on_every_map():
    # On every map: 1^f = 1, (h a)^f = h^f x and (h b)^f = h^f y for every h,
    # which determine the map (the right_mul_ranks rows are checked against
    # scalar mul above).  On a seeded sample of maps, also apply_map itself.
    rng = random.Random(3)
    for G in all_groups():
        maps = group_maps(G)
        assert maps
        row_a, row_b = G.right_mul_ranks(G.gen_a), G.right_mul_ranks(G.gen_b)
        sample = maps if len(maps) <= 400 else rng.sample(maps, 400)
        for f in maps:
            out = G.map_ranks(f)
            assert out.dtype == np.intp and out.flags.c_contiguous
            assert out[0] == 0
            assert np.array_equal(out[row_a], G.right_mul_ranks(f.image_a)[out])
            assert np.array_equal(out[row_b], G.right_mul_ranks(f.image_b)[out])
        for f in sample:
            expect = scalar_ranks(G, lambda h: apply_map(G, f, h))
            assert np.array_equal(G.map_ranks(f), expect)


def test_map_ranks_matches_apply_map_on_arbitrary_images():
    # y^j x^i is defined for any images; on automorphisms of these groups the
    # twist of x^i's b-part can act trivially on y^j's a-part, on arbitrary
    # images it does not
    rng = random.Random(4)
    for G in all_groups():
        els = G.elements()
        for _ in range(100):
            f = GroupMap(rng.choice(els), rng.choice(els), validated=True)
            expect = scalar_ranks(G, lambda h: apply_map(G, f, h))
            assert np.array_equal(G.map_ranks(f), expect)


def test_map_ranks_rejects_unvalidated_map(group27):
    with pytest.raises(InvalidMapError):
        group27.map_ranks(GroupMap(group27.gen_a, group27.gen_b))


def test_kernels_stay_within_enumeration_budget():
    G = make_group(3, 7, 6, 1)  # order 3^13
    f = identity_map(G)
    for call in (
        lambda: G.right_mul_ranks(G.gen_a),
        lambda: G.left_mul_ranks(G.gen_a),
        lambda: G.map_ranks(f),
        lambda: G.cayley_table(),
        lambda: BiCayleyGraph(G),
    ):
        with pytest.raises(BudgetError):
            call()
    with pytest.raises(BudgetError):  # 3^8: enumerable, but its table would take 344 MB
        make_group(3, 4, 4, 3).cayley_table()


def test_generates_matches_closure_on_abelian_handles():
    for m, n in ABELIAN_MEMBERS:
        G = abelian_handle(m, n)
        els = G.elements()
        hits = 0
        for x in els:
            for y in els:
                expect = len(G.closure([x, y])) == G.order
                assert G.generates(x, y) == expect
                hits += expect
        assert 0 < hits < len(els) ** 2


def random_connection_sets(G, rng):
    els = [g for g in G.elements() if g != G.identity]

    def inverse_closed():
        out = set()
        for g in rng.sample(els, 2):
            out |= {g, G.inv(g)}
        return sorted(out)

    return inverse_closed(), inverse_closed(), rng.sample(G.elements(), 3)


def test_bicayley_edges_match_per_element_loop():
    rng = random.Random(5)
    for G in all_groups():
        for _ in range(4):
            R, L, S = random_connection_sets(G, rng)
            bg = BiCayleyGraph(G, R, L, S)
            assert bg.graph == Graph(2 * G.order, oracles.bicay_edges_by_elements(G, R, L, S))
        assert BiCayleyGraph(G).graph.edges.tolist() == []


def test_family_graph6_matches_per_element_loop():
    members = [gamma_t(t) for t in (1, 2, 3)] + [sigma_t(t) for t in (1, 2, 3)]
    members += [abelian_family(m, n) for m, n in ABELIAN_MEMBERS]
    for bg in members:
        edges = oracles.bicay_edges_by_elements(bg.group, bg.R, bg.L, bg.S)
        assert graph6_encode(bg.graph) == graph6_encode(Graph(bg.graph.n, edges))


def test_right_translation_matches_per_element_loop():
    for G in all_groups():
        bg = BiCayleyGraph(G, (), (), [G.identity, G.gen_a, G.gen_b])
        for g in G.elements():
            perm = right_translation(bg, g)
            assert np.array_equal(perm, oracles.right_translation_by_elements(bg, g))


def test_sigma_and_delta_images_match_per_element_loop():
    # every sigma and delta map is an automorphism of the edgeless BiCay(H, {}, {}, {})
    rng = random.Random(11)
    for G in all_groups():
        bg = BiCayleyGraph(G)
        els = G.elements()
        maps = group_maps(G)
        for f in maps if len(maps) <= 300 else rng.sample(maps, 300):
            g, x, y = rng.choice(els), rng.choice(els), rng.choice(els)
            sig = sigma_map(bg, f, g)
            assert np.array_equal(sig.permutation, oracles.sigma_images_by_elements(bg, f, g))
            delt = delta_map(bg, f, x, y)
            assert np.array_equal(delt.permutation, oracles.delta_images_by_elements(bg, f, x, y))


def test_family_certificate_maps_match_per_element_loop():
    for bg in (gamma_t(1), gamma_t(2), sigma_t(1), sigma_t(2)):
        found = spoke_stabilizer_maps(bg)
        assert found
        for f, g, perm in found:
            assert np.array_equal(perm, oracles.sigma_images_by_elements(bg, f, g))


def _arithmetic_report(tmp_path):
    out = tmp_path / "report.json"
    argv = ["verify", "--target", "arithmetic", "--p", "3", "--m", "2", "--n", "1", "--r", "1",
            "--trials", "50", "--out", str(out)]
    code = cli.main(argv)
    return code, json.loads(out.read_text())


def wrong_twist(self, g):
    J, I, _ = self._rank_columns()
    j, i = g
    return ((J + j) % self.mod_j) * self.mod_i + (I + i) % self.mod_i  # w^j taken as 1


# a kernel with a plausible bug, where it is patched, and the checks that must see it
WRONG_KERNELS = {
    "right_mul_ranks": (PairGroup, wrong_twist, {"row", "mul"}),
    "compose": (cli, lambda p, q: np.asarray(p)[q], {"mul"}),  # q first, then p
    "invert": (cli, lambda p: np.array(p), {"inv"}),  # p itself
    "perm_power": (cli, lambda p, k: perm_power(p, abs(k)), {"pow"}),  # sign of k dropped
}


@pytest.mark.parametrize("name", list(WRONG_KERNELS))
def test_arithmetic_oracle_catches_a_wrong_kernel(monkeypatch, tmp_path, name):
    owner, kernel, expected = WRONG_KERNELS[name]
    monkeypatch.setattr(owner, name, kernel)
    code, report = _arithmetic_report(tmp_path)
    assert code == 1 and not report["passed"]
    checks = {f["check"] for f in report["failures"]}
    if owner is PairGroup:  # every kernel row is wrong, so other checks may fail too
        assert expected <= checks
    else:  # a wrong permutation kernel fails its own check only
        assert checks == expected


# the right images in another dtype or memory layout, which np.array_equal accepts
P = np.array([1, 2, 0, 4, 3])
SAME_VALUE_KERNELS = {
    "compose": (lambda p, q: compose(p, q).astype(np.int32), (P, P)),
    "invert": (lambda p: np.repeat(invert(p), 2)[::2], (P,)),  # a strided view
    "perm_power": (lambda p, k: np.repeat(perm_power(p, k), 2).astype(np.int32)[::2], (P, -4)),
}


@pytest.mark.parametrize("name", sorted(SAME_VALUE_KERNELS))
def test_arithmetic_oracle_compares_values_not_layout(monkeypatch, tmp_path, name):
    kernel, sample = SAME_VALUE_KERNELS[name]
    image = kernel(*sample)
    assert image.dtype != np.intp or not image.flags.c_contiguous
    monkeypatch.setattr(cli, name, kernel)
    code, report = _arithmetic_report(tmp_path)
    assert code == 0 and report["passed"] and report["failures"] == []
