"""The whole-group rank kernels of PairGroup against scalar mul/apply_map and
the per-element loops in tests/oracles.py."""

import json
import random
import tracemalloc
import weakref
from functools import cache

import numpy as np
import pytest

from bicayley import cli
from bicayley.bicay import (
    BiCayleyGraph,
    apply_group_automorphism,
    delta_map,
    right_translation,
    sigma_map,
    spoke_stabilizer_maps,
)
from bicayley.errors import BudgetError, InvalidMapError
from bicayley.families import abelian_family, census, gamma_t, sigma_t
from bicayley.graphs import Graph, graph6_encode
from bicayley.metacyclic import (
    AbelianPairGroup,
    GroupMap,
    PairGroup,
    identity_map,
    make_group,
)
from bicayley.permgroup import compose, invert, perm_powers
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
        for g in els:
            right = G.right_mul_ranks(g)
            left = G.left_mul_ranks(g)
            for out in (right, left):
                assert out.dtype == np.intp and out.flags.c_contiguous
            assert np.array_equal(right, scalar_ranks(G, lambda h: G.mul(h, g)))
            assert np.array_equal(left, scalar_ranks(G, lambda h: G.mul(g, h)))


def test_right_mul_rows_match_scalar_mul_and_row_kernels():
    # over every rank, the product table transposed: rows[g, h] = rank(h g)
    for G in all_groups():
        rows = G.right_mul_rows(np.arange(G.order))
        assert rows.dtype == np.intp and rows.shape == (G.order, G.order)
        expect = np.array([[G.rank(G.mul(h, g)) for h in G.elements()] for g in G.elements()])
        assert np.array_equal(rows, expect)
        for g in G.elements():
            assert np.array_equal(rows[G.rank(g)], G.right_mul_ranks(g))
            assert np.array_equal(rows[:, G.rank(g)], G.left_mul_ranks(g))


def grid_test_groups():
    """Groups beyond all_groups(): two larger metacyclic groups, cyclic and
    plain abelian handles with one modulus 1, and non-abelian PairGroups whose
    twist order (3, and 6 for a twist of true order 3) is below mod_j."""
    return [make_group(3, 3, 3, 2), make_group(3, 4, 3, 3), AbelianPairGroup(3, 21),
            AbelianPairGroup(1, 25), AbelianPairGroup(25, 1), PairGroup(9, 1, 1, 1),
            PairGroup(9, 7, 2, 3), PairGroup(6, 7, 2, 6)]


def test_grid_kernels_agree_with_scalar_mul_and_each_other():
    # every row and column of the rows over every rank against the row
    # kernels; a seeded sample of rows against scalar mul (all of them below
    # 64 elements)
    rng = random.Random(17)
    for G in grid_test_groups():
        els = G.elements()
        rows = G.right_mul_rows(np.arange(G.order))
        assert rows.dtype == np.intp and rows.shape == (G.order, G.order) and rows.flags.c_contiguous
        for g in els:
            right, left = G.right_mul_ranks(g), G.left_mul_ranks(g)
            for out in (right, left):
                assert out.dtype == np.intp and out.flags.c_contiguous
            assert np.array_equal(rows[G.rank(g)], right)
            assert np.array_equal(rows[:, G.rank(g)], left)
        for g in els if len(els) < 64 else rng.sample(els, 12):
            assert np.array_equal(G.right_mul_ranks(g), scalar_ranks(G, lambda h: G.mul(h, g)))
            assert np.array_equal(G.left_mul_ranks(g), scalar_ranks(G, lambda h: G.mul(g, h)))


def test_right_mul_rows_hold_no_second_table_sized_temporary():
    # (3,4,3,3), |G| = 2187: the rows over every rank take 38.3 MB, and their
    # one broadcast of the product formula holds the (|G|, 1, mod_i) column
    # block (1.4 MB) and the (|G|, mod_j, 1) row offsets (0.5 MB) next to them
    G = make_group(3, 4, 3, 3)
    tracemalloc.start()
    try:
        rows = G.right_mul_rows(np.arange(G.order))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.dtype == np.intp and rows.flags.c_contiguous
    assert peak <= 1.1 * G.order**2 * 8


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
            expect = scalar_ranks(G, lambda h: oracles.apply_map(G, f, h))
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
            expect = scalar_ranks(G, lambda h: oracles.apply_map(G, f, h))
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
        lambda: G.right_mul_rows([0]),
        lambda: BiCayleyGraph(G),
    ):
        with pytest.raises(BudgetError):
            call()


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


def condition_graphs():
    """Bi-Cayley graphs with non-empty R and L: the Petersen graph
    BiCay(Z_5, {1, 4}, {2, 3}, {0}) and seeded graphs over (3,2,1,1), whose
    connection sets are random, related by a map (L = g^-1 R^f g) or
    characteristic (the elements of order 3)."""
    Z5 = AbelianPairGroup(1, 5)
    graphs = [BiCayleyGraph(Z5, [(0, 1), (0, 4)], [(0, 2), (0, 3)], [(0, 0)])]
    G = make_group(3, 2, 1, 1)
    els, maps = G.elements(), group_maps(G)
    rng = random.Random(7)

    def inverse_closed():
        g = rng.choice(els[1:])
        return [g, G.inv(g)]

    for _ in range(4):
        R, L = inverse_closed(), inverse_closed()
        graphs.append(BiCayleyGraph(G, R, L, rng.sample(els, rng.randrange(1, 4))))
    for _ in range(4):
        R, f, g = inverse_closed(), rng.choice(maps), rng.choice(els)
        L = [G.conj(oracles.apply_map(G, f, r), g) for r in R]
        graphs.append(BiCayleyGraph(G, R, L, rng.sample(els, rng.randrange(1, 4))))
    order3 = [h for h in els if G.element_order(h) == 3]
    graphs.append(BiCayleyGraph(G, order3, order3, [G.identity]))
    return graphs


def test_sigma_and_delta_conditions_match_scalar_sets():
    # every (f, g) and a seeded sample of (f, x, y); each condition must fail
    # somewhere and some draw must pass all three, or the test shows little
    rng = random.Random(13)
    seen_sigma, seen_delta = set(), set()
    for bg in condition_graphs():
        G = bg.group
        els = G.elements()
        for f in group_maps(G):
            for g in els:
                res = sigma_map(bg, f, g)
                assert res.failed_condition == oracles.sigma_condition_by_sets(bg, f, g)
                if res.valid:
                    assert np.array_equal(res.permutation, oracles.sigma_images_by_elements(bg, f, g))
                seen_sigma.add(res.failed_condition)
            for _ in range(len(els)):
                x, y = rng.choice(els), rng.choice(els)
                res = delta_map(bg, f, x, y)
                assert res.failed_condition == oracles.delta_condition_by_sets(bg, f, x, y)
                if res.valid:
                    assert np.array_equal(res.permutation, oracles.delta_images_by_elements(bg, f, x, y))
                seen_delta.add(res.failed_condition)
    assert seen_sigma == {None, "R^alpha != R", "L^alpha != g^-1 L g", "S^alpha != g^-1 S"}
    assert seen_delta == {None, "R^alpha != x^-1 L x", "L^alpha != y^-1 R y", "S^alpha != y^-1 S^-1 x"}


def test_apply_group_automorphism_matches_scalar_images():
    for bg in condition_graphs():
        G = bg.group
        for f in group_maps(G)[:12]:
            img = lambda conn: [oracles.apply_map(G, f, z) for z in conn]
            expect = BiCayleyGraph(G, img(bg.R), img(bg.L), img(bg.S))
            got = apply_group_automorphism(bg, f)
            assert (got.R, got.L, got.S) == (expect.R, expect.L, expect.S)
            assert got.graph == expect.graph


def spoke_graphs():
    """Every census class of the census groups, gamma_1..3, sigma_1..2 and
    six abelian family members (arc-transitive ones among them)."""
    from tests.test_families import CENSUS_GROUPS

    graphs = []
    for params in CENSUS_GROUPS:
        G = make_group(*params)
        graphs += [BiCayleyGraph(G, (), (), cls.spokes) for cls in census(G).classes]
    graphs += [gamma_t(t) for t in (1, 2, 3)] + [sigma_t(t) for t in (1, 2)]
    graphs += [abelian_family(m, n) for m, n in ((1, 7), (5, 1), (7, 1), (9, 1), (3, 7), (5, 13))]
    return graphs


def test_spoke_stabilizer_maps_match_word_search():
    total = 0
    for bg in spoke_graphs():
        found = spoke_stabilizer_maps(bg)
        expect = oracles.spoke_maps_by_words(bg)
        assert [(f, g) for f, g, _ in found] == [(f, g) for f, g, _ in expect]
        for (_, _, perm), (_, _, want) in zip(found, expect):
            assert np.array_equal(perm, want)
        keys = [(f.image_a, f.image_b, g) for f, g, _ in found]
        assert len(set(keys)) == len(keys)  # no (alpha, g) twice
        total += len(found)
    assert total >= 100


def test_spoke_stabilizer_maps_drop_repeated_word_images():
    # Over Z_n with S = {0, x, y}, a word for a that reads the same with x and
    # y exchanged gives a valid map for the arrangement (0, y, x) even where
    # x -> y, y -> x is no homomorphism: the word route then lists that map
    # twice.  BiCay(Z_7, {}, {}, {0, 3, 5}) has |Aut| = 28 = |H| |F| 2 with
    # |F| = 2, where the word route finds four maps.
    from bicayley.symmetry import aut_group

    repeats = 0
    for n in range(5, 14):
        G = AbelianPairGroup(1, n)
        for x in range(1, n):
            for y in range(x + 1, n):
                bg = BiCayleyGraph(G, (), (), [(0, 0), (0, x), (0, y)])
                if not G.generates((0, x), (0, y)):
                    continue
                words = [(f, g) for f, g, _ in oracles.spoke_maps_by_words(bg)]
                distinct = list(dict.fromkeys(words))
                assert [(f, g) for f, g, _ in spoke_stabilizer_maps(bg)] == distinct
                repeats += len(distinct) < len(words)
    assert repeats > 0
    bg = BiCayleyGraph(AbelianPairGroup(1, 7), (), (), [(0, 0), (0, 3), (0, 5)])
    assert len(oracles.spoke_maps_by_words(bg)) == 4 and len(spoke_stabilizer_maps(bg)) == 2
    assert aut_group(bg.graph).order() == 28


def test_spoke_stabilizer_maps_validate_only_homomorphisms(monkeypatch):
    # Over Z_9 with S = {0, 3, 4} (x = 3, y = 4), the arrangement
    # (g, s, s') = (3, 0, 4) asks for x -> 6, y -> 1.  Its row respects the x
    # step at every h (3 * 6 = 0 mod 9) but not the y step (x = 3y, while
    # 6 != 3), so only the y-step test keeps it from validation, where
    # a -> 4 passes make_automorphism and fails sigma_map.  A row that passes
    # both steps is an automorphism onto g^-1 S, so every sigma_map call the
    # enumeration makes must succeed.
    from bicayley import bicay

    results = []
    sigma_map = bicay.sigma_map

    def recorded(bg, f, g):
        result = sigma_map(bg, f, g)
        results.append(result.valid)
        return result

    monkeypatch.setattr(bicay, "sigma_map", recorded)
    bg = BiCayleyGraph(AbelianPairGroup(1, 9), (), (), [(0, 0), (0, 3), (0, 4)])
    found = spoke_stabilizer_maps(bg)
    assert results == [True] * len(found) and len(found) == 1


def test_spoke_stabilizer_maps_need_generating_spokes():
    G = make_group(3, 2, 1, 1)
    a = G.gen_a
    with pytest.raises(InvalidMapError):  # <a, a^2> = <a> is a proper subgroup
        spoke_stabilizer_maps(BiCayleyGraph(G, (), (), [G.identity, a, G.mul(a, a)]))


def test_family_certificate_maps_match_per_element_loop():
    for bg in (gamma_t(1), gamma_t(2), sigma_t(1), sigma_t(2)):
        found = spoke_stabilizer_maps(bg)
        assert found
        for f, g, perm in found:
            assert np.array_equal(perm, oracles.sigma_images_by_elements(bg, f, g))


def _arithmetic_report(tmp_path, params=(3, 2, 1, 1), trials=50, seed=0):
    out = tmp_path / "report.json"
    argv = ["verify", "--target", "arithmetic", "--trials", str(trials), "--seed", str(seed),
            "--out", str(out)]
    for name, value in zip(("--p", "--m", "--n", "--r"), params):
        argv += [name, str(value)]
    code = cli.main(argv)
    return code, json.loads(out.read_text())


def wrong_twist(self, j1, i1, j2, i2):
    # the group law on rank arrays with w^j2 taken as 1, so every row that
    # right_mul_ranks and right_mul_rows build is wrong
    D, _, _, _ = self._rank_grid()
    return D[j1 + j2] + (i1 + i2) % self.mod_i


# The permutation kernels below take what the kernels they replace take (a
# permutation or an (m, n) stack for compose and invert; a stack, exponents
# and their rows for perm_powers) and have the same bug on each row.


class StaleSquares:
    """perm_powers that keeps the squarings p^2, p^4, ... of the row it
    worked on before, in this call or the one before, and only appends the
    ones it lacks; it works on the rows in the order they are first wanted."""

    def __init__(self):
        self.squares = []

    def __call__(self, p, exponents, rows):
        p = np.asarray(p)
        out = np.empty((len(rows), p.shape[1]), p.dtype)
        for r in dict.fromkeys(rows):
            at = [i for i, s in enumerate(rows) if s == r]
            ks = [exponents[i] for i in at]
            squares = self.squares = [p[r]] + self.squares[1:]
            while len(squares) < max(abs(k) for k in ks).bit_length():
                squares.append(compose(squares[-1], squares[-1]))
            out[at] = [powers_from_squares(squares, k) for k in ks]
        return out


def powers_from_squares(squares, k, skip=None):
    """p^k from squares[i] = p^(2^i), leaving out bit `skip` of |k|."""
    result = np.broadcast_to(np.arange(squares[0].shape[-1]), squares[0].shape)
    for bit in range(abs(k).bit_length()):
        if abs(k) >> bit & 1 and bit != skip:
            result = compose(result, squares[bit])
    return invert(result) if k < 0 else result


def powers_skipping_low_bit(p, exponents, rows):
    # the bit loop starts at 1: bit 0 of |k| is never multiplied in
    squares = [np.asarray(p)]
    for _ in range(max(abs(k) for k in exponents).bit_length()):
        squares.append(compose(squares[-1], squares[-1]))
    return np.stack([powers_from_squares([s[r] for s in squares], k, skip=0) for r, k in zip(rows, exponents)])


def invert_unless_odd(p):
    """invert, but a permutation that maps 1 to an odd point is returned as it is."""
    p = np.asarray(p)
    return np.where(p[..., 1:2] % 2 == 1, p, invert(p))


# label -> (where it is patched, name, a kernel with a plausible bug, the checks
# that must see it); a class is a kernel with state, made fresh for each run
WRONG_KERNELS = {
    "right_mul_ranks": (PairGroup, "_product", wrong_twist, {"row", "mul"}),
    "compose": (cli, "compose", lambda p, q: compose(q, p), {"mul"}),  # q first, then p
    "invert": (cli, "invert", lambda p: np.array(p), {"inv"}),  # p itself
    "perm_power": (  # sign of k dropped
        cli, "perm_powers", lambda p, ks, rows: perm_powers(p, [abs(k) for k in ks], rows), {"pow"}),
    "stale_squares": (cli, "perm_powers", StaleSquares, {"pow"}),
    "skipped_bit": (cli, "perm_powers", powers_skipping_low_bit, {"pow"}),
}


@pytest.mark.parametrize("label", list(WRONG_KERNELS))
def test_arithmetic_oracle_catches_a_wrong_kernel(monkeypatch, tmp_path, label):
    owner, name, kernel, expected = WRONG_KERNELS[label]
    stateful = isinstance(kernel, type)
    monkeypatch.setattr(owner, name, kernel() if stateful else kernel)
    code, report = _arithmetic_report(tmp_path)
    assert code == 1 and not report["passed"]
    checks = {f["check"] for f in report["failures"]}
    if owner is PairGroup:  # every kernel row is wrong, so other checks may fail too
        assert expected <= checks
    else:  # a wrong permutation kernel fails its own check only
        assert checks == expected
    if not stateful:  # and the report is the per-trial loop's, with its cut-off
        assert report == reference_arithmetic_report((3, 2, 1, 1), 50, 0)


# the right images in another dtype or memory layout, which np.array_equal
# accepts; for a permutation and for a stack (perm_powers: for a stack only)
P = np.array([1, 2, 0, 4, 3])
SAME_VALUE_KERNELS = {  # label -> (name in cli, kernel, sample arguments)
    "compose": ("compose", lambda p, q: compose(p, q).astype(np.int32), (P, P)),
    "invert": ("invert", lambda p: np.repeat(invert(p), 2, axis=-1)[..., ::2], (P,)),  # a strided view
    "perm_power": ("perm_powers", lambda p, ks, rows: np.repeat(perm_powers(p, ks, rows), 2, axis=-1)
                   .astype(np.int32)[..., ::2], (np.stack([P, P[::-1]]), [-4, 3, 0], [1, 0, 1])),
}


@pytest.mark.parametrize("label", sorted(SAME_VALUE_KERNELS))
def test_arithmetic_oracle_compares_values_not_layout(monkeypatch, tmp_path, label):
    name, kernel, sample = SAME_VALUE_KERNELS[label]
    reference = getattr(cli, name)
    for args in (sample, tuple(np.stack([a, a[::-1]]) if a is P else a for a in sample)):
        out, want = kernel(*args), reference(*args)
        assert out.dtype != np.intp or not out.flags.c_contiguous
        assert out.shape == want.shape and (out == want).all()
    monkeypatch.setattr(cli, name, kernel)
    code, report = _arithmetic_report(tmp_path)
    assert code == 0 and report["passed"] and report["failures"] == []


def reference_arithmetic_report(params, trials, seed):
    """The arithmetic oracle trial by trial: every check on every trial, with
    the permutation kernels `cli` calls (patched ones included) and
    np.array_equal for equality."""
    G = make_group(*params)
    els, row, same = G.elements(), G.right_mul_ranks, np.array_equal
    perms = oracles.regular_representation(G)
    failures = []
    for gen, perm in zip((G.gen_a, G.gen_b), perms.generators):
        if not same(row(gen), perm):
            failures.append({"check": "row", "g": G.element_str(gen)})
    rng = random.Random(seed)
    for _ in range(trials):
        g = els[rng.randrange(len(els))]
        h = els[rng.randrange(len(els))]
        k = rng.randrange(-G.order, G.order + 1)
        pg, ph = row(g), row(h)
        if not same(row(G.mul(g, h)), cli.compose(pg, ph)):
            failures.append({"check": "mul", "g": G.element_str(g), "h": G.element_str(h)})
        if not same(row(G.inv(g)), cli.invert(pg)):
            failures.append({"check": "inv", "g": G.element_str(g)})
        if not same(row(G.pow(g, k)), cli.perm_powers(pg[None], [k], [0])[0]):
            failures.append({"check": "pow", "g": G.element_str(g), "k": k})
        if len(failures) > 10:
            break
    order = perms.order()
    return {"target": "arithmetic", "group": list(params), "trials": trials, "seed": seed,
            "regular_representation_order": order, "order_matches": order == G.order,
            "failures": failures, "passed": not failures and order == G.order}


def certified_order(params):
    """The arithmetic oracle's order of <rho_a, rho_b> for the group (p, m, n, r)."""
    argv = ["verify", "--target", "arithmetic", "--trials", "0"]
    argv += [x for name, v in zip(("--p", "--m", "--n", "--r"), params) for x in (name, str(v))]
    return cli._verify_arithmetic(cli.build_parser().parse_args(argv))["regular_representation_order"]


def test_certified_order_matches_the_chain():
    # the 17 groups of order <= 3^6 with p in {3, 5, 7}: 5^3, 5^4 and 7^3 among them
    params = [(p, m, n, r) for p in (3, 5, 7) for m in range(2, 7) for n in range(1, 6)
              for r in range(1, m) if p ** (m + n) <= 3**6 and m <= n + r]
    assert len(params) == 17 and {5**3, 7**3} <= {p ** (m + n) for p, m, n, _ in params}
    for q in params:
        G = make_group(*q)
        assert certified_order(q) == oracles.regular_representation(G).order() == G.order, q


# scalar laws on the pairs (j, i) put in place of PairGroup.mul, with the
# order the chain gives their right translations at (3,2,1,1), |H| = 27;
# the last two are group laws, so the certificate holds on them
SCALAR_LAWS = {
    "twist_on_j1": (lambda G, g, h: ((g[0] + h[0]) % G.mod_j, (g[1] * G.twist_pow(g[0]) + h[1]) % G.mod_i), 81),
    "b_dropped": (lambda G, g, h: (g[0], (g[1] + h[1]) % G.mod_i), 9),
    # not associative, though its right translations generate a group of order 27
    "j1_j2_term": (lambda G, g, h: ((g[0] + h[0]) % G.mod_j,
                                    (g[1] * G.twist_pow(h[0]) + h[1] + g[0] * h[0]) % G.mod_i), 27),
    "untwisted": (lambda G, g, h: ((g[0] + h[0]) % G.mod_j, (g[1] + h[1]) % G.mod_i), 27),
    "twist_inverted": (lambda G, g, h: ((g[0] + h[0]) % G.mod_j,
                                        (g[1] * G.twist_pow(-h[0] % G.mod_j) + h[1]) % G.mod_i), 27),
}


@pytest.mark.parametrize("label", list(SCALAR_LAWS))
def test_arithmetic_oracle_certifies_the_order_of_a_group_law_only(monkeypatch, tmp_path, label):
    law, chain_order = SCALAR_LAWS[label]
    monkeypatch.setattr(PairGroup, "mul", law)
    assert oracles.regular_representation(make_group(3, 2, 1, 1)).order() == chain_order
    code, report = _arithmetic_report(tmp_path)
    assert code == 1 and not report["passed"]
    order = report["regular_representation_order"]
    if order is not None:  # sound: a certified order is the chain's, and |H|
        assert order == chain_order == 27
    assert (order is not None) == report["order_matches"] == (label in ("untwisted", "twist_inverted"))


def test_arithmetic_oracle_reports_every_trial_of_a_failing_element(monkeypatch, tmp_path):
    # the inv verdict is computed once per element: a trial that draws an
    # element seen before must still add its failure, in trial order
    monkeypatch.setattr(cli, "invert", invert_unless_odd)
    # one run cut off after 11 failures, one that ends before the cut-off
    for params, trials, seed, count in (((3, 2, 1, 1), 50, 0, 11), ((3, 2, 2, 1), 15, 3, 5)):
        code, report = _arithmetic_report(tmp_path, params, trials, seed)
        expect = reference_arithmetic_report(params, trials, seed)
        assert code == 1 and report == expect
        inv = [f["g"] for f in expect["failures"] if f["check"] == "inv"]
        assert len(inv) == len(expect["failures"]) == count
        assert len(set(inv)) < len(inv)  # a failing element drawn again


def test_arithmetic_oracle_report_matches_per_trial_loop(tmp_path):
    for params, trials, seed in (((3, 3, 2, 2), 300, 7), ((5, 2, 2, 1), 200, 8)):
        code, _ = _arithmetic_report(tmp_path, params, trials, seed)
        expect = reference_arithmetic_report(params, trials, seed)
        assert code == 0 and (tmp_path / "report.json").read_text() == json.dumps(expect) + "\n"


def test_arithmetic_oracle_above_the_table_budget_matches_per_trial_loop(tmp_path):
    # |H| = 3125 is above the table budget: each chunk builds the rows it checks
    assert make_group(5, 3, 2, 2).order > cli.TABLE_BUDGET
    code, _ = _arithmetic_report(tmp_path, (5, 3, 2, 2), 300, 0)
    expect = reference_arithmetic_report((5, 3, 2, 2), 300, 0)
    assert code == 0 and (tmp_path / "report.json").read_text() == json.dumps(expect) + "\n"


def test_arithmetic_oracle_refuses_a_row_entry_that_is_not_a_rank(monkeypatch, tmp_path, capsys):
    # rows are narrowed and stacked only after every entry is seen to be a
    # rank, so a kernel off by |H| cannot wrap into a passing row; such a row
    # is a kernel fault, a failed verification (exit 1) naming its element
    def run(params):
        code = cli.main(["verify", "--target", "arithmetic", "--trials", "5", "--out", str(tmp_path / "r.json")]
                        + [x for name, v in zip(("--p", "--m", "--n", "--r"), params) for x in (name, str(v))])
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "r.json").read_text())
        assert code == 1 and report["passed"] is False
        return report["failures"]

    rows = PairGroup.right_mul_rows

    def shift_rank_5(self, ranks):
        block = rows(self, ranks)
        block[np.asarray(ranks) == 5] += self.order
        return block

    monkeypatch.setattr(PairGroup, "right_mul_rows", shift_rank_5)
    G = make_group(3, 2, 1, 1)
    assert run((3, 2, 1, 1)) == [{"check": "row", "g": G.element_str(G.unrank(5))}]
    product = PairGroup._product
    monkeypatch.setattr(PairGroup, "_product", lambda self, *parts: product(self, *parts) + self.order)
    # with a table the identity's row is built first, above the table budget a's
    for params, first in (((3, 2, 1, 1), (0, 0)), ((5, 3, 2, 2), (0, 1))):
        assert run(params)[-1] == {"check": "row", "g": make_group(*params).element_str(first)}


def test_arithmetic_oracle_blocks_keep_the_per_trial_report(monkeypatch, tmp_path):
    # blocks of 7 trials, checked in stacks of 1, 2 and 3 rows: a passing
    # run, and a failing one whose cut-off falls in a later block
    monkeypatch.setattr(cli, "TRIAL_BLOCK", 7)
    for rows in (1, 2, 3):
        monkeypatch.setattr(cli, "CHUNK_ENTRIES", rows * 243)
        code, _ = _arithmetic_report(tmp_path, (3, 3, 2, 2), 300, 7)
        expect = reference_arithmetic_report((3, 3, 2, 2), 300, 7)
        assert code == 0 and (tmp_path / "report.json").read_text() == json.dumps(expect) + "\n"
    monkeypatch.setattr(cli, "CHUNK_ENTRIES", 2 * 27)
    monkeypatch.setattr(cli, "invert", invert_unless_odd)
    code, report = _arithmetic_report(tmp_path, (3, 2, 1, 1), 50, 0)
    assert code == 1 and report == reference_arithmetic_report((3, 2, 1, 1), 50, 0)
    assert len(report["failures"]) == 11


def test_arithmetic_oracle_builds_each_row_once_and_holds_a_few(monkeypatch, tmp_path):
    # (3,3,2,2) has 243 elements.  Within the table budget every row is built
    # once; above it (the budget lowered here) the rows of each chunk of 5
    # trials are built for that chunk, so rows are built again, and no more
    # than the row stacks one check compares are alive at once
    params, trials, seed = (3, 3, 2, 2), 400, 9
    made = []  # every array made from the rows right_mul_rows returns

    class Tracked(np.ndarray):
        def __array_finalize__(self, obj):
            made.append(weakref.ref(self))

    def rows_held():
        # rows in the live 2-d integer arrays made from tracked rows, less views of them
        made[:] = [ref for ref in made if ref() is not None]
        arrays = (ref() for ref in made)
        return sum(len(a) for a in arrays if a is not None and a.ndim == 2 and a.dtype.kind in "iu"
                   and not isinstance(a.base, Tracked))

    right_mul_rows = PairGroup.right_mul_rows
    built, most_held = [], [0]

    def counted(self, ranks):
        most_held[0] = max(most_held[0], rows_held())
        built.append(len(ranks))
        return right_mul_rows(self, ranks).view(Tracked)

    expect = json.dumps(reference_arithmetic_report(params, trials, seed)) + "\n"
    monkeypatch.setattr(PairGroup, "right_mul_rows", counted)
    code, _ = _arithmetic_report(tmp_path, params, trials, seed)
    assert code == 0 and (tmp_path / "report.json").read_text() == expect
    assert sum(built) == 243 and most_held[0] == 0
    built.clear()
    monkeypatch.setattr(cli, "TABLE_BUDGET", 100)
    monkeypatch.setattr(cli, "CHUNK_ENTRIES", 5 * 243)
    code, _ = _arithmetic_report(tmp_path, params, trials, seed)
    assert code == 0 and (tmp_path / "report.json").read_text() == expect
    assert max(built) <= 5 and sum(built) > 2 * 243
    assert most_held[0] <= 3 * 5


@pytest.mark.parametrize("trials", [1500, 20000])
def test_arithmetic_oracle_memory_does_not_grow_with_trials(trials):
    # (3,3,3,2), |H| = 729: the row table takes ~1.1 MB and the order's
    # certificate four rows; a block's row stacks set the peak, ~1.8 MB with
    # --trials 0, ~3.6 MB at 1500 trials and ~5.0 MB at 20000
    args = cli.build_parser().parse_args(["verify", "--target", "arithmetic", "--p", "3", "--m", "3",
                                          "--n", "3", "--r", "2", "--trials", str(trials)])
    tracemalloc.start()
    try:
        report = cli._verify_arithmetic(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["passed"]
    assert peak < 6 * 10**6
