"""Property tests for the group and permutation kernels, the graph codecs and the search."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bicayley import aut_group, canonical_form  # noqa: E402
from bicayley.graphs import (  # noqa: E402
    Graph,
    format_edge_list,
    graph6_decode,
    graph6_encode,
    parse_edge_list,
    parse_graph_text,
)
from bicayley.metacyclic import make_group  # noqa: E402
from bicayley.permgroup import compose, invert, orbit_labels, perm_power, perm_powers  # noqa: E402

from . import oracles  # noqa: E402
from .test_symmetry import disjoint_union  # noqa: E402

# derandomized: the same examples on every run, and no example database on disk
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

perms = st.integers(0, 24).flatmap(lambda n: st.permutations(range(n)).map(tuple))


def pairs_of_degree(count):
    return st.integers(0, 24).flatmap(
        lambda n: st.lists(st.permutations(range(n)).map(tuple), min_size=count, max_size=count)
    )


@SETTINGS
@given(pairs_of_degree(2), st.integers(-(10**20), 10**20))
def test_kernels_match_tuple_kernels(pq, k):
    p, q = pq
    assert compose(p, q).tolist() == list(oracles.compose(p, q))
    assert invert(p).tolist() == list(oracles.invert(p))
    assert perm_power(p, k).tolist() == list(oracles.perm_power(p, k))


# every valid (p, m, n, r) with r < m <= n + r and p^(m+n) <= 3^5
small_groups = st.tuples(st.sampled_from([3, 5]), st.integers(2, 4), st.integers(1, 3), st.integers(1, 3)).filter(
    lambda q: q[3] < q[1] <= q[2] + q[3] and q[0] ** (q[1] + q[2]) <= 3**5
)


@SETTINGS
@given(small_groups, st.data())
def test_grid_kernels_match_scalar_mul(params, data):
    G = make_group(*params)
    g = data.draw(st.sampled_from(G.elements()))
    right, left, table = G.right_mul_ranks(g), G.left_mul_ranks(g), G.cayley_table()
    assert right.tolist() == [G.rank(G.mul(h, g)) for h in G.elements()]
    assert left.tolist() == [G.rank(G.mul(g, h)) for h in G.elements()]
    assert np.array_equal(table[G.rank(g)], left) and np.array_equal(table[:, G.rank(g)], right)


# unsorted, with repeats, and with 0, +-1 and exponents far above any order
exponent_lists = st.lists(
    st.one_of(st.sampled_from([0, 1, -1]), st.integers(-100, 100), st.integers(-(10**20), 10**20)),
    max_size=12,
).flatmap(lambda ks: st.permutations(ks + ks[:2]))


@SETTINGS
@given(perms, exponent_lists)
def test_powers_match_tuple_powers(p, ks):
    arr = np.array(p, dtype=np.intp)
    out = perm_powers(arr, ks)
    assert [r.tolist() for r in out] == [list(oracles.perm_power(p, k)) for k in ks]
    for i, r in enumerate(out):  # no result aliases the input or another result
        r[...] = -1 - i
    assert arr.tolist() == list(p)
    assert all((r == -1 - i).all() for i, r in enumerate(out))
    for k in ks:
        assert np.array_equal(perm_power(p, k), perm_powers(p, [k])[0])


@SETTINGS
@given(perms, st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_power_is_a_homomorphism(p, a, b):
    assert np.array_equal(perm_power(p, a + b), compose(perm_power(p, a), perm_power(p, b)))
    assert np.array_equal(perm_power(p, -a), invert(perm_power(p, a)))


@SETTINGS
@given(st.integers(0, 24).flatmap(
    lambda n: st.lists(st.permutations(range(n)).map(tuple), max_size=3).map(lambda gs: (n, gs))
))
def test_orbit_labels_are_least_orbit_points(case):
    n, gens = case
    labels = orbit_labels(n, [np.array(g, dtype=np.intp) for g in gens])
    assert labels.tolist() == [min(oracles._orbit(x, gens)) for x in range(n)]


@SETTINGS
@given(st.integers(0, 12).flatmap(
    lambda n: st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]))
    .map(lambda es: Graph(n, es)) if n > 1 else st.just(Graph(n, []))
))
def test_edge_list_round_trip_keeps_every_vertex(g):
    text = format_edge_list(g)
    assert parse_edge_list(text) == g
    if text:  # auto-detection cannot tell the empty edge list of K_0
        assert parse_graph_text(text) == g
    assert text.startswith("# n=") == (g.n > 1 + max((v for _, v in g.edges), default=-1))


def graphs_on(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return st.sets(st.sampled_from(pairs)).map(lambda es: Graph(n, es)) if pairs else st.just(Graph(n, []))


# graphs on at most 9 vertices: arbitrary ones, and disjoint unions whose
# pieces repeat (the isomorphism classes the component search groups)
small_graphs = st.one_of(
    st.integers(0, 9).flatmap(graphs_on),
    st.lists(st.integers(1, 4).flatmap(graphs_on), min_size=1, max_size=2).flatmap(
        lambda ps: st.lists(st.sampled_from(ps), min_size=2, max_size=9 // max(p.n for p in ps))
    ).map(lambda ps: disjoint_union(*ps)),
)
relabelled = small_graphs.flatmap(lambda g: st.permutations(range(g.n)).map(lambda p: (g, list(p))))


@SETTINGS
@given(relabelled)
def test_canonical_form_is_relabelling_invariant(case):
    g, perm = case
    assert canonical_form(g.relabel(perm)) == canonical_form(g)


@SETTINGS
@given(relabelled)
def test_aut_order_is_relabelling_invariant(case):
    g, perm = case
    assert aut_group(g.relabel(perm)).order() == aut_group(g).order()


@SETTINGS
@given(small_graphs)
def test_graph6_round_trip(g):
    assert graph6_decode(graph6_encode(g)) == g
