"""Property tests for the permutation kernels and the edge-list codec."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bicayley.graphs import Graph, format_edge_list, parse_edge_list, parse_graph_text  # noqa: E402
from bicayley.permgroup import compose, invert, orbit_labels, perm_power  # noqa: E402

from . import oracles  # noqa: E402

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
