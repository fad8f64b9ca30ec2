"""Property tests for the group and permutation kernels, the graph codecs and the search."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from bicayley import PermGroup, aut_group, canonical_form  # noqa: E402
from bicayley.graphs import (  # noqa: E402
    Graph,
    format_edge_list,
    graph6_decode,
    graph6_encode,
    parse_edge_list,
    parse_graph_text,
)
from bicayley.metacyclic import make_group  # noqa: E402
from bicayley.permgroup import (  # noqa: E402
    as_perm,
    compose,
    invert,
    is_permutation,
    orbit_labels,
    perm_power,
    perm_powers,
)

from . import oracles  # noqa: E402
from .test_permgroup import assert_refused, point_entry_points  # noqa: E402
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
    right, left, rows = G.right_mul_ranks(g), G.left_mul_ranks(g), G.right_mul_rows(np.arange(G.order))
    assert right.tolist() == [G.rank(G.mul(h, g)) for h in G.elements()]
    assert left.tolist() == [G.rank(G.mul(g, h)) for h in G.elements()]
    assert np.array_equal(rows[G.rank(g)], right) and np.array_equal(rows[:, G.rank(g)], left)


# unsorted, with repeats, and with 0, +-1 and exponents far above any order
exponent_lists = st.lists(
    st.one_of(st.sampled_from([0, 1, -1]), st.integers(-100, 100), st.integers(-(10**20), 10**20)),
    max_size=12,
).flatmap(lambda ks: st.permutations(ks + ks[:2]))


@SETTINGS
@given(perms, exponent_lists)
def test_powers_match_tuple_powers(p, ks):
    arr = np.array(p, dtype=np.intp)[None]  # a one-row stack
    out = perm_powers(arr, ks, [0] * len(ks))
    assert [r.tolist() for r in out] == [list(oracles.perm_power(p, k)) for k in ks]
    for i, r in enumerate(out):  # no result aliases the input or another result
        r[...] = -1 - i
    assert arr[0].tolist() == list(p)
    assert all((r == -1 - i).all() for i, r in enumerate(out))


def stack_of(m, n):
    """(m, n) stacks, each row a permutation or the identity."""
    rows = st.one_of(st.permutations(range(n)), st.just(list(range(n))))
    return st.lists(rows, min_size=m, max_size=m).map(lambda rs: np.array(rs, dtype=np.intp).reshape(m, n))


# two stacks of one shape, up to 5 rows, and the dtype they are stored in
stack_pairs = st.tuples(st.integers(0, 5), st.integers(0, 12)).flatmap(lambda mn: st.tuples(stack_of(*mn), stack_of(*mn)))
stack_dtypes = st.sampled_from([np.intp, np.int32, np.uint8])


@SETTINGS
@given(stack_pairs, stack_dtypes)
def test_stacked_kernels_match_1d_kernels_row_by_row(PQ, dtype):
    # compose and invert; the stacked powers have a test of their own below
    P, Q = (a.astype(dtype) for a in PQ)
    composed, inverted = compose(P, Q), invert(P)
    assert composed.shape == inverted.shape == P.shape and inverted.dtype == P.dtype
    for i, (p, q) in enumerate(zip(P, Q)):
        assert np.array_equal(composed[i], compose(p, q))
        assert np.array_equal(inverted[i], invert(p))
    assert np.array_equal(P, PQ[0])


# (0 1)(2 3 4): point 0 has period 2 but p^2 is not the identity
MIXED = [1, 0, 3, 4, 2]


def power_stacks(n):
    """(m, n) stacks of 1 to 5 rows, rows repeated, among them the identity and
    (0 1)(2 3 4) on the first five points, with the powers wanted: a row
    index and an exponent each, 0, +-1 and +-10^20 among them."""
    rows = [st.permutations(range(n)), st.just(list(range(n)))]
    if n >= 5:
        rows.append(st.just(MIXED + list(range(5, n))))
    stacks = st.lists(st.one_of(rows), min_size=1, max_size=5).flatmap(lambda rs: st.permutations(rs + rs[:1]))
    exponents = st.one_of(st.sampled_from([0, 1, -1, 10**20, -(10**20)]), st.integers(-100, 100),
                          st.integers(-(10**20), 10**20))
    return stacks.flatmap(lambda rs: st.tuples(st.just(rs), st.lists(
        st.tuples(st.integers(0, len(rs) - 1), exponents), max_size=12)))


@SETTINGS
@given(st.integers(0, 12).flatmap(power_stacks), st.sampled_from([np.intp, np.uint8, np.uint16]))
def test_stacked_powers_match_tuple_powers_row_by_row(case, dtype):
    rows, wanted = case
    P = np.array(rows, dtype=dtype).reshape(len(rows), -1)
    at, ks = [r for r, _ in wanted], [k for _, k in wanted]
    out = perm_powers(P, ks, at)
    assert out.dtype == P.dtype and out.shape == (len(wanted), P.shape[1])
    for r, k, power in zip(at, ks, out):
        assert power.tolist() == list(oracles.perm_power(tuple(rows[r]), k))
    out[...] = 0  # no result aliases the stack
    assert P.tolist() == [list(r) for r in rows]


def _period(p, bound):
    """The least L <= bound with p^L fixing point 0, or 0 if there is none."""
    if not len(p) or bound < 1:
        return 0
    images = memoryview(p)  # a point at a time, as Python ints
    x, steps = images[0], 1
    while x and steps < bound:
        x, steps = images[x], steps + 1
    return 0 if x else steps


def powers_reduced_unchecked(p, exponents, rows):
    """perm_powers with every k reduced mod the period L of point 0 under its
    row, without checking that p^L is the identity."""
    bound = {r: max(abs(k) for s, k in zip(rows, exponents) if s == r) for r in rows}
    periods = {r: _period(as_perm(p[r]), bound[r]) for r in bound}
    return perm_powers(p, [k % periods[r] if periods[r] else k for r, k in zip(rows, exponents)], rows)


def assert_powers_match_tuple_powers(kernel, rows, ks):
    """kernel's powers of each row, as a one-row stack and as a row of one
    stack of all the rows, against the tuple oracle."""
    stack = np.array(rows, dtype=np.intp)
    stacked = kernel(stack, ks * len(rows), [i for i in range(len(rows)) for _ in ks])
    for i, p in enumerate(rows):
        want = [list(oracles.perm_power(tuple(p), k)) for k in ks]
        assert kernel(stack[i : i + 1], ks, [0] * len(ks)).tolist() == want
        assert stacked[i * len(ks) : (i + 1) * len(ks)].tolist() == want


POWER_CASES = [  # rows, each also a row of one stack, and exponents
    ([MIXED], [2]),
    ([MIXED, [0, 1, 2, 3, 4]], [2, -2, 4, 0, 10**20 + 2]),  # the identity has period 1
    ([[1, 2, 0, 4, 5, 3], [1, 0, 3, 2, 5, 4]], [-7, 0, 6, 10**20, -(10**20) - 1]),  # orders 3 and 2
    ([MIXED, [1, 2, 0, 4, 3]], [6, 7, -5, 30]),  # periods 2 and 3 at point 0, both of order 6
]


@pytest.mark.parametrize("rows, ks", POWER_CASES)
def test_powers_reduce_only_by_a_verified_period(rows, ks):
    assert_powers_match_tuple_powers(perm_powers, rows, ks)


def test_power_cases_catch_a_reduction_without_the_check():
    assert _period(as_perm(MIXED), 2) == 2 and not np.array_equal(perm_power(MIXED, 2), np.arange(5))
    rows, ks = POWER_CASES[0]
    with pytest.raises(AssertionError):  # as a one-row stack
        assert_powers_match_tuple_powers(powers_reduced_unchecked, rows, ks)
    # as a row of a larger stack alone: the one-row stacks are right
    with pytest.raises(AssertionError):
        assert_powers_match_tuple_powers(lambda p, ks, at: (powers_reduced_unchecked if len(p) > 1 else perm_powers)
                                         (p, ks, at), rows + [list(range(5))], ks)


# (degree, images): permutations, and integer lists with negatives, repeats,
# out-of-range values and wrong lengths
maps = st.integers(0, 12).flatmap(lambda n: st.tuples(st.just(n), st.one_of(
    st.permutations(range(n)).map(list),
    st.lists(st.integers(-3, n + 3), min_size=max(0, n - 2), max_size=n + 2),
    st.permutations(range(n)).flatmap(lambda p: st.integers(-2, n + 2).flatmap(
        lambda v: st.sampled_from(range(max(1, n))).map(lambda i: p[:i] + [v] + p[i + 1 :]))),
)))


@SETTINGS
@given(maps, st.sampled_from([np.int8, np.int32, np.int64, np.intp, np.uint16, np.uint64]))
def test_is_permutation_matches_sort_oracle(case, dtype):
    n, images = case
    assume(np.dtype(dtype).kind == "i" or min(images, default=0) >= 0)
    expect = oracles.is_permutation_by_sort(images, n)
    assert is_permutation(images, n) == expect
    assert is_permutation(np.array(images, dtype=dtype), n) == expect


@SETTINGS
@given(perms)
def test_is_permutation_refuses_other_image_types(p):
    """Integer images only: a permutation as float, bool, str or object
    images is refused, not truncated; an empty one is the empty permutation."""
    n = len(p)
    for images in (np.array(p, dtype=float), np.array(p) + 0.5, np.array(p, dtype=bool),
                   np.array([str(x) for x in p]), np.array(p, dtype=object)):
        assert is_permutation(images, n) == (n == 0), images.dtype
    assert is_permutation(np.array(p, dtype=np.intp), n)


INTEGER_DTYPES = [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64, np.intp]


def caller_forms(p):
    """p, a permutation as a list, in forms a caller may pass: a list, a
    tuple or an array of any integer dtype; the same as floats, floats plus
    0.5, bools, strings or objects; or one entry made a float, a bool (if it
    is 0 or 1: numpy reads [True, 0] as integers), a string, a one- or
    two-point row or None."""
    whole = [list(p), tuple(p), *(np.array(p, dtype=d) for d in INTEGER_DTYPES),
             [float(x) for x in p], [x + 0.5 for x in p], [bool(x) for x in p], [str(x) for x in p],
             np.array(p, dtype=float), np.array(p, dtype=bool), np.array([str(x) for x in p]),
             np.array(p, dtype=object)]
    forms = st.sampled_from(whole)
    if not p:
        return forms
    kinds = [float, lambda x: bool(x) if x < 2 else x, str, lambda x: [x], lambda x: [x, x], lambda x: None]
    one = st.tuples(st.integers(0, len(p) - 1), st.sampled_from(kinds)).map(
        lambda ik: p[: ik[0]] + [ik[1](p[ik[0]])] + p[ik[0] + 1 :])
    return st.one_of(forms, one)


def _result(value):
    """A value comparable across dtypes: arrays and groups as lists."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, PermGroup):
        return [g.tolist() for g in value.generators], value._base
    if isinstance(value, tuple):
        return tuple(map(_result, value))
    return value


def _outcome(call, arg):
    try:
        return _result(call(arg))
    except Exception as exc:
        return type(exc)


@SETTINGS
@given(st.integers(0, 5).flatmap(lambda n: st.permutations(range(n)).map(list)).flatmap(
    lambda p: st.tuples(st.just(len(p)), caller_forms(p))))
def test_every_entry_point_follows_the_one_integer_rule(case):
    """Against `oracles.integer_points`, which walks the input: points it
    refuses make a predicate answer False and every other entry point raise
    its refusal type; points it reads as integers give the same outcome as
    the same points in an np.intp array."""
    n, x = case
    for name, refusal, wrap, call in point_entry_points(n):
        arg = wrap(x)
        points = oracles.integer_points(arg)
        if points is None:
            assert_refused(refusal, call, arg, name)
        else:
            assert _outcome(call, arg) == _outcome(call, np.array(points, dtype=np.intp)), name


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
