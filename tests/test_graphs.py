import random

import numpy as np
import pytest

from bicayley.errors import DegreeMismatch, GraphParseError, InvariantViolation
from bicayley.graphs import (
    Graph,
    format_edge_list,
    graph6_decode,
    graph6_encode,
    graph_to_json_dict,
    parse_edge_list,
    parse_graph_text,
)

from .oracles import adjacency, components_by_bfs


def test_graph_normalizes_edges():
    g = Graph(4, [(1, 0), (0, 1), (2, 3)])
    assert g.edges.tolist() == [[0, 1], [2, 3]]
    assert adjacency(g)[0] == (1,)
    assert g.degrees() == (1, 1, 1, 1)


def _pair_inputs(pairs):
    """The same pairs as a list, a generator and int64 and intp arrays."""
    yield pairs
    yield (pair for pair in pairs)
    for dtype in (np.int64, np.intp):
        yield np.array(pairs, dtype=dtype).reshape(-1, 2)


def test_graph_constructor_matches_edge_loop_oracle():
    from .oracles import graph_by_edge_loop

    rng = random.Random(13)
    cases = [(0, []), (1, []), (6, [(1, 3)]), (4, [(2, 0), (0, 2), (0, 2), (3, 1)])]
    for _ in range(40):
        n = rng.randrange(2, 40)
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(n))]
        pairs += [(v, u) for u, v in rng.sample(pairs, len(pairs) // 3)]  # reversed repeats
        pairs += rng.sample(pairs, len(pairs) // 4)  # exact repeats
        rng.shuffle(pairs)
        cases.append((n, pairs))
    for n, pairs in cases:
        edges, adj = graph_by_edge_loop(n, pairs)
        for given in _pair_inputs(pairs):
            g = Graph(n, given)
            assert g.edges.tolist() == [list(e) for e in edges]
            assert adjacency(g) == adj
            assert g.edges.dtype == np.intp and not g.edges.flags.writeable


def test_graph_constructor_errors_match_edge_loop_oracle():
    from .oracles import graph_by_edge_loop

    rng = random.Random(17)
    cases = [(0, [(0, 1)]), (3, [(4, 4)]), (3, [(0, 1), (-1, 2)]), (3, [(1, 3), (2, 2)])]
    for _ in range(40):
        n = rng.randrange(2, 20)
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(1, n))]
        for _ in range(rng.randrange(1, 3)):  # the first bad pair names the fault
            v = rng.randrange(n)
            bad = rng.choice([(v, v), (v, -1 - v), (n + v, v), (v, n)])
            pairs.insert(rng.randrange(len(pairs) + 1), bad)
        cases.append((n, pairs))
    for n, pairs in cases:
        with pytest.raises(InvariantViolation) as want:
            graph_by_edge_loop(n, pairs)
        for given in _pair_inputs(pairs):
            with pytest.raises(InvariantViolation) as got:
                Graph(n, given)
            assert str(got.value) == str(want.value)
    # not integer pairs
    for given in ([(0, 1, 2)], [(0, 1), (1, 2, 0)], [0, 1, 1, 2], [(0,)], np.zeros((2, 3), dtype=int),
                  np.array([0, 1]), [(0.5, 1)], [("0", "1")]):
        with pytest.raises(InvariantViolation):
            Graph(3, given)


def test_graph_rejects_bad_edges():
    with pytest.raises(InvariantViolation):
        Graph(3, [(0, 0)])
    with pytest.raises(InvariantViolation):
        Graph(3, [(0, 3)])
    # a negative count failed later in degrees(), a float in every later call
    for n in (-1, np.int64(-1), 2.5, 3.0, "3", None):
        with pytest.raises(InvariantViolation, match="not a non-negative integer"):
            Graph(n, [])
    g = Graph(np.int64(3), [(0, 1)])  # numpy integers pass, as Python ints
    assert type(g.n) is int and g.degrees() == (1, 1, 0)


def test_graph6_known_values():
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert graph6_encode(triangle) == "Bw"
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert graph6_encode(k4) == "C~"
    assert graph6_decode("Bw") == triangle
    assert graph6_decode(">>graph6<<Bw") == triangle


def test_graph6_round_trip_random():
    rng = random.Random(7)
    for n in (1, 2, 5, 26, 63, 100):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2]
        g = Graph(n, edges)
        assert graph6_decode(graph6_encode(g)) == g


def test_graph6_parse_errors_carry_offsets():
    with pytest.raises(GraphParseError) as exc:
        graph6_decode("B\x19")
    assert exc.value.offset == 1
    with pytest.raises(GraphParseError):
        graph6_decode("Bww")  # wrong body length
    with pytest.raises(GraphParseError):
        graph6_decode("")


def test_edge_list_round_trip():
    g = Graph(5, [(0, 1), (3, 4), (1, 3)])
    text = format_edge_list(g)
    assert text == "0 1\n1 3\n3 4\n"
    assert parse_edge_list(text) == g


def test_edge_list_keeps_isolated_vertices():
    for g in (Graph(4, [(0, 1)]), Graph(3, []), Graph(1, []), Graph(6, [(0, 2), (1, 3)])):
        text = format_edge_list(g)
        assert text.startswith(f"# n={g.n}\n")
        assert parse_edge_list(text) == g
        assert parse_graph_text(text) == g
    # no vertex past the largest endpoint: no header, byte-identical to the plain format
    assert format_edge_list(Graph(4, [(0, 1), (2, 3)])) == "0 1\n2 3\n"
    assert format_edge_list(Graph(5, [(0, 4), (1, 2)])) == "0 4\n1 2\n"  # the last row is not the largest endpoint
    assert format_edge_list(Graph(0, [])) == ""


def test_edge_list_header_bounds_endpoints():
    assert parse_edge_list("# n=5\n0 1\n").n == 5
    assert parse_edge_list("0 1\n# n=5\n").n == 2  # only a first line is a header
    with pytest.raises(GraphParseError) as exc:
        parse_edge_list("# n=3\n0 1\n1 3\n")
    assert exc.value.offset == 10


def test_edge_list_parse_errors():
    with pytest.raises(GraphParseError) as exc:
        parse_edge_list("0 1\n2 two\n")
    assert exc.value.offset == 4
    with pytest.raises(GraphParseError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(GraphParseError, match="bad edge \\(3, 3\\)") as exc:
        parse_edge_list("0 1\n3 3\n")  # a loop
    assert exc.value.offset == 4


def test_edge_list_reads_only_ascii_decimal_digits():
    # int() and str.isdigit took each of these as a number
    for text, offset in (("0 \u0661\n", 0), ("0 1_0\n", 0), ("0 +2\n", 0), ("# n=\u0661\u0662\n", 0),
                         ("# \u00e9\n0 +2\n", 5)):  # the offset counts the two bytes of é
        with pytest.raises(GraphParseError, match="non-decimal") as exc:
            parse_edge_list(text)
        assert exc.value.offset == offset
    with pytest.raises(GraphParseError, match="non-decimal") as exc:
        parse_graph_text("\u0660 \u0662\n")  # inner whitespace: read as an edge list
    assert exc.value.offset == 0


def test_edge_list_separators_are_ascii():
    # str.splitlines ends a line at "\x1c" and str.split splits at an em space
    for text, offset in (("0\u20031\n", 0), ("0 1\x1c1 2\n", 0), ("0 1\n1\u00a02\n", 4),
                         ("0 1\r2 3\n", 0), ("0 1\r\r\n", 0), ("# n=5\u2003\n", 0)):
        for fmt in ("edges", "auto"):
            with pytest.raises(GraphParseError) as exc:
                parse_graph_text(text, fmt)
            assert exc.value.offset == offset
    g = Graph(5, [(0, 1), (1, 3), (2, 3)])
    crlf = format_edge_list(g).replace("\n", "\r\n")
    assert crlf == "# n=5\r\n0 1\r\n1 3\r\n2 3\r\n"
    assert parse_edge_list(crlf) == parse_graph_text(crlf) == g
    assert parse_edge_list("0\t1\r\n \t\r\n1 \t 3\r\n") == Graph(4, [(0, 1), (1, 3)])
    with pytest.raises(GraphParseError) as exc:
        parse_edge_list("# n=3\r\n0 1\r\n1 3\r\n")
    assert exc.value.offset == 12  # byte offsets count each "\r\n" as two bytes


def test_auto_detection():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert parse_graph_text("Bw") == g
    assert parse_graph_text(format_edge_list(g)) == g


def test_an_explicit_format_is_read_as_given():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert parse_graph_text("Bw", fmt="g6") == g
    # "0 1" auto-detects as an edge list, and is no graph6 string
    with pytest.raises(GraphParseError, match="invalid graph6 byte"):
        parse_graph_text("0 1\n", fmt="g6")
    for fmt in ("graph6", "G6", ""):
        with pytest.raises(GraphParseError, match="unknown format") as exc:
            parse_graph_text("Bw", fmt=fmt)
        assert exc.value.offset == 0


def test_valency_needs_a_regular_graph():
    assert Graph(4, [(0, 1), (2, 3)]).valency() == 1 and Graph(0, []).valency() == 0
    with pytest.raises(InvariantViolation, match="not regular"):
        Graph(3, [(0, 1)]).valency()


def test_relabel():
    g = Graph(3, [(0, 1)])
    assert g.relabel([2, 1, 0]).edges.tolist() == [[1, 2]]
    assert g.relabel(np.array([2, 1, 0], dtype=np.uint8)) == g.relabel([2, 1, 0])


def test_relabel_refuses_a_map_that_is_not_a_permutation():
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    # a repeat, truncated float images, a bool array and a wrapping -1
    for bad in ([0, 1, 0, 2], [3.9, 2.1, 1.0, 0.0], [True, False, True, True], [0, 1, 2, -1]):
        with pytest.raises(InvariantViolation, match="not a bijection"):
            path.relabel(bad)
    for bad in ([2, 1, 0], [0, 1, 2, 3, 4]):
        with pytest.raises(DegreeMismatch, match="expected 4"):
            path.relabel(bad)


def test_subgraph_refuses_repeated_or_foreign_vertices():
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert path.subgraph([2, 1]) == Graph(2, [(0, 1)])
    assert path.subgraph([]) == Graph(0, [])
    for bad in ([0, 0, 1], [0, 7], [-1, 0], [0.0, 1.0], [[0, 1]], [0, 1, 2, 3, 0]):
        with pytest.raises(InvariantViolation, match="distinct integers in \\[0, 4\\)"):
            path.subgraph(bad)


def test_preserves_edges_needs_a_permutation():
    g = Graph(4, [(0, 1)])
    assert g.preserves_edges([1, 0, 2, 3]) and g.preserves_edges([1, 0, 3, 2])
    assert g.preserves_edges(np.array([1, 0, 3, 2], dtype=np.uint8))
    assert not g.preserves_edges([0, 2, 1, 3])
    # each maps the edge {0, 1} onto itself but is no permutation of [0, 4)
    for bad in ([0, 1, 2, 2], [1, 0], [0, 1, -1, 3], [1, 0, 2, 3, 4], [1, 0, 3, -2], [1.0, 0.0, 2.0, 3.0],
                [1, 0, 2.5, 3], [True, False, True, True], ["1", "0", "2", "3"]):
        assert not g.preserves_edges(bad), bad


def _component_cases():
    """Seeded graphs from empty to dense, with isolated vertices and many
    components, the sparse ones relabelled so components interleave."""
    rng = random.Random(71)
    graphs = [Graph(0, []), Graph(1, []), Graph(2, []), Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4)])]
    for k in range(320):
        n = rng.randrange(1, 80)
        m = rng.choice([0, n // 4, n // 2, n, 3 * n])
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(m)] if n > 1 else []
        graphs.append(Graph(n, pairs))
    for k in range(20):  # unions of 10 to 30 cycles and paths under a shuffle
        pieces = [rng.randrange(1, 8) for _ in range(rng.randrange(10, 31))]
        perm = list(range(sum(pieces)))
        rng.shuffle(perm)
        edges, start = [], 0
        for size in pieces:
            edges += [(perm[start + i], perm[start + i + 1]) for i in range(size - 1)]
            if size > 2 and k % 2:
                edges.append((perm[start], perm[start + size - 1]))
            start += size
        graphs.append(Graph(start, edges))
    return graphs


def test_components_match_bfs_oracle():
    graphs = _component_cases()
    counts = []
    for g in graphs:
        comps = components_by_bfs(g)
        counts.append(len(comps))
        assert g.components() == comps
        assert g.is_connected() == (len(comps) <= 1)
        # the header is written exactly when the last vertex has no neighbour
        assert format_edge_list(g).startswith("# n=") == (g.n > 0 and not adjacency(g)[-1])
    assert len(graphs) >= 300
    assert sum(c >= 10 for c in counts) >= 50
    assert sum(any(len(c) == 1 for c in components_by_bfs(g)) for g in graphs if g.n > 1) >= 100
    assert 0 < sum(c == 1 for c in counts) < len(graphs)


def test_components_match_networkx():
    nx = pytest.importorskip("networkx")
    for g in _component_cases():
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges.tolist())
        assert g.components() == sorted(sorted(c) for c in nx.connected_components(h))
        assert g.is_connected() == (g.n == 0 or nx.is_connected(h))


def test_connectivity_and_json():
    g = Graph(4, [(0, 1), (2, 3)])
    assert not g.is_connected()
    assert Graph(2, [(0, 1)]).is_connected()
    d = graph_to_json_dict(g)
    assert d["vertex_count"] == 4 and d["edge_count"] == 2


def test_graph6_codecs_match_bitwise_oracle():
    from .oracles import graph6_decode_by_bits, graph6_encode_by_bits

    rng = random.Random(11)
    for n in range(81):  # 62 and 63 straddle the one-byte size header
        density = rng.choice((0.0, 0.05, 0.3, 1.0))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        g = Graph(n, edges)
        text = graph6_encode(g)
        assert text == graph6_encode_by_bits(g)
        assert graph6_decode(text) == graph6_decode_by_bits(text) == g
        if n * (n - 1) // 2 % 6:
            # set the last padding bit: both decoders ignore it
            padded = text[:-1] + chr(ord(text[-1]) + 1)
            assert graph6_decode(padded) == graph6_decode_by_bits(padded) == g


def test_graph6_parse_errors_match_bitwise_oracle():
    from .oracles import graph6_decode_by_bits

    for text in ("", "B\x19", "Bww", "~", "~??", "~~???", "C~\x7f", "C\x19~\x7f", "Bwé", "é", "Bé", "B\x19é"):
        with pytest.raises(GraphParseError) as fast:
            graph6_decode(text)
        with pytest.raises(GraphParseError) as slow:
            graph6_decode_by_bits(text)
        assert str(fast.value) == str(slow.value)
        assert fast.value.offset == slow.value.offset


def test_graph6_rejects_non_ascii():
    # "?" is a valid zero byte: no non-ASCII character may decode as one
    for text, offset in (("é", 0), ("Bé", 1), ("Aé", 1), (">>graph6<<Bwé", 2), ("C~\u00ff", 2)):
        with pytest.raises(GraphParseError, match="non-ASCII") as exc:
            graph6_decode(text)
        assert exc.value.offset == offset


def test_edge_list_vertex_budget():
    from bicayley.permgroup import DEGREE_BUDGET

    assert parse_edge_list(f"# n={DEGREE_BUDGET}\n").n == DEGREE_BUDGET
    assert parse_edge_list(f"0 {DEGREE_BUDGET - 1}\n").n == DEGREE_BUDGET
    # 5000 digits: more than int() converts (it raised a bare ValueError on the header)
    huge = "9" * 5000
    for text in (f"# n={DEGREE_BUDGET + 1}\n", f"0 1\n{DEGREE_BUDGET} 0\n", f"# n={huge}\n", f"0 {huge}\n"):
        with pytest.raises(GraphParseError, match="budget"):
            parse_edge_list(text)
