import random

import pytest

from bicayley.errors import GraphParseError, InvariantViolation
from bicayley.graphs import (
    Graph,
    format_edge_list,
    graph6_decode,
    graph6_encode,
    graph_to_json_dict,
    parse_edge_list,
    parse_graph_text,
)


def test_graph_normalizes_edges():
    g = Graph(4, [(1, 0), (0, 1), (2, 3)])
    assert g.edges == ((0, 1), (2, 3))
    assert g.adj[0] == (1,)
    assert g.degrees() == (1, 1, 1, 1)


def test_graph_rejects_bad_edges():
    with pytest.raises(InvariantViolation):
        Graph(3, [(0, 0)])
    with pytest.raises(InvariantViolation):
        Graph(3, [(0, 3)])


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


def test_edge_list_reads_only_ascii_decimal_digits():
    # int() and str.isdigit took each of these as a number
    for text, offset in (("0 \u0661\n", 0), ("0 1_0\n", 0), ("0 +2\n", 0), ("# n=\u0661\u0662\n", 0),
                         ("# \u00e9\n0 +2\n", 5)):  # the offset counts the two bytes of é
        with pytest.raises(GraphParseError, match="non-decimal") as exc:
            parse_edge_list(text)
        assert exc.value.offset == offset
    with pytest.raises(GraphParseError) as exc:
        parse_graph_text("\u0660 \u0662\n")  # not an edge list, so not graph6 either
    assert exc.value.offset == 0


def test_auto_detection():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert parse_graph_text("Bw") == g
    assert parse_graph_text(format_edge_list(g)) == g


def test_relabel():
    g = Graph(3, [(0, 1)])
    assert g.relabel([2, 1, 0]).edges == ((1, 2),)


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
