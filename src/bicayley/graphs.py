"""Simple undirected graphs with graph6 and edge-list serialization."""

from __future__ import annotations

import operator
import re
from typing import Iterable, Sequence

from .errors import GraphParseError, InvariantViolation
from .permgroup import (DEGREE_BUDGET, _distinct_points, _integer_array, _validate_perm, as_perm, is_permutation,
                        orbit_labels, orbit_lists)


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    `Graph(n, edges)` takes a non-negative integer n (any type with
    `__index__`) and an (m, 2) integer array or an iterable of pairs, in any
    order and orientation, repeats allowed.  Any other n raises
    InvariantViolation; so do a loop, an endpoint outside [0, n) or input
    that is not integer pairs, naming the first bad pair.  `edges` is then
    the one edge format, a read-only (m, 2) np.intp array whose rows are
    u < v, sorted and distinct.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[Sequence[int]]):
        import numpy as np  # see graph6_encode

        if not hasattr(type(n), "__index__") or operator.index(n) < 0:
            raise InvariantViolation(f"vertex count {n!r} is not a non-negative integer")
        n = operator.index(n)
        if not isinstance(edges, np.ndarray):
            edges = list(edges) or np.empty((0, 2), dtype=np.intp)
        arr = _integer_array(edges)
        if arr is None or arr.ndim != 2 or arr.shape[1] != 2:
            raise InvariantViolation("edges must be (u, v) pairs of integers")
        u, v = arr.astype(np.intp, copy=False).T
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        if bad.any():
            a, b = arr[bad.argmax()].tolist()
            if a == b:
                raise InvariantViolation(f"loop at vertex {a}")
            raise InvariantViolation(f"edge ({a}, {b}) outside vertex range")
        keys = np.sort(lo * n + hi)
        keys = keys[np.diff(keys, prepend=-1) != 0]  # np.unique, without its hashing
        self.n = n
        self.edges = np.stack(np.divmod(keys, n), axis=1)
        self.edges.flags.writeable = False

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        import numpy as np  # see graph6_encode

        return tuple(np.bincount(self.edges.ravel(), minlength=self.n).tolist())

    def is_regular(self) -> bool:
        degs = self.degrees()
        return self.n == 0 or min(degs) == max(degs)

    def valency(self) -> int:
        if not self.is_regular():
            raise InvariantViolation("graph is not regular")
        return self.degrees()[0] if self.n else 0

    def preserves_edges(self, perm: Sequence[int]) -> bool:
        """Whether perm is a permutation of [0, n) that maps the edge set onto
        itself, that is an automorphism of the graph."""
        import numpy as np  # see graph6_encode

        if not is_permutation(perm, self.n):
            return False
        e = self.edges
        a, b = as_perm(perm)[e].T
        image = np.sort(np.minimum(a, b) * self.n + np.maximum(a, b))
        return bool(np.array_equal(image, e[:, 0] * self.n + e[:, 1]))

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """New graph with vertex v renamed to perm[v]; a perm that is not a
        permutation of [0, n) raises `_validate_perm`'s errors."""
        return Graph(self.n, _validate_perm(perm, self.n)[self.edges])

    def is_connected(self) -> bool:
        return bool((orbit_labels(self.n, [self.edges]) == 0).all())

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by first vertex:
        the orbits of the edge array under `orbit_labels` (`orbit_lists`)."""
        return orbit_lists(orbit_labels(self.n, [self.edges]))

    def subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph on distinct vertices; vertex k of the result is
        vertices[k].  Repeated, out-of-range or non-integer vertices raise
        InvariantViolation."""
        import numpy as np  # see graph6_encode

        vertices = _integer_array(vertices)
        if not _distinct_points(vertices, self.n):
            raise InvariantViolation(f"subgraph vertices must be distinct integers in [0, {self.n})")
        index = np.full(self.n, -1, dtype=np.intp)
        index[vertices] = np.arange(len(vertices))
        ends = index[self.edges]
        return Graph(len(vertices), ends[(ends >= 0).all(axis=1)])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges.tobytes() == other.edges.tobytes()
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


# -- graph6 ---------------------------------------------------------------
#
# Standard encoding: N(n) header, then the upper triangle of the adjacency
# matrix read column by column ((0,1), (0,2), (1,2), (0,3), ...), packed into
# 6-bit groups, each group printed as one byte with +63 offset.


def _g6_size_header(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    if n <= 258047:
        return "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr(63 + ((n >> s) & 63)) for s in (30, 24, 18, 12, 6, 0))
    raise InvariantViolation("graph too large for graph6")


def graph6_encode(g: Graph) -> str:
    # numpy is imported on use: imported before the rest of the package
    # (bicay imports this module first) it raised peak RSS by about 1.6 MB
    import numpy as np

    n = g.n
    body = np.zeros((n * (n - 1) // 2 + 5) // 6, dtype=np.uint8)
    u, v = g.edges.T
    # position of pair (u, v), u < v, in column-major upper-triangle order
    k = v * (v - 1) // 2 + u
    np.bitwise_or.at(body, k // 6, (32 >> (k % 6)).astype(np.uint8))
    body += 63
    return _g6_size_header(n) + body.tobytes().decode("ascii")


def graph6_decode(text: str) -> Graph:
    import numpy as np  # see graph6_encode

    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise GraphParseError("empty graph6 string", 0)
    # the first non-ASCII character ends the bytes that can be checked
    end = len(s) if s.isascii() else next(k for k, ch in enumerate(s) if not ch.isascii())
    data = s[:end].encode("ascii")
    raw = np.frombuffer(data, dtype=np.uint8)
    bad = np.flatnonzero((raw < 63) | (raw > 126))
    if bad.size:
        off = int(bad[0])
        raise GraphParseError(f"invalid graph6 byte {data[off]!r}", off)
    if end < len(s):
        raise GraphParseError(f"non-ASCII character {s[end]!r} in graph6", end)
    # N(n) is one byte, "~" and three bytes, or "~~" and six bytes
    start, pos = (2, 8) if data[:2] == b"~~" else (1, 4) if data[:1] == b"~" else (0, 1)
    if len(data) < pos:
        raise GraphParseError("truncated graph6 size header", len(data))
    n = 0
    for byte in data[start:pos]:
        n = (n << 6) | (byte - 63)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - pos != need:
        raise GraphParseError(
            f"graph6 body has {len(data) - pos} bytes, expected {need}", pos
        )
    body = raw[pos:] - np.uint8(63)
    nonzero = np.flatnonzero(body)
    rows, cols = np.nonzero(np.unpackbits(body[nonzero, None], axis=1)[:, 2:])
    k = nonzero[rows] * 6 + cols
    k = k[k < nbits]  # drop the padding bits
    # column v holds positions v(v-1)/2 .. v(v+1)/2 - 1; the floored float
    # root is exact for k < 2^50, far past any graph that fits in memory
    v = ((1 + np.sqrt(8 * k + 1)) // 2).astype(np.int64)
    u = k - v * (v - 1) // 2
    return Graph(n, np.stack([u, v], axis=1))


# -- edge lists -------------------------------------------------------------


def format_edge_list(g: Graph) -> str:
    """One "u v" line per edge, 0-indexed, u < v, sorted.

    A first line "# n=<count>" keeps vertices past the largest endpoint; it is
    written only when there are such vertices.
    """
    header = f"# n={g.n}\n" if g.edges[:, 1].max(initial=-1) < g.n - 1 else ""
    return header + "".join(f"{u} {v}\n" for u, v in g.edges.tolist())


# only ASCII spaces and tabs separate fields: \s and str.split also take "\u2003"
_VERTEX_COUNT_HEADER = re.compile(r"#[ \t]*n[ \t]*=[ \t]*([^ \t]+)")
_FIELD_SEPARATOR = re.compile(r"[ \t]+")
_DECIMAL = re.compile(r"[0-9]+")


def _decimal(token: str, what: str, line: str, offset: int) -> int:
    # int() and str.isdigit also take non-ASCII digits, "_" and a leading "+"
    if not _DECIMAL.fullmatch(token):
        raise GraphParseError(f"non-decimal {what} in {line!r}", offset)
    try:
        return int(token)
    except ValueError:  # more digits than int() converts, so far over any budget
        raise GraphParseError(f"{what} of {len(token)} digits exceeds the budget", offset) from None


def _check_vertex_count(n: int, offset: int) -> None:
    if n > DEGREE_BUDGET:
        raise GraphParseError(f"vertex count {n} exceeds the budget {DEGREE_BUDGET}", offset)


def parse_edge_list(text: str) -> Graph:
    """Read "u v" lines; "#" starts a comment line.  A first line "# n=<count>"
    fixes the vertex count, otherwise it is one more than the largest endpoint.
    Lines end at "\n", optionally preceded by one "\r"; fields are separated
    by ASCII spaces and tabs.  Counts and endpoints are ASCII decimal digits.
    A vertex count above permgroup.DEGREE_BUDGET is refused before any graph
    is built."""
    edges = []
    n = 0
    declared = None
    offset = 0
    # str.splitlines also ends lines at "\r", "\x1c", "\u2028" and more
    for line in text.split("\n"):
        stripped = line.removesuffix("\r").strip(" \t")
        header = _VERTEX_COUNT_HEADER.fullmatch(stripped) if offset == 0 else None
        if header:
            declared = _decimal(header.group(1), "vertex count", stripped, offset)
            _check_vertex_count(declared, offset)
        elif stripped and not stripped.startswith("#"):
            parts = _FIELD_SEPARATOR.split(stripped)
            if len(parts) != 2:
                raise GraphParseError(f"expected 'u v', got {stripped!r}", offset)
            u, v = (_decimal(p, "endpoint", stripped, offset) for p in parts)
            if u == v:
                raise GraphParseError(f"bad edge ({u}, {v})", offset)
            if declared is not None and max(u, v) >= declared:
                raise GraphParseError(f"edge ({u}, {v}) outside the declared n={declared}", offset)
            _check_vertex_count(max(u, v) + 1, offset)
            edges.append((u, v))
            n = max(n, u + 1, v + 1)
        # surrogatepass: a str from a library caller may hold a lone surrogate
        offset += len(line.encode("utf-8", "surrogatepass")) + 1
    return Graph(n if declared is None else declared, edges)


def parse_graph_text(text: str, fmt: str = "auto") -> Graph:
    """Read either format; auto-detection keys off the first nonblank line: a
    "#" comment or a line with inner whitespace starts an edge list (no
    graph6 byte is "#" or whitespace), anything else is graph6."""
    if fmt == "g6":
        return graph6_decode(text)
    if fmt == "edges":
        return parse_edge_list(text)
    if fmt != "auto":
        raise GraphParseError(f"unknown format {fmt!r}", 0)
    first = next((ln.strip() for ln in text.split("\n") if ln.strip()), "")
    if first.startswith("#") or len(first.split()) > 1:
        return parse_edge_list(text)
    return graph6_decode(text)


def graph_to_json_dict(g: Graph) -> dict:
    return {
        "vertex_count": g.n,
        "edge_count": g.edge_count,
        "edges": g.edges.tolist(),
    }
