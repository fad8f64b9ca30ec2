"""Simple undirected graphs with graph6 and edge-list serialization."""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .errors import GraphParseError, InvariantViolation
from .permgroup import DEGREE_BUDGET


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "adj", "_edge_array")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        norm = set()
        for u, v in edges:
            if u == v:
                raise InvariantViolation(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvariantViolation(f"edge ({u}, {v}) outside vertex range")
            norm.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(norm))
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(x)) for x in adj)
        self._edge_array = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(x) for x in self.adj)

    def is_regular(self) -> bool:
        degs = self.degrees()
        return self.n == 0 or min(degs) == max(degs)

    def valency(self) -> int:
        if not self.is_regular():
            raise InvariantViolation("graph is not regular")
        return len(self.adj[0]) if self.n else 0

    def edge_array(self):
        """The edges as a read-only (m, 2) np.intp array, rows sorted, u < v."""
        if self._edge_array is None:
            import numpy as np  # see graph6_encode

            # fromiter: np.array on a list of tuples touches more of numpy
            # (about 0.1 MB of peak RSS on first use)
            flat = (x for edge in self.edges for x in edge)
            arr = np.fromiter(flat, dtype=np.intp, count=2 * len(self.edges)).reshape(-1, 2)
            arr.flags.writeable = False
            self._edge_array = arr
        return self._edge_array

    def preserves_edges(self, perm: Sequence[int]) -> bool:
        """Whether the vertex permutation perm maps the edge set onto itself."""
        import numpy as np  # see graph6_encode

        p = np.asarray(perm, dtype=np.intp)
        e = self.edge_array()
        a, b = p[e[:, 0]], p[e[:, 1]]
        image = np.sort(np.minimum(a, b) * self.n + np.maximum(a, b))
        return bool(np.array_equal(image, e[:, 0] * self.n + e[:, 1]))

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """New graph with vertex v renamed to perm[v]."""
        return Graph(self.n, ((perm[u], perm[v]) for u, v in self.edges))

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by first vertex."""
        out = []
        seen = [False] * self.n
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            stack = [start]
            while stack:
                for w in self.adj[stack.pop()]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        stack.append(w)
            comp.sort()
            out.append(comp)
        return out

    def subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph; vertex k of the result is vertices[k]."""
        index = {v: k for k, v in enumerate(vertices)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges
            if u in index and v in index
        ]
        return Graph(len(vertices), edges)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

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
    if g.edges:
        uv = np.array(g.edges, dtype=np.int64)
        # position of pair (u, v), u < v, in column-major upper-triangle order
        k = uv[:, 1] * (uv[:, 1] - 1) // 2 + uv[:, 0]
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
    pos = 0
    if data[0] == 126:  # '~'
        if len(data) >= 2 and data[1] == 126:
            if len(data) < 8:
                raise GraphParseError("truncated graph6 size header", len(data))
            n = 0
            for byte in data[2:8]:
                n = (n << 6) | (byte - 63)
            pos = 8
        else:
            if len(data) < 4:
                raise GraphParseError("truncated graph6 size header", len(data))
            n = 0
            for byte in data[1:4]:
                n = (n << 6) | (byte - 63)
            pos = 4
    else:
        n = data[0] - 63
        pos = 1
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
    return Graph(n, zip(u.tolist(), v.tolist()))


# -- edge lists -------------------------------------------------------------


def format_edge_list(g: Graph) -> str:
    """One "u v" line per edge, 0-indexed, u < v, sorted.

    A first line "# n=<count>" keeps vertices past the largest endpoint; it is
    written only when there are such vertices.
    """
    top = max((v for _, v in g.edges), default=-1)
    header = f"# n={g.n}\n" if g.n > top + 1 else ""
    return header + "".join(f"{u} {v}\n" for u, v in g.edges)


_VERTEX_COUNT_HEADER = re.compile(r"#\s*n\s*=\s*(\S+)")
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
    Counts and endpoints are ASCII decimal digits.  A vertex count above
    permgroup.DEGREE_BUDGET is refused before any graph is built."""
    edges = []
    n = 0
    declared = None
    offset = 0
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        header = _VERTEX_COUNT_HEADER.fullmatch(stripped) if offset == 0 else None
        if header:
            declared = _decimal(header.group(1), "vertex count", stripped, offset)
            _check_vertex_count(declared, offset)
        elif stripped and not stripped.startswith("#"):
            parts = stripped.split()
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
        offset += len(line.encode("utf-8", "surrogatepass"))
    return Graph(n if declared is None else declared, edges)


def parse_graph_text(text: str, fmt: str = "auto") -> Graph:
    """Read either format; auto-detection keys off the first nonblank line: a
    "#" comment (no graph6 byte is "#") or a "u v" pair starts an edge list."""
    if fmt == "g6":
        return graph6_decode(text)
    if fmt == "edges":
        return parse_edge_list(text)
    if fmt != "auto":
        raise GraphParseError(f"unknown format {fmt!r}", 0)
    first = next((ln.strip() for ln in text.splitlines() if ln.strip()), "")
    parts = first.split()
    if first.startswith("#") or (len(parts) == 2 and all(_DECIMAL.fullmatch(p) for p in parts)):
        return parse_edge_list(text)
    return graph6_decode(text)


def graph_to_json_dict(g: Graph) -> dict:
    return {
        "vertex_count": g.n,
        "edge_count": g.edge_count,
        "edges": [[u, v] for u, v in g.edges],
    }
