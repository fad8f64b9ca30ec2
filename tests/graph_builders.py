"""Small graphs the tests build in more than one module."""

import itertools
import random

from bicayley import Graph


def complete(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def complete_bipartite(n):
    return Graph(2 * n, [(i, n + j) for i in range(n) for j in range(n)])


def star(k):
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def hypercube(d):
    return Graph(2**d, [(v, v | 1 << b) for v in range(2**d) for b in range(d) if not v >> b & 1])


def copies(g, m):
    return Graph(g.n * m, [(u + c * g.n, v + c * g.n) for c in range(m) for u, v in g.edges])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + [(i, i + 5) for i in range(5)] + inner)


def relabel(g, seed):
    """g with its vertices shuffled by a seeded permutation."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return g.relabel(perm)
