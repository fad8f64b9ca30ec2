"""Basic orbits, orbit lists, semiregularity and quotients against the Python
loops they replaced (`tests/oracles.py`) and the generic Schreier-Sims chain."""

import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from bicayley import (
    Graph,
    PermGroup,
    aut_group,
    gamma_t,
    quotient_graph,
    right_group,
    right_translation,
    sigma_t,
)
from bicayley.permgroup import orbit_labels

from . import oracles


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


# (label, graph, |Aut|); K_n above 16 only at 24 and 40, where the oracle's
# generic chain (`oracles.chain_group`) is slowest
GRAPHS = [
    *[(f"K_{n}", complete(n), math.factorial(n)) for n in [*range(1, 17), 24, 40]],
    *[(f"K_{n},{n}", complete_bipartite(n), 2 * math.factorial(n) ** 2) for n in (1, 2, 3, 5, 8)],
    *[(f"K_1,{k}", star(k), math.factorial(k)) for k in (2, 3, 7, 16)],
    *[(f"Q_{d}", hypercube(d), 2**d * math.factorial(d)) for d in (4, 5, 6)],
    ("3 x Gray", copies(gamma_t(1).graph, 3), 1296**3 * 6),
    ("4 x Petersen", copies(petersen(), 4), 120**4 * 24),
    ("gamma_1", gamma_t(1).graph, 1296),
    ("sigma_1", sigma_t(1).graph, 486),
]


@pytest.mark.parametrize("label, graph, expected", GRAPHS, ids=[g[0] for g in GRAPHS])
def test_basic_orbits_match_bfs_and_schreier_sims(label, graph, expected):
    aut = aut_group(graph)
    gens, base = aut.generators, aut._base
    sizes = oracles.basic_orbit_sizes_by_bfs(graph.n, gens, base)
    assert aut.order() == math.prod(sizes) == oracles.chain_group(graph.n, gens).order() == expected
    # the generators fixing base[:i] are strong for base[i:]: the order of
    # each suffix group pins the basic orbit sizes from level i on
    for i in range(1, len(base)):
        fixing = [g for g in gens if (g[list(base[:i])] == base[:i]).all()]
        assert PermGroup(graph.n, fixing, base[i:]).order() == math.prod(sizes[i:])
    # order() leaves the group's orbit labels behind
    assert np.array_equal(aut.orbit_labels(), orbit_labels(graph.n, gens))
    assert aut.orbits() == oracles.orbits_by_scan(aut.orbit_labels())
    for domain in (None, [0] if graph.n else [], range(0, graph.n, 3)):
        assert aut.is_semiregular(domain) == oracles.is_semiregular_by_sets(aut, domain)


def test_order_before_and_after_the_labels_are_cached():
    g = copies(petersen(), 4)
    first, second = aut_group(g), aut_group(g)
    second.orbit_labels()  # cached before order(), then kept
    assert first.order() == second.order() == 120**4 * 24
    assert np.array_equal(first.orbit_labels(), second.orbit_labels())


@pytest.mark.parametrize("make", [gamma_t, sigma_t], ids=["gamma_1", "sigma_1"])
def test_semiregular_groups_and_quotients_match_the_loops(make):
    bg = make(1)
    R = right_group(bg)
    G = bg.group
    a, b = G.gen_a, G.gen_b
    groups = [
        R,
        aut_group(bg.graph),
        PermGroup(bg.graph.n, [], ()),
        oracles.chain_group(bg.graph.n, [right_translation(bg, a)]),
        oracles.chain_group(bg.graph.n, [right_translation(bg, G.pow(b, G.mod_j // 3))]),
    ]
    for N in groups:
        for domain in (None, [0], range(bg.half, bg.graph.n)):
            assert N.is_semiregular(domain) == oracles.is_semiregular_by_sets(N, domain)
        assert N.orbits() == oracles.orbits_by_scan(N.orbit_labels())
        q, report = quotient_graph(bg, N)
        q_ref, sizes = oracles.quotient_by_unique(bg.graph, N)
        assert q == q_ref
        assert report.orbit_sizes == sizes and report.orbit_count == len(sizes)
        assert report.semiregular == N.is_semiregular()
    assert R.is_semiregular()


def test_library_runs_never_import_numpy_ma():
    # np.unique with an axis imports numpy.ma, about 1 MB of peak RSS
    code = """
import contextlib, io, sys
from bicayley import Graph, census, classify, cli, gamma_t, make_group, quotient_graph, right_group
census(make_group(3, 2, 1, 1))
classify(gamma_t(1).graph)
classify(Graph(16, [(i, 8 + j) for i in range(8) for j in range(8)]))
quotient_graph(gamma_t(1), right_group(gamma_t(1)))
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--target", "arithmetic", "--trials", "50"]) == 0
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
