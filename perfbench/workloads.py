"""The four workloads: seeded inputs, the calls made on them, and exact checks.

A workload is a fixed number of passes, each a list of calls.  Every input is
derived from the workload seed and the pass number (vertex relabellings,
oracle seeds), so one run averages over several labellings; the library
receives only the generated graphs, graph6 text or CLI arguments.  Each call
carries its expected answer, fixed by closed forms or by the paper's counts,
and a check that returns a failure message or None.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
from dataclasses import dataclass
from typing import Any, Callable

import bicayley as B
from bicayley import cli

WORKLOADS = ("census", "analyze", "verify", "canon")

# Seconds of measuring budgeted per pass: a run makes round(seconds / budget)
# whole passes, at least one.  The count depends on --seconds only, so every
# run of every commit makes the same calls and the percentiles compare alike.
PASS_BUDGET_S = {"census": 36.0, "analyze": 5.3, "verify": 4.0, "canon": 5.3}


def pass_count(name: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_BUDGET_S[name]))


@dataclass
class Call:
    label: str
    fn: Callable[[], Any]
    expect: dict
    check: Callable[[Any, dict], str | None]
    units: int = 1  # work units per call (generating pairs for census)


@dataclass
class Workload:
    name: str
    passes: list[list[Call]]
    unit: str = "calls"
    begin_pass: Callable[[], None] = lambda: None
    close: Callable[[], None] = lambda: None


# -- graphs whose automorphism group has a closed form ------------------------------


def star(k: int) -> B.Graph:
    """K_{1,k}: |Aut| = k!"""
    return B.Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def complete_bipartite(n: int) -> B.Graph:
    """K_{n,n}: |Aut| = 2 (n!)^2"""
    return B.Graph(2 * n, [(i, n + j) for i in range(n) for j in range(n)])


def hypercube(d: int) -> B.Graph:
    """Q_d: |Aut| = 2^d d!"""
    return B.Graph(1 << d, [(v, v ^ (1 << b)) for v in range(1 << d) for b in range(d) if v < v ^ (1 << b)])


def petersen() -> B.Graph:
    """|Aut| = 120"""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return B.Graph(10, outer + spokes + inner)


def copies(g: B.Graph, m: int) -> B.Graph:
    """m disjoint copies of a connected graph g: |Aut| = |Aut(g)|^m m!"""
    return B.Graph(g.n * m, [(u + c * g.n, v + c * g.n) for c in range(m) for u, v in g.edges])


def relabel(g: B.Graph, seed: int, tag: str) -> B.Graph:
    perm = list(range(g.n))
    random.Random(f"{seed}:{tag}").shuffle(perm)
    return g.relabel(perm)


def normal_member_order(bg: B.BiCayleyGraph, part_swap: bool) -> int:
    """|H| * |F| * 2^[part swap] for a normal one-matching member."""
    return bg.half * len(B.spoke_stabilizer_maps(bg)) * (2 if part_swap else 1)


def _diff(got: dict, expect: dict) -> str | None:
    bad = {k: (got.get(k), v) for k, v in expect.items() if got.get(k) != v}
    return None if not bad else "; ".join(f"{k}: got {g!r}, want {w!r}" for k, (g, w) in bad.items())


# -- census -------------------------------------------------------------------------

# (group params) -> (all pairs, generating pairs, classes, edge-transitive family member)
CENSUS_GROUPS = {
    (3, 2, 1, 1): (325, 216, 2, ("gamma", 1)),
    (3, 3, 1, 2): (3160, 1944, 3, None),
    (3, 2, 2, 1): (3160, 1944, 2, ("sigma", 1)),
}


def _check_census(res: B.CensusResult, expect: dict) -> str | None:
    got = {
        "pair_count": res.pair_count,
        "generating_pair_count": res.generating_pair_count,
        "class_count": len(res.classes),
        "edge_transitive": [c.digest for c in res.edge_transitive_classes],
    }
    return _diff(got, expect)


def census_workload(seed: int, passes: int, smoke: bool = False) -> Workload:
    del seed  # the census enumerates every spoke set; nothing to draw
    members = {"gamma": B.gamma_t, "sigma": B.sigma_t}
    calls = []
    for params in [(3, 2, 1, 1)] if smoke else CENSUS_GROUPS:
        pairs, generating, classes, member = CENSUS_GROUPS[params]
        et = [B.canonical_digest(members[member[0]](member[1]).graph)] if member else []
        group = B.make_group(*params)
        calls.append(Call(
            f"census{params}",
            lambda group=group: B.census(group),
            {"pair_count": pairs, "generating_pair_count": generating,
             "class_count": classes, "edge_transitive": et},
            _check_census,
            units=generating,
        ))
    return Workload("census", [calls] * passes, unit="generating pairs")


# -- analyze --------------------------------------------------------------------------


def _check_report(rep: B.SymmetryReport, expect: dict) -> str | None:
    return _diff({"aut_order": rep.aut_order, "classification": rep.classification}, expect)


def analyze_pool(smoke: bool = False) -> list[tuple[str, B.Graph, int, str]]:
    """(label, graph, |Aut|, classification) for every analyze input of a pass.

    Three inputs cost well above the rest, five well below, and the seven
    in between (gamma_2 in four labellings among them) cost about the same,
    so the median and the tail rank of the per-call times both fall inside
    that middle group rather than on the edge between two graphs of
    different cost.
    """
    gray = B.gamma_t(1).graph
    if smoke:
        return [("gamma_1", gray, 1296, "semisymmetric"),
                ("star_6", star(6), math.factorial(6), "none")]
    normal = [  # the cheap sigma_1 first: the first call doubles as the warm-up
        ("sigma_1", B.sigma_t(1), True, "arc-transitive"),
        ("sigma_2", B.sigma_t(2), True, "arc-transitive"),
        ("abelian_5_13", B.abelian_family(5, 13), True, "arc-transitive"),
        *[("gamma_2", B.gamma_t(2), False, "semisymmetric")] * 4,
        ("abelian_9_1", B.abelian_family(9, 1), True, "arc-transitive"),
        ("abelian_3_7", B.abelian_family(3, 7), True, "arc-transitive"),
    ]
    return [(lbl, bg.graph, normal_member_order(bg, swap), cls) for lbl, bg, swap, cls in normal] + [
        ("gamma_1", gray, 1296, "semisymmetric"),
        ("gray_x3", copies(gray, 3), 1296**3 * math.factorial(3), "semisymmetric"),
        ("petersen_x4", copies(petersen(), 4), 120**4 * math.factorial(4), "arc-transitive"),
        ("star_16", star(16), math.factorial(16), "none"),
        ("cube_7", hypercube(7), 2**7 * math.factorial(7), "arc-transitive"),
        ("k_8_8", complete_bipartite(8), 2 * math.factorial(8) ** 2, "arc-transitive"),
    ]


def analyze_workload(seed: int, passes: int, smoke: bool = False) -> Workload:
    pool = analyze_pool(smoke)
    return Workload("analyze", [
        [Call(label,
              lambda text=B.graph6_encode(relabel(g, seed, f"{label}:{k}:{i}")): B.classify(B.parse_graph_text(text)),
              {"aut_order": order, "classification": cls},
              _check_report)
         for i, (label, g, order, cls) in enumerate(pool)]
        for k in range(passes)
    ])


# -- verify ---------------------------------------------------------------------------


def _check_passed(report: dict, expect: dict) -> str | None:
    return _diff({"passed": report.get("passed")}, expect)


def _check_oracle(result: tuple[int, dict], expect: dict) -> str | None:
    code, report = result
    return _diff({"exit_code": code, "passed": report.get("passed"),
                  "order_matches": report.get("order_matches")}, expect)


# (p, m, n, r) -> trials per oracle call
ORACLE_GROUPS = {(3, 3, 2, 2): 3000, (5, 2, 2, 1): 2000, (3, 3, 3, 2): 1500}


def verify_workload(seed: int, passes: int, smoke: bool = False, scratch: str = ".") -> Workload:
    ts = (1,) if smoke else (1, 2, 3)
    certs = [Call(f"lemma51_t{t}", lambda t=t: B.verify_semisymmetric_family(t, full_aut=(t <= 2)),
                  {"passed": True}, _check_passed) for t in ts]
    certs += [Call(f"lemma52_t{t}",
                   lambda t=t: B.verify_symmetric_family(t, full_aut=(t <= 1), graph_checks=True),
                   {"passed": True}, _check_passed) for t in ts]
    tmp = os.path.join(scratch, f"verify-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)

    def oracle(params: tuple, trials: int, k: int) -> Call:
        oracle_seed = random.Random(f"{seed}:oracle:{params}:{k}").randrange(2**31)
        out = os.path.join(tmp, "arithmetic-{}-{}-{}-{}.json".format(*params))
        argv = ["verify", "--target", "arithmetic",
                "--p", str(params[0]), "--m", str(params[1]), "--n", str(params[2]), "--r", str(params[3]),
                "--trials", str(trials), "--seed", str(oracle_seed), "--out", out]

        def run():
            code = cli.main(argv)
            with open(out, encoding="utf-8") as fh:
                return code, json.load(fh)

        return Call(f"arithmetic{params}", run,
                    {"exit_code": 0, "passed": True, "order_matches": True}, _check_oracle)

    groups = {(3, 2, 1, 1): 50} if smoke else ORACLE_GROUPS
    return Workload(
        "verify",
        [certs + [oracle(params, trials, k) for params, trials in groups.items()] for k in range(passes)],
        close=lambda: shutil.rmtree(tmp, ignore_errors=True),
    )


# -- canon ----------------------------------------------------------------------------


def canon_workload(seed: int, passes: int, smoke: bool = False) -> Workload:
    """canonical_form on an original and seeded relabellings of each graph.

    Within a pass, every relabelled copy's form must equal its original's,
    and originals of non-isomorphic graphs must have distinct forms.
    """
    if smoke:
        groups = [("gamma_1", B.gamma_t(1).graph, 1), ("star_6", star(6), 1)]
    else:
        groups = [
            ("gamma_3", B.gamma_t(3).graph, 2),
            ("star_16", star(16), 1),
            ("sigma_2", B.sigma_t(2).graph, 3),
            ("cube_6", hypercube(6), 1),
            ("k_8_8", complete_bipartite(8), 1),
            ("gray_x3", copies(B.gamma_t(1).graph, 3), 1),
        ]
    forms: dict[str, bytes] = {}

    def check_original(form: bytes, expect: dict) -> str | None:
        clash = [lbl for lbl, f in forms.items() if f == form]
        forms[expect["group"]] = form
        return f"form equals that of {clash}" if clash else None

    def check_copy(form: bytes, expect: dict) -> str | None:
        want = forms.get(expect["group"])
        if want is None:
            return "original's form is missing"
        return None if form == want else "form differs from the original's"

    def one_pass(k: int) -> list[Call]:
        calls = []
        for label, g, n_copies in groups:
            calls.append(Call(label, lambda g=g: B.canonical_form(g), {"group": label}, check_original))
            for c in range(n_copies):
                h = relabel(g, seed, f"{label}:{k}:{c}")
                calls.append(Call(f"{label}~{c}", lambda h=h: B.canonical_form(h),
                                  {"group": label}, check_copy))
        return calls

    return Workload("canon", [one_pass(k) for k in range(passes)], begin_pass=forms.clear)


def build(name: str, seed: int, passes: int, smoke: bool = False, scratch: str = ".") -> Workload:
    if name == "census":
        return census_workload(seed, passes, smoke)
    if name == "analyze":
        return analyze_workload(seed, passes, smoke)
    if name == "verify":
        return verify_workload(seed, passes, smoke, scratch)
    if name == "canon":
        return canon_workload(seed, passes, smoke)
    raise ValueError(f"unknown workload {name!r}")
