"""The named cubic bi-Cayley families and the small-order census.

Two one-parameter families over inner-abelian metacyclic 3-groups:

  * gamma_t: group (p, m, n, r) = (3, t+1, t, t), spokes {1, a, a^-1 b};
    connected cubic bipartite on 2 * 3^(2t+1) vertices, edge- but not
    vertex-transitive (the t = 1 member is the Gray graph);
  * sigma_t: group (3, t+1, t+1, t), spokes {1, b, b^-1 a}; connected cubic
    on 2 * 3^(2t+2) vertices, arc-transitive.

`build_family(kind, t, m, n)` checks the kind and that its parameters are
given; `gamma_t`, `sigma_t` and `abelian_family` check their values.

The verifiers re-derive the generator-image certificates behind those two
facts with exact arithmetic and, within the engine budget, confirm the
classification on the actual graph.  Both are built from four helpers:
`_member` (the report header), `_check_images` (generator-image pairs),
`_spoke_rotation` (sigma_{alpha,g} at the identity vertex) and `_verdict`
(`classify` when the full group is asked for, and the pass flag).  The census enumerates all connected
cubic one-matching spoke sets {1, x, y} over a given group up to graph
isomorphism and classifies every class.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import symmetry
from .bicay import BiCayleyGraph, delta_map, right_group, sigma_map
from .errors import BudgetError, NoLambdaError, ParameterError
from .graphs import graph6_encode
from .metacyclic import (
    CLOSURE_BUDGET,
    TABLE_BUDGET,
    AbelianPairGroup,
    Element,
    MetacyclicGroup,
    PairGroup,
    PairRelationReport,
    check_generator_images,
    make_automorphism,
    make_group,
)
from .permgroup import orbit_labels
from .symmetry import SymmetryReport, arc_orbits, canonical_search, classify
from .symmetry import canonical_digest  # noqa: F401  (callers read families.canonical_digest)

if TYPE_CHECKING:
    import numpy as np

FAMILY_T_BUDGET = 3


def gamma_group(t: int) -> MetacyclicGroup:
    return make_group(3, t + 1, t, t)


def sigma_group(t: int) -> MetacyclicGroup:
    return make_group(3, t + 1, t + 1, t)


def _check_t(t: int) -> None:
    if t < 1:
        raise ParameterError("t must be a positive integer")
    if t > FAMILY_T_BUDGET:
        raise BudgetError(f"t = {t} exceeds the family budget t <= {FAMILY_T_BUDGET}")


def gamma_t(t: int) -> BiCayleyGraph:
    """BiCay(G, {}, {}, {1, a, a^-1 b}) over the (3, t+1, t, t) group."""
    _check_t(t)
    G = gamma_group(t)
    a, b = G.gen_a, G.gen_b
    spokes = [G.identity, a, G.mul(G.inv(a), b)]
    return BiCayleyGraph(G, (), (), spokes)


def sigma_t(t: int) -> BiCayleyGraph:
    """BiCay(H, {}, {}, {1, b, b^-1 a}) over the (3, t+1, t+1, t) group."""
    _check_t(t)
    H = sigma_group(t)
    a, b = H.gen_a, H.gen_b
    spokes = [H.identity, b, H.mul(H.inv(b), a)]
    return BiCayleyGraph(H, (), (), spokes)


def find_lambda(n: int) -> int:
    """Smallest root of x^2 - x + 1 = 0 in Z_n^*, or 0 when n = 1."""
    if n == 1:
        return 0
    from math import gcd

    for lam in range(1, n):
        if gcd(lam, n) == 1 and (lam * lam - lam + 1) % n == 0:
            return lam
    raise NoLambdaError(f"x^2 - x + 1 = 0 has no solution mod {n}")


def abelian_family(m: int, n: int) -> BiCayleyGraph:
    """BiCay(Z_nm x Z_m, {}, {}, {1, x, x^lambda y}) with lambda^2-lambda+1 = 0 mod n."""
    if n * m * m < 3:
        raise ParameterError("abelian family needs m, n with n*m^2 >= 3")
    if n * m * m > CLOSURE_BUDGET:  # before find_lambda's loop over Z_n
        raise BudgetError(f"group order {n * m * m} exceeds enumeration budget")
    lam = find_lambda(n)
    G = AbelianPairGroup(m, n * m)  # x is the a-slot (order nm), y the b-slot (order m)
    x, y = G.gen_a, G.gen_b
    spokes = [G.identity, x, G.mul(G.pow(x, lam), y)]
    return BiCayleyGraph(G, (), (), spokes)


def build_family(kind: str, t: int | None = None, m: int | None = None, n: int | None = None) -> BiCayleyGraph:
    """The member of a family by name: gamma_t(t), sigma_t(t) or
    abelian_family(m, n).  Only the kind and the presence of its parameters
    are checked here; the builder checks their values."""
    if kind in ("gamma", "sigma"):
        if t is None:
            raise ParameterError("gamma/sigma need a positive parameter t")
        return gamma_t(t) if kind == "gamma" else sigma_t(t)
    if kind == "abelian":
        if m is None or n is None:
            raise ParameterError("abelian family needs m, n with n*m^2 >= 3")
        return abelian_family(m, n)
    raise ParameterError(f"unknown family kind {kind!r}")


# -- claim verification -------------------------------------------------------


def _member(family: str, t: int, G: PairGroup) -> dict:
    """The report header of one family member."""
    return {"family": family, "t": t, "group": list(G.params()), "vertices": 2 * G.order}


def _check_images(report: dict, G: PairGroup, **pairs: tuple[Element, Element]) -> list[PairRelationReport]:
    """`check_generator_images` on each image pair (x, y) of (a, b), filed
    under its keyword in the report, in keyword order."""
    reps = []
    for key, (x, y) in pairs.items():
        rep = check_generator_images(G, x, y)
        entry = report[key] = {"image_a": G.element_str(x), "image_b": G.element_str(y), "is_automorphism": rep.ok}
        if not rep.ok:
            entry["violated"] = rep.violated()
            if rep.forced_a_exponents:
                entry["forces"] = [f"a^{e} = 1" for e in rep.forced_a_exponents]
        reps.append(rep)
    return reps


def _spoke_rotation(report: dict, bg: BiCayleyGraph, images: tuple[Element, Element], g: Element):
    """sigma_{alpha,g} for the automorphism alpha with the given images of
    (a, b), filed as the report's "spoke_rotation": its permutation (None when
    invalid) and its three checks, that it is valid, fixes the identity vertex
    of part 0 and 3-cycles that vertex's neighbours."""
    result = sigma_map(bg, make_automorphism(bg.group, *images), g)
    perm, base = result.permutation, bg.index(bg.group.identity, 0)
    # the neighbours of 1_0 are r_0 for r in R and s_1 for s in S
    neighbors = [bg.index(r, 0) for r in bg.R] + [bg.index(s, 1) for s in bg.S]
    rot = report["spoke_rotation"] = {
        "valid": result.valid,
        "failed_condition": result.failed_condition,
        "fixes_base_vertex": perm is not None and int(perm[base]) == base,
        "three_cycles_neighbors": bool(perm is not None and all(perm[w] in neighbors and perm[w] != w for w in neighbors)),
    }
    return perm, [rot["valid"], rot["fixes_base_vertex"], rot["three_cycles_neighbors"]]


def _verdict(report: dict, checks: list, expected: str, bg: BiCayleyGraph | None, full_aut: bool | None) -> dict:
    """Close the report: with a graph and full_aut, `classify` must name the
    expected class; otherwise the certificate is algebraic only.  full_aut
    defaults to whether the member fits the engine's vertex budget."""
    if full_aut is None:
        full_aut = report["vertices"] <= symmetry.ENGINE_VERTEX_BUDGET
    full_aut = bool(full_aut and bg is not None)
    if full_aut:
        sym = classify(bg.graph)
        report["classification"] = sym.classification
        report["symmetry"] = sym.to_dict()
        checks.append(sym.classification == expected)
    else:
        report["classification"] = f"{expected} (algebraic certificate only)"
    report["verified_by_full_aut"] = full_aut
    report["passed"] = all(checks)
    return report


def verify_semisymmetric_family(t: int, full_aut: bool | None = None) -> dict:
    """Certificates that gamma_t is edge- but not vertex-transitive.

    Arithmetic part (any t within budget): the rotation images
    (a^-2 b, a^{3^t-3} b) satisfy the presentation and generate; both
    candidate spoke-inverting images fail the conjugation relation, the
    defect forcing a^{2*3^t} = 1.  Graph part: sigma_{alpha,a} fixes the
    identity vertex and 3-cycles its neighbours; with full_aut, classify
    must report semisymmetric.  full_aut defaults to the full group when the
    member fits the engine's vertex budget (5000): gamma_1..3 all do.
    """
    bg = gamma_t(t)
    G = bg.group
    a, b = G.gen_a, G.gen_b
    rotation = (G.mul(G.pow(a, -2), b), G.mul(G.pow(a, 3**t - 3), b))
    report = _member("gamma", t, G)
    rot, inversion, swap = _check_images(
        report,
        G,
        rotation_images=rotation,
        # a |-> a^-1 plus a^-1 b |-> b^-1 a forces b |-> a^{3^t} b^-1
        inversion_images_rejected=(G.inv(a), G.mul(G.pow(a, 3**t), G.inv(b))),
        # a |-> b^-1 a plus a^-1 b |-> a^-1 forces b |-> b^-1
        swap_images_rejected=(G.mul(G.inv(b), a), G.inv(b)),
    )
    _, checks = _spoke_rotation(report, bg, rotation, a)
    report["part_swap_excluded"] = (not inversion.ok) and (not swap.ok)
    checks += [
        rot.ok,
        report["part_swap_excluded"],
        2 * 3**t in inversion.forced_a_exponents,
        2 * 3**t in swap.forced_a_exponents,
    ]
    return _verdict(report, checks, "semisymmetric", bg, full_aut)


def verify_symmetric_family(t: int, full_aut: bool | None = None, graph_checks: bool | None = None) -> dict:
    """Certificates that sigma_t is arc-transitive.

    Arithmetic part: the images (a^{2*3^t+1} b^-3, a^{2*3^t+1} b^-2) and
    (a^-1, a^-1 b) both satisfy the presentation and generate.  Graph part:
    sigma_{alpha,b} 3-cycles the neighbours of the identity vertex,
    delta_{beta,1,1} swaps the two parts at the identity, and the arc orbit
    under R(H) plus those two maps covers every arc.  graph_checks defaults
    to True; full_aut, which needs the graph checks, defaults to the full
    group when the member fits the engine's vertex budget (5000): sigma_1..2
    do, sigma_3 (13122 vertices) does not.
    """
    bg = sigma_t(t) if graph_checks is None or graph_checks else None
    if bg is None:
        _check_t(t)
    H = sigma_group(t) if bg is None else bg.group
    a, b = H.gen_a, H.gen_b
    rotation = (H.mul(H.pow(a, 2 * 3**t + 1), H.pow(b, -3)), H.mul(H.pow(a, 2 * 3**t + 1), H.pow(b, -2)))
    inversion = (H.inv(a), H.mul(H.inv(a), b))
    report = _member("sigma", t, H)
    checks = [rep.ok for rep in _check_images(report, H, rotation_images=rotation, inversion_images=inversion)]
    if bg is not None:
        sig, spoke_checks = _spoke_rotation(report, bg, rotation, b)
        delt = delta_map(bg, make_automorphism(H, *inversion), H.identity, H.identity)
        base0, base1 = bg.index(H.identity, 0), bg.index(H.identity, 1)
        swaps = delt.valid and int(delt.permutation[base0]) == base1 and int(delt.permutation[base1]) == base0
        report["part_swap"] = {
            "valid": delt.valid,
            "failed_condition": delt.failed_condition,
            "swaps_identity_vertices": swaps,
        }
        gens = [*right_group(bg).generators, sig, delt.permutation]
        keys, labels, _ = arc_orbits(bg.graph, [g for g in gens if g is not None])
        arc = keys.searchsorted(base0 * bg.graph.n + base1)
        report["arc_orbit_size"] = int((labels == labels[arc]).sum())
        report["arc_count"] = 2 * bg.graph.edge_count
        checks += [*spoke_checks, delt.valid, swaps, report["arc_orbit_size"] == report["arc_count"]]
    return _verdict(report, checks, "arc-transitive", bg, full_aut)


# -- census -----------------------------------------------------------------


@dataclass(frozen=True)
class CensusClass:
    """One isomorphism class of connected cubic one-matching bi-Cayley graphs."""

    spokes: tuple[Element, Element, Element]
    digest: str
    pair_count: int
    report: SymmetryReport

    def to_dict(self, group: PairGroup) -> dict:
        return {
            "spokes": [group.element_str(s) for s in self.spokes],
            "spokes_pairs": [list(s) for s in self.spokes],
            "digest": self.digest,
            "pair_count": self.pair_count,
            "report": self.report.to_dict(),
        }


@dataclass(frozen=True)
class CensusResult:
    group_params: tuple[int, int, int, int]
    pair_count: int
    generating_pair_count: int
    classes: tuple[CensusClass, ...]
    elapsed_seconds: float

    @property
    def edge_transitive_classes(self) -> tuple[CensusClass, ...]:
        return tuple(c for c in self.classes if c.report.edge_orbits == 1)


def _pair_moves(group: MetacyclicGroup) -> list[np.ndarray]:
    """The census moves as permutations of the ordered pairs (x, y) packed as
    rank(x) * |H| + rank(y): each generator of `automorphism_group` (Aut(H)
    on the ranks) on both entries, the transposition (x, y) -> (y, x), the
    part swap (x, y) -> (x^-1, y^-1) and the translation
    (x, y) -> (x^-1, y x^-1).  Translating by y is transposition,
    translation, transposition: it needs no move of its own.  The Aut(H)
    maps, the part swap and the translation are the R = L = {} instances of
    the image rule in `bicay` on S = {1, x, y}: apply_group_automorphism,
    swap_parts (S^-1) and normalize_S with s = x (S x^-1); the transposition
    only reorders S.  Inverse ranks come from scalar `inv`; row x of
    `right_mul_rows(inv)` is rank(h x^-1) for every h.  Each move holds
    |H|^2 entries, so a group above `TABLE_BUDGET` is refused first."""
    import numpy as np

    n = group.order
    if n > TABLE_BUDGET:
        raise BudgetError(f"group order {n} exceeds the Cayley table budget {TABLE_BUDGET}")
    inv = np.array([group.rank(group.inv(g)) for g in group.elements()], dtype=np.intp)
    points = np.arange(n)
    moves = [(m[:, None] * n + m).ravel() for m in group.automorphism_group().generators]
    moves.append((points * n + points[:, None]).ravel())
    moves.append((inv[:, None] * n + inv).ravel())
    moves.append((inv[:, None] * n + group.right_mul_rows(inv)).ravel())
    return moves


def census(group: MetacyclicGroup) -> CensusResult:
    """All generating spoke sets S = {1, x, y} over the group, the connected
    graphs, up to graph isomorphism, each class classified; deterministic
    enumeration by element rank.

    S -> S^alpha (alpha in Aut(H)), S -> S^-1 (swap the parts) and
    S -> S s^-1 (s in S, translate part 0) give isomorphic graphs; they act on
    packed pairs (`_pair_moves`, with Aut(H) given by the generators of
    `MetacyclicGroup.automorphism_group`, not listed), and
    `orbit_labels` labels each pair by the least pair of its orbit.  The
    moves keep x != y, both away from the identity, and <x, y>, so an orbit
    of such pairs is labelled by its first pair x < y in enumeration order,
    and one `generates` test per orbit drops the disconnected graphs.
    Orbits only bound the classes from above: one `canonical_search` per
    orbit, started with the generators of R(H) from `right_group`, gives
    the class digest and the group that `classify` receives.  A group above
    `TABLE_BUDGET` is refused (`BudgetError`) by `_pair_moves` before any
    group kernel runs.
    """
    import numpy as np

    start = time.monotonic()
    n = group.order
    labels = orbit_labels(n * n, _pair_moves(group))
    x, y = np.triu_indices(n, 1)
    proper = x > 0  # neither entry the identity, rank 0
    sizes = np.bincount(labels[x[proper] * n + y[proper]], minlength=n * n)
    roots = np.flatnonzero(sizes)
    ident = group.identity
    buckets: dict[str, list] = {}
    generating = 0
    for root, size in zip(roots.tolist(), sizes[roots].tolist()):
        u, v = group.unrank(root // n), group.unrank(root % n)
        if not group.generates(u, v):
            continue
        generating += size
        spokes = (ident, u, v)
        bg = BiCayleyGraph(group, (), (), spokes)
        graph = bg.graph
        labelling, aut = canonical_search(graph, right_group(bg).generators)
        # roots come in enumeration order, so each class keeps its first pair
        entry = buckets.setdefault(graph6_encode(graph.relabel(labelling)), [spokes, 0, graph, aut])
        entry[1] += size
    classes = []
    for digest in sorted(buckets):
        spokes, count, graph, aut = buckets[digest]
        classes.append(CensusClass(spokes, digest, count, classify(graph, aut)))
    elapsed = time.monotonic() - start
    total = (n - 1) * (n - 2) // 2
    return CensusResult(group.params(), total, generating, tuple(classes), elapsed)


def census_to_dict(result: CensusResult, group: MetacyclicGroup) -> dict:
    """JSON-ready dict with a stable key order."""
    return {
        "group": list(result.group_params),
        "connected_only": True,  # the census lists the connected graphs only
        "pair_count": result.pair_count,
        "generating_pair_count": result.generating_pair_count,
        "class_count": len(result.classes),
        "classes": [c.to_dict(group) for c in result.classes],
        "edge_transitive_classes": [c.to_dict(group) for c in result.edge_transitive_classes],
        "elapsed_seconds": round(result.elapsed_seconds, 3),
    }
