"""Dense permutations and permutation groups given a base.

A permutation is a contiguous 1-d ``np.intp`` array of images on [0, degree):
``compose(p, q)`` is ``q[p]`` and `invert` one scatter.  Public functions also
take any integer sequence, and `_integer_array` alone decides what that is for
every point, map, base and seed a caller passes: ragged rows and float,
bool, str or object entries are refused, never truncated (predicates answer
False, the rest raise `InvariantViolation`, as `compose`, `invert` and
`orbit_of_tuple` do for a point outside [0, degree)).  A degree or an
exponent is read by `operator.index`.  `is_permutation` alone decides, in
O(degree), if one is a permutation.  Generators are read-only arrays.
`compose`, `invert`, `perm_power` (a binary power by `compose`) and
`is_identity` take one row of points and refuse any other shape.  Every
orbit of points comes from `orbit_labels`, the least point of each orbit:
`orbit_lists` groups points by label, and `PermGroup.order` folds a
group's generators into labels level by level for its basic orbits.  Only
the transversals of `contains` and `orbit_of_tuple`, on point tuples,
search outward.  numpy is imported on use, as in graphs.py.

A group has one way to its order: the product of its basic orbit sizes.
So every group is built with a base relative to which its generators are
strong, `PermGroup(degree, generators, base)`, and the base gives its
order, membership and semiregularity.  Every group the library builds has
one: the automorphism search proves it for the base it individualizes,
R(H), being semiregular, has a trivial stabilizer of 0, so any generators
are strong for the base [0], and `MetacyclicGroup.automorphism_group`
proves (a, b) for Aut(H).  A group with no generators has order 1 with the
empty base.  The generic Schreier-Sims scan, which finds a base and strong
generators for any group, is a test oracle (`tests/oracles.py`).
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import BudgetError, DegreeMismatch, InvariantViolation

if TYPE_CHECKING:
    import numpy as np
    Perm = np.ndarray

DEGREE_BUDGET = 100_000


def _integer_array(p) -> Perm | None:
    """p as an array, or None if p is ragged or has float, bool, str or object
    entries; an integer ndarray is not copied, and an empty p is np.intp."""
    import numpy as np
    try:
        a = np.asarray(p)
    except ValueError:  # rows of different lengths
        return None
    if a.dtype.kind in "iu":
        return a
    return None if a.size else a.astype(np.intp)


def as_perm(p: Sequence[int]) -> Perm:
    """p (a permutation or any list of integer points, `_integer_array`) as a
    contiguous np.intp array; an array that already is one is not copied."""
    import numpy as np
    a = _integer_array(p)
    if a is None:
        raise InvariantViolation("points must be integers, in rows of one length")
    return np.ascontiguousarray(a, dtype=np.intp)


def identity(degree: int) -> Perm:
    import numpy as np
    return np.arange(operator.index(degree), dtype=np.intp)


def _row(p) -> Perm:
    """p as a permutation (`as_perm`), checked to be one row of points: on a
    2-d array `q[p]` would fancy-index rows, not compose."""
    p = as_perm(p)
    if p.ndim != 1:
        raise InvariantViolation("a permutation is one row of points")
    return p


def is_identity(p: Sequence[int]) -> bool:
    p = _row(p)
    return bool((p == identity(len(p))).all())


def _points_below(p: Perm, n: int) -> Perm:
    """p, checked to hold points of [0, n) only."""
    if p.size and (p.min() < 0 or p.max() >= n):
        raise InvariantViolation(f"a point outside [0, {n})")
    return p


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """Apply p first, then q."""
    p, q = _row(p), _row(q)
    if len(p) != len(q):
        raise DegreeMismatch(f"degrees {len(p)} and {len(q)} differ")
    return q[_points_below(p, len(p))]


def invert(p: Sequence[int]) -> Perm:
    """p^-1 by one scatter."""
    import numpy as np
    p = _row(p)
    _points_below(p, len(p))
    out = np.empty_like(p)
    out[p] = identity(len(p))
    return out


def perm_power(p: Sequence[int], k: int) -> Perm:
    """p^k by repeated squaring; k (`operator.index`) may be negative or
    exceed the order of p."""
    k = operator.index(k)
    p = invert(p) if k < 0 else _row(p)
    result, k = identity(len(p)), abs(k)
    while k:
        if k & 1:
            result = compose(result, p)
        p, k = compose(p, p), k >> 1
    return result


def orbit_labels(degree: int, generators: Sequence[Perm], labels: Perm | None = None) -> Perm:
    """labels[x]: the least point of x's orbit under the group the generators make.

    A generator may also be an (m, 2) array of point pairs, each joining its
    two points: for the edge array of a graph the orbits are its connected
    components.

    Hook and shortcut over the edges x -> g[x] (or the given pairs): every
    point starts as the root of its own tree.  For one generator at a time,
    the larger root of every edge whose ends lie in different trees is
    hooked onto the least smaller one, then pointers jump until every point
    points at its root.  A round over all generators merges every tree with an edge
    leaving it, so at most log2(degree) + 2 rounds run, and the working
    arrays have length degree (or m) whatever the number of generators.

    Given labels, this function's result for some earlier generators, the
    trees start as those orbits (the array is not changed), and the result
    is for the earlier generators together with the given ones.
    """
    import numpy as np
    degree = operator.index(degree)
    generators = [as_perm(g) for g in generators]
    labels = identity(degree) if labels is None else as_perm(labels).copy()
    hooked = True
    while hooked:
        hooked = False
        for g in generators:
            if g.ndim == 1:
                a, b = labels, labels[g]
            else:
                a, b = labels[g].T
            crossing = a != b
            if not crossing.any():
                continue
            hooked = True
            a, b = a[crossing], b[crossing]
            # a root with several hooks takes the least: on a graph's edges a plain
            # assignment, where any may win, ran 11 rounds on the Gray graph, this 3
            np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
            while True:
                jumped = labels[labels]
                if (jumped == labels).all():
                    break
                labels = jumped
    return labels


def orbit_lists(labels: Perm) -> list[list[int]]:
    """The points grouped by label, each group ascending; for `orbit_labels`
    labels, whose labels are least points, the groups are the orbits in order
    of their least point."""
    import numpy as np
    if not len(labels):
        return []
    order = np.argsort(labels, kind="stable")
    bounds = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), len(labels)]
    order = order.tolist()
    return [order[a:b] for a, b in zip(bounds, bounds[1:])]


def _distinct_points(p: Perm | None, degree: int) -> bool:
    """Whether p, an `_integer_array` result, is distinct points of [0, degree); any empty p is."""
    import numpy as np
    if p is None or p.ndim != 1 or len(p) and (p.min() < 0 or p.max() >= degree):
        return False
    marks = np.zeros(degree, bool)
    marks[p] = True
    return int(np.count_nonzero(marks)) == len(p)


def is_permutation(p: Sequence[int], degree: int) -> bool:
    """Whether p is `degree` distinct integer points of [0, degree) (`_distinct_points`)."""
    p = _integer_array(p)
    return p is not None and p.shape == (degree,) and _distinct_points(p, degree)


def _validate_perm(p: Sequence[int], degree: int) -> Perm:
    """A read-only private copy of p, checked to be a permutation of [0, degree)."""
    import numpy as np
    arr = _integer_array(p)
    if arr is not None and arr.shape != (degree,):
        raise DegreeMismatch(f"permutation of length {arr.size}, expected {degree}")
    if not _distinct_points(arr, degree):
        raise InvariantViolation("images are not a bijection on the domain")
    arr = np.array(arr, dtype=np.intp)
    arr.flags.writeable = False
    return arr


def _transversal(base: int, pairs: Sequence[tuple[Perm, Perm]], degree: int) -> dict[int, Perm]:
    """point -> the inverse of a word u in the generators with u[base] ==
    point, for every point of base's orbit, found breadth-first; pairs holds
    each generator with its inverse."""
    inverse = {base: identity(degree)}
    frontier = [base]
    while frontier:
        new = []
        for pt in frontier:
            u_inv = inverse[pt]
            for g, g_inv in pairs:
                img = int(g[pt])
                if img not in inverse:
                    inverse[img] = u_inv[g_inv]  # (u g)^-1 = g^-1 u^-1
                    new.append(img)
        frontier = new
    return inverse


class PermGroup:
    """Permutation group given by generators that are a strong generating
    set relative to base.

    The caller vouches that, for every i, the generators fixing base[:i]
    pointwise generate the pointwise stabilizer of base[:i] in the group.
    Then order() is the product of basic orbit sizes and contains() strips
    a permutation through transversals grown from the generators.  The
    generators are validated and kept once each, the identity dropped;
    every base point must lie in [0, degree) and every generator must move
    one of them.
    """

    def __init__(self, degree: int, generators: Iterable[Sequence[int]], base: Sequence[int]):
        degree = operator.index(degree)
        if degree > DEGREE_BUDGET:
            raise BudgetError(f"degree {degree} exceeds the budget {DEGREE_BUDGET}")
        self.degree = degree
        gens = []
        seen = set()
        for g in generators:
            p = _validate_perm(g, degree)
            key = p.tobytes()
            if key not in seen and not is_identity(p):
                seen.add(key)
                gens.append(p)
        points = as_perm(base)
        self._base: tuple[int, ...] = tuple(points.tolist())
        for b in self._base:
            if not 0 <= b < degree:
                raise InvariantViolation(f"base point {b} outside degree {degree}")
        moved = [g[points] != points for g in gens]
        if not all(m.any() for m in moved):
            raise InvariantViolation("a generator fixes the whole base")
        self.generators: tuple[Perm, ...] = tuple(gens)
        self._depth = [int(m.argmax()) for m in moved]  # the first base point each moves
        self._levels: list[tuple[int, dict[int, Perm]]] | None = None
        self._labels: Perm | None = None

    # -- orbits ---------------------------------------------------------------

    def orbit_labels(self) -> Perm:
        """labels[x]: the least point of x's orbit (read-only, computed once)."""
        if self._labels is None:
            self._labels = orbit_labels(self.degree, self.generators)
            self._labels.flags.writeable = False
        return self._labels

    def orbit(self, point: int) -> frozenset[int]:
        if not _distinct_points(_integer_array([point]), self.degree):  # an integer in [0, degree)
            raise InvariantViolation(f"point {point} outside degree {self.degree}")
        labels = self.orbit_labels()
        return frozenset((labels == labels[point]).nonzero()[0].tolist())

    def orbits(self) -> list[frozenset[int]]:
        """Orbit partition, sorted by smallest member (`orbit_lists`)."""
        return [frozenset(orbit) for orbit in orbit_lists(self.orbit_labels())]

    # -- base and strong generators ----------------------------------------------

    def _build_chain(self) -> list[tuple[int, dict[int, Perm]]]:
        """(base[i], the transversal of its basic orbit) for every level i."""
        if self._levels is None:
            pairs = [(g, invert(g)) for g in self.generators]  # one inverse per generator
            self._levels = [
                (b, _transversal(b, [pr for pr, d in zip(pairs, self._depth) if d >= i], self.degree))
                for i, b in enumerate(self._base)
            ]
        return self._levels

    def order(self) -> int:
        """The product of the basic orbit sizes; no transversal is built.
        The generators of depth >= i generate the stabilizer of base[:i].
        Folded into the orbit labels from the deepest level up, each
        generator once, they give every basic orbit, and at level 0 the
        group's orbit labels."""
        import numpy as np
        if not self.generators:
            return 1
        levels: dict[int, list[Perm]] = {}
        for g, i in zip(self.generators, self._depth):
            levels.setdefault(i, []).append(g)
        labels, n = None, 1
        for i in sorted(levels, reverse=True):
            labels = orbit_labels(self.degree, levels[i], labels)
            n *= int(np.count_nonzero(labels == labels[self._base[i]]))
        if self._labels is None:
            labels.flags.writeable = False
            self._labels = labels
        return n

    def contains(self, perm: Sequence[int]) -> bool:
        """Whether perm lies in the group: it is stripped through the base's
        transversals, and a member leaves the identity."""
        p = _validate_perm(perm, self.degree)
        for b, inverse in self._build_chain():
            u_inv = inverse.get(int(p[b]))
            if u_inv is None:
                return False
            p = u_inv[p]
        return is_identity(p)

    # -- predicates ---------------------------------------------------------------

    def is_semiregular(self) -> bool:
        """Every point stabilizer trivial, i.e. every orbit has full group size."""
        import numpy as np
        size = self.order()  # first: it leaves the orbit labels cached
        labels = self.orbit_labels()
        return bool((np.bincount(labels)[labels] == size).all())


def orbit_of_tuple(generators: Iterable[Sequence[int]], seed: Sequence[int]) -> frozenset[tuple[int, ...]]:
    """Orbit of a point tuple under the componentwise action of the
    generators, maps of one degree n; every point must lie in [0, n)."""
    import numpy as np
    gens = as_perm(list(generators))  # a generator a row
    frontier = as_perm(seed)[None]
    if gens.size:
        _points_below(gens, gens.shape[-1])
        _points_below(frontier, gens.shape[-1])
    seen = {tuple(frontier[0].tolist())}
    while gens.size and len(frontier):
        images = np.unique(np.concatenate(gens[:, frontier]), axis=0)
        new = [t for t in map(tuple, images.tolist()) if t not in seen]
        seen.update(new)
        frontier = as_perm(new).reshape(len(new), frontier.shape[1])
    return frozenset(seen)
