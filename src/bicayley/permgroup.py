"""Dense permutations and permutation groups given a base.

A permutation is a contiguous 1-d ``np.intp`` array of images on [0, degree):
``compose(p, q)`` is ``q[p]`` and `invert` one scatter.  Public functions also
take any integer sequence; group generators are read-only arrays.
`compose` and `invert` also take an (m, n) stack of permutations, one a
row, in any integer dtype, and work row by row with one numpy operation for
all rows.  Powers have one kernel: `perm_powers` takes a stack with the row
of each exponent and forms the powers one exponent class at a time;
`perm_power` is one row of it.  A stack's results keep its dtype.  Every
orbit of points comes from `orbit_labels`, the least point of each orbit:
`orbit_lists` groups points by label, and `PermGroup.order` folds a group's
generators into labels level by level for its basic orbits.  Only the
transversals of `contains` and `orbit_of_tuple`, on point tuples, search
outward.  numpy is imported on use, as in graphs.py.

A group has one way to its order: the product of its basic orbit sizes.
So every group is built with a base relative to which its generators are
strong, `PermGroup(degree, generators, base)`, and the base gives its
order, membership and semiregularity.  Every group the library builds has
one: the automorphism search proves it for the base it individualizes,
and R(H), being semiregular, has a trivial stabilizer of 0, so any
generators are strong for the base [0].  A group with no generators has
order 1 with the empty base.  The generic Schreier-Sims scan, which finds
a base and strong generators for any group, is a test oracle
(`tests/oracles.py`).
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import BudgetError, DegreeMismatch, InvariantViolation

if TYPE_CHECKING:
    import numpy as np
    Perm = np.ndarray

DEGREE_BUDGET = 100_000


def as_perm(p: Sequence[int]) -> Perm:
    """p (a permutation or any list of points) as a contiguous np.intp array;
    an array that already is one is not copied."""
    import numpy as np
    return np.ascontiguousarray(p, dtype=np.intp)


def identity(degree: int) -> Perm:
    import numpy as np
    return np.arange(degree, dtype=np.intp)


def is_identity(p: Sequence[int]) -> bool:
    return bool((as_perm(p) == identity(len(p))).all())


def _perms(p) -> Perm:
    """p as a permutation (`as_perm`), or a 2-d stack of permutations, one a
    row, as it is: any integer dtype and memory layout."""
    import numpy as np
    a = np.asarray(p)
    return a if a.ndim == 2 else as_perm(a)


def _flat(p: Perm) -> Perm:
    """The points of an (m, n) stack as indices into its flattened array: each
    row is shifted to its own row (its points must lie in [0, n))."""
    import numpy as np
    m, n = p.shape
    return p + np.arange(m, dtype=np.intp)[:, None] * n


def _gather(q: Perm, p: Perm) -> Perm:
    """q[p], row by row for stacks of one shape."""
    import numpy as np
    return q[p] if p.ndim == 1 else np.take(q, _flat(p))


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """Apply p first, then q; for two (m, n) stacks, row by row."""
    p, q = _perms(p), _perms(q)
    if p.shape != q.shape:
        raise DegreeMismatch(f"degrees {len(p)} and {len(q)} differ" if p.ndim == q.ndim == 1
                             else f"shapes {p.shape} and {q.shape} differ")
    return _gather(q, p)


def invert(p: Sequence[int]) -> Perm:
    """p^-1 by one scatter; for an (m, n) stack, row by row, in its dtype."""
    import numpy as np
    p = _perms(p)
    out = np.empty(p.shape, p.dtype)
    if p.ndim == 1:
        out[p] = identity(len(p))
    else:  # the row of images repeats for every row
        np.put(out, _flat(p), identity(p.shape[-1]))
    return out


def perm_power(p: Sequence[int], k: int) -> Perm:
    """p^k; k may be negative or exceed the order of p."""
    return perm_powers(as_perm(p)[None], [k], [0])[0]


def perm_powers(p: Perm, exponents: Iterable[int], rows: Iterable[int]) -> Perm:
    """The (len(rows), n) stack of p[rows[i]]^exponents[i] for an (m, n)
    stack p of permutations, one a row, in p's dtype; a row may be wanted
    with any number of exponents, and k may be negative or exceed the order
    of its row.  No result aliases p or another result.

    The kernel works on flat indices, row r's point x being r n + x, in the
    narrowest unsigned dtype that holds m n - 1: then q[p] is one `take`,
    with no shift to add.  The squarings p^(2^i) are made for the whole
    stack, one `take` each, and shared by every row.  Point 0 is walked in
    lockstep on every row, the trajectory doubling with each squaring, for
    at most max |k| steps (or until it is back on every row); a row's
    exponents are reduced mod the period L of its point 0 only once p^L is
    checked to be the identity (another cycle may be longer), one check per
    L.  The powers are then formed one exponent class at a time (grouped in
    a dict; np.unique would import numpy.ma): the rows wanting p^k are
    gathered from the lowest square of |k| and composed with its other set
    squares, a `take` each, so a call costs a few array operations per
    class and per squaring, whatever the number of rows.  A negative k
    inverts p^|k|."""
    import numpy as np
    p = np.asarray(p)
    if p.ndim != 2:
        raise TypeError("perm_powers takes an (m, n) stack; use perm_power for one permutation")
    m, n = p.shape
    exponents = [operator.index(k) for k in exponents]
    at = as_perm([operator.index(r) for r in rows])
    if len(at) != len(exponents):
        raise ValueError(f"{len(exponents)} exponents for {len(at)} rows")
    if ((at < 0) | (at >= m)).any():
        raise IndexError(f"a row outside [0, {m})")
    out = np.empty((len(at), n), p.dtype)
    if not n or not len(at):
        return out
    # row r's point 0, in the narrowest unsigned dtype that holds m n - 1
    shift = (np.arange(m, dtype=np.intp) * n).astype(np.min_scalar_type(m * n - 1))[:, None]
    # squares[i] = p^(2^i) on flat indices, every row, grown as needed
    squares = [p.astype(shift.dtype) + shift]

    def square(i: int) -> Perm:
        while len(squares) <= i:
            squares.append(squares[-1].take(squares[-1]))
        return squares[i]

    def power(bits: int, at: Perm) -> Perm:
        # p[r]^bits on flat indices for the rows r in at, bits >= 1
        set_bits = [i for i in range(bits.bit_length()) if bits >> i & 1]
        result = square(set_bits[0])[at]
        for i in set_bits[1:]:
            result = square(i).take(result)
        return result

    # point 0's trajectory on every row: column j is where j + 1 steps take it
    top = max(map(abs, exponents))
    trajectory, i = squares[0][:, :1], 0
    back = trajectory == shift
    while trajectory.shape[1] < top and not back.any(axis=1).all():
        trajectory = np.concatenate([trajectory, square(i).take(trajectory)], axis=1)
        back, i = trajectory == shift, i + 1
    period = np.where(back.any(axis=1), back.argmax(axis=1) + 1, 0)
    # reduce mod L only on the rows whose p^L is the identity, one check per L
    verified = np.zeros(m, np.intp)
    for L in set(period.tolist()) - {0}:
        rows_L = np.flatnonzero(period == L)
        fixed = (power(L, rows_L) - shift[rows_L] == identity(n)).all(axis=1)
        verified[rows_L[fixed]] = L
    classes: dict[int, list[int]] = {}  # exponent -> the wanted powers with it
    for i, (k, L) in enumerate(zip(exponents, verified[at].tolist())):
        classes.setdefault(k % L if L else k, []).append(i)
    for k, wanted in classes.items():
        if not k:
            out[wanted] = identity(n)
            continue
        rows_k = at[wanted]
        result = power(abs(k), rows_k) - shift[rows_k]
        out[wanted] = invert(result) if k < 0 else result
    return out


def cycle_type(p: Sequence[int]) -> tuple[int, ...]:
    import numpy as np
    p = as_perm(p)
    sizes = np.bincount(orbit_labels(len(p), [p]))
    return tuple(sorted(sizes[sizes > 0].tolist(), reverse=True))


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
    labels = np.arange(degree, dtype=np.intp) if labels is None else np.array(labels, dtype=np.intp)
    hooked = True
    while hooked:
        hooked = False
        for g in generators:
            if np.ndim(g) == 1:
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


def _validate_perm(p: Sequence[int], degree: int) -> Perm:
    """A read-only private copy of p, checked to be a permutation of [0, degree)."""
    import numpy as np
    arr = np.array(p, dtype=np.intp)
    if arr.shape != (degree,):
        raise DegreeMismatch(f"permutation of length {arr.size}, expected {degree}")
    if not np.array_equal(np.sort(arr), identity(degree)):
        raise InvariantViolation("images are not a bijection on the domain")
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
        self._base: tuple[int, ...] = tuple(int(b) for b in base)
        for b in self._base:
            if not 0 <= b < degree:
                raise InvariantViolation(f"base point {b} outside degree {degree}")
        points = as_perm(self._base)
        for g in gens:
            if (g[points] == points).all():
                raise InvariantViolation("a generator fixes the whole base")
        self.generators: tuple[Perm, ...] = tuple(gens)
        self._levels: list[tuple[int, dict[int, Perm]]] | None = None
        self._labels: Perm | None = None

    # -- orbits ---------------------------------------------------------------

    def orbit_labels(self) -> Perm:
        """labels[x]: the least point of x's orbit (read-only, computed once)."""
        if self._labels is None:
            self._labels = orbit_labels(self.degree, self.generators)
            self._labels.flags.writeable = False
        return self._labels

    def _points(self, points: Iterable[int]) -> Perm:
        """points as an array, each checked to lie in [0, degree)."""
        arr = as_perm(list(points))
        outside = (arr < 0) | (arr >= self.degree)
        if outside.any():
            raise InvariantViolation(f"point {arr[outside.argmax()]} outside degree {self.degree}")
        return arr

    def orbit(self, point: int) -> frozenset[int]:
        labels = self.orbit_labels()
        return frozenset((labels == labels[self._points([point])]).nonzero()[0].tolist())

    def orbits(self) -> list[frozenset[int]]:
        """Orbit partition, sorted by smallest member (`orbit_lists`)."""
        return [frozenset(orbit) for orbit in orbit_lists(self.orbit_labels())]

    # -- base and strong generators ----------------------------------------------

    def _depths(self) -> list[int]:
        """For each generator, the index of the first base point it moves
        (`__init__` ensures it moves one): the generators of depth >= i fix
        base[:i] and generate its pointwise stabilizer."""
        import numpy as np
        if not self.generators:
            return []
        base = as_perm(self._base)
        return (np.stack([g[base] for g in self.generators]) != base).argmax(axis=1).tolist()

    def _build_chain(self) -> list[tuple[int, dict[int, Perm]]]:
        """(base[i], the transversal of its basic orbit) for every level i."""
        if self._levels is None:
            depths = self._depths()
            pairs = [(g, invert(g)) for g in self.generators]  # one inverse per generator
            self._levels = [
                (b, _transversal(b, [pr for pr, d in zip(pairs, depths) if d >= i], self.degree))
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
        for g, i in zip(self.generators, self._depths()):
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

    def is_semiregular(self, domain: Iterable[int] | None = None) -> bool:
        """Every point stabilizer trivial (of the points in domain, default
        all), i.e. every such point's orbit has full group size."""
        import numpy as np
        size = self.order()  # first: it leaves the orbit labels cached
        labels = self.orbit_labels()
        points = labels if domain is None else labels[self._points(domain)]
        return bool((np.bincount(labels)[points] == size).all())


def orbit_of_tuple(generators: Iterable[Sequence[int]], seed: Sequence[int]) -> frozenset[tuple[int, ...]]:
    """Orbit of a point tuple under the componentwise action of the generators."""
    import numpy as np
    gens = [as_perm(g) for g in generators]
    seed = tuple(int(x) for x in seed)
    seen = {seed}
    frontier = as_perm([seed]).reshape(1, len(seed))
    while gens and len(frontier):
        images = np.unique(np.concatenate([g[frontier] for g in gens]), axis=0)
        new = [t for t in map(tuple, images.tolist()) if t not in seen]
        seen.update(new)
        frontier = as_perm(new).reshape(len(new), len(seed))
    return frozenset(seen)
