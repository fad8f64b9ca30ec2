"""Dense permutations and permutation groups with a deterministic stabilizer chain.

Permutations are tuples of images on [0, degree).  Groups carry their
generators plus a lazily built base-and-strong-generating-set computed by a
deterministic Schreier-Sims procedure: base points are always the smallest
point moved by the residue that created the level, Schreier generators are
processed in a fixed scan order, so orders, transversals and sift results are
reproducible across runs.

A group built by `PermGroup.with_base` already knows a base relative to which
its generators are strong (the automorphism search proves this for the base
it individualizes); its order is the product of basic orbit sizes and its
transversals come from one pass over the generators, with no Schreier-Sims.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import BudgetError, ContainmentError, DegreeMismatch, InvariantViolation

Perm = tuple[int, ...]

DEGREE_BUDGET = 100_000


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def is_identity(p: Perm) -> bool:
    return all(i == x for i, x in enumerate(p))


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p first, then q."""
    if len(p) != len(q):
        raise DegreeMismatch(f"degrees {len(p)} and {len(q)} differ")
    return tuple(q[x] for x in p)


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def perm_power(p: Perm, k: int) -> Perm:
    if k < 0:
        return perm_power(invert(p), -k)
    result = identity(len(p))
    base = p
    while k:
        if k & 1:
            result = compose(result, base)
        base = compose(base, base)
        k >>= 1
    return result


def cycle_type(p: Perm) -> tuple[int, ...]:
    seen = [False] * len(p)
    sizes = []
    for start in range(len(p)):
        if seen[start]:
            continue
        size = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            size += 1
        sizes.append(size)
    return tuple(sorted(sizes, reverse=True))


def _validate_perm(p: Sequence[int], degree: int) -> Perm:
    if len(p) != degree:
        raise DegreeMismatch(f"permutation of length {len(p)}, expected {degree}")
    if sorted(p) != list(range(degree)):
        raise InvariantViolation("images are not a bijection on the domain")
    return tuple(p)


class _Level:
    __slots__ = ("base", "transversal")

    def __init__(self, base: int, degree: int):
        self.base = base
        self.transversal: dict[int, Perm] = {base: identity(degree)}


class PermGroup:
    """Permutation group given by generators, with orbit/order/membership services."""

    def __init__(self, degree: int, generators: Iterable[Sequence[int]]):
        if degree > DEGREE_BUDGET:
            raise BudgetError(f"degree {degree} exceeds the budget {DEGREE_BUDGET}")
        self.degree = degree
        gens = []
        seen = set()
        for g in generators:
            p = _validate_perm(g, degree)
            if not is_identity(p) and p not in seen:
                seen.add(p)
                gens.append(p)
        self.generators: tuple[Perm, ...] = tuple(gens)
        self._base: tuple[int, ...] | None = None
        self._strong: list[Perm] | None = None
        self._levels: list[_Level] | None = None

    @classmethod
    def with_base(
        cls, degree: int, generators: Iterable[Sequence[int]], base: Sequence[int]
    ) -> "PermGroup":
        """Group whose generators are a strong generating set relative to base.

        The caller vouches that, for every i, the generators fixing base[:i]
        pointwise generate the pointwise stabilizer of base[:i] in the group.
        Then order() is the product of basic orbit sizes and contains() sifts
        through transversals built in one pass, with no Schreier-Sims.
        """
        G = cls(degree, generators)
        for b in base:
            if not 0 <= b < degree:
                raise InvariantViolation(f"base point {b} outside degree {degree}")
        for g in G.generators:
            if all(g[b] == b for b in base):
                raise InvariantViolation("a generator fixes the whole base")
        G._base = tuple(base)
        return G

    # -- orbits ---------------------------------------------------------------

    def orbit(self, point: int) -> frozenset[int]:
        if not 0 <= point < self.degree:
            raise InvariantViolation(f"point {point} outside degree {self.degree}")
        return _orbit(point, self.generators)

    def orbits(self) -> list[frozenset[int]]:
        """Orbit partition, sorted by smallest member."""
        left = set(range(self.degree))
        out = []
        while left:
            orb = self.orbit(min(left))
            out.append(orb)
            left -= orb
        return out

    # -- stabilizer chain -------------------------------------------------------

    def _sift(self, perm: Perm, levels: list[_Level], start: int = 0) -> tuple[Perm, int]:
        """Strip perm through the chain; returns (residue, level where it stuck)."""
        for idx in range(start, len(levels)):
            lv = levels[idx]
            img = perm[lv.base]
            if img == lv.base:
                continue
            rep = lv.transversal.get(img)
            if rep is None:
                return perm, idx
            perm = compose(perm, invert(rep))
        return perm, len(levels)

    def _build_chain(self) -> None:
        if self._levels is not None:
            return
        degree = self.degree
        strong: list[Perm] = list(self.generators)
        levels = [_Level(b, degree) for b in self._base or ()]

        def rebuild() -> list[list[Perm]]:
            # Assign base points so every strong generator moves some base;
            # level i uses the strong generators fixing all earlier bases.
            while True:
                for g in strong:
                    if all(g[lv.base] == lv.base for lv in levels):
                        base = min(x for x in range(degree) if g[x] != x)
                        levels.append(_Level(base, degree))
                        break
                else:
                    break
            per_level: list[list[Perm]] = []
            fixed: list[int] = []
            for lv in levels:
                gens_here = [g for g in strong if all(g[b] == b for b in fixed)]
                per_level.append(gens_here)
                fixed.append(lv.base)
                lv.transversal = {lv.base: identity(degree)}
                frontier = [lv.base]
                while frontier:
                    new = []
                    for pt in frontier:
                        u = lv.transversal[pt]
                        for g in gens_here:
                            img = g[pt]
                            if img not in lv.transversal:
                                lv.transversal[img] = compose(u, g)
                                new.append(img)
                    frontier = new
            return per_level

        while True:
            per_level = rebuild()
            if self._base is not None:
                break  # the generators are already strong relative to the base
            new_residue = None
            for idx, lv in enumerate(levels):
                for pt in sorted(lv.transversal):
                    u = lv.transversal[pt]
                    for g in per_level[idx]:
                        img = g[pt]
                        schreier = compose(compose(u, g), invert(lv.transversal[img]))
                        residue, _ = self._sift(schreier, levels, idx)
                        if not is_identity(residue):
                            new_residue = residue
                            break
                    if new_residue:
                        break
                if new_residue:
                    break
            if new_residue is None:
                break
            strong.append(new_residue)
        self._strong = strong
        self._levels = levels

    def order(self) -> int:
        n = 1
        if self._base is not None:
            # product of basic orbit sizes; no transversal is built
            gens = self.generators
            for b in self._base:
                n *= len(_orbit(b, gens))
                gens = tuple(g for g in gens if g[b] == b)
            return n
        self._build_chain()
        assert self._levels is not None
        for lv in self._levels:
            n *= len(lv.transversal)
        return n

    def contains(self, perm: Sequence[int]) -> bool:
        p = _validate_perm(perm, self.degree)
        self._build_chain()
        assert self._levels is not None
        residue, _ = self._sift(p, self._levels)
        return is_identity(residue)

    # -- predicates ---------------------------------------------------------------

    def is_semiregular(self, domain: Iterable[int] | None = None) -> bool:
        """Every point stabilizer trivial, i.e. every orbit has full group size."""
        size = self.order()
        points = range(self.degree) if domain is None else list(domain)
        seen: set[int] = set()
        for pt in points:
            if pt in seen:
                continue
            orb = self.orbit(pt)
            if len(orb) != size:
                return False
            seen |= orb
        return True

    def is_transitive_on(self, subset: Iterable[int]) -> bool:
        pts = set(subset)
        if not pts:
            raise InvariantViolation("subset must be nonempty")
        for g in self.generators:
            for x in pts:
                if g[x] not in pts:
                    raise InvariantViolation("subset is not invariant under the group")
        return self.orbit(min(pts)) == pts

    def enumerate_elements(self, limit: int = 100_000) -> list[Perm]:
        """Full closure of the generators; independent oracle for order/membership."""
        seen = {identity(self.degree)}
        frontier = [identity(self.degree)]
        while frontier:
            new = []
            for x in frontier:
                for g in self.generators:
                    y = compose(x, g)
                    if y not in seen:
                        seen.add(y)
                        new.append(y)
            if len(seen) > limit:
                raise BudgetError(f"enumeration exceeds limit {limit}")
            frontier = new
        return sorted(seen)


def _orbit(point: int, generators: Sequence[Perm]) -> frozenset[int]:
    seen = {point}
    frontier = [point]
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = g[x]
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return frozenset(seen)


def perm_to_json(p: Perm) -> str:
    """A permutation as a JSON array of images."""
    import json

    return json.dumps(list(p))


def generators_to_json(G: PermGroup) -> str:
    import json

    return json.dumps([list(g) for g in G.generators])


def is_normal(G: PermGroup, N: PermGroup) -> bool:
    """Whether <N> is normal in <G>; requires N's generators to lie in G."""
    if G.degree != N.degree:
        raise DegreeMismatch(f"degrees {G.degree} and {N.degree} differ")
    for n in N.generators:
        if not G.contains(n):
            raise ContainmentError("N is not contained in G")
    for g in G.generators:
        ginv = invert(g)
        for n in N.generators:
            if not N.contains(compose(compose(ginv, n), g)):
                return False
            if not N.contains(compose(compose(g, n), ginv)):
                return False
    return True


def orbit_of_tuple(generators: Iterable[Perm], seed: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Orbit of a point tuple under the componentwise action of the generators."""
    gens = list(generators)
    seen = {seed}
    frontier = [seed]
    while frontier:
        new = []
        for item in frontier:
            for g in gens:
                img = tuple(g[x] for x in item)
                if img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    return frozenset(seen)
