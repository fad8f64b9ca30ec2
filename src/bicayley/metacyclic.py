"""Exact arithmetic in split metacyclic p-groups and abelian two-generator groups.

Elements are normal-form pairs (j, i) standing for b^j * a^i with
0 <= j < |b| and 0 <= i < |a|.  The twisted commutation rule
a^i b^j = b^j a^{i w^j} (w = 1 + p^r) gives closed formulas for products,
powers and inverses, so every element operation is O(log) integer work:

    (b^{j1} a^{i1}) (b^{j2} a^{i2}) = b^{j1+j2} a^{i1 w^{j2} + i2}
    (b^j a^i)^k                     = b^{kj} a^{i (1 + w^j + ... + w^{(k-1)j})}

Setting w = 1 degenerates the same law to Z_{mod_j} x Z_{mod_i}, the abelian
handle of the abelian families; both decide generation by one Frattini test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import BudgetError, InvalidMapError, ParameterError
from .permgroup import DEGREE_BUDGET, PermGroup, as_perm

Element = tuple[int, int]

CLOSURE_BUDGET = 3**12
# largest order for the library's |G|^2-entry arrays (50 MB each at 2500): the
# census pair moves and the arithmetic oracle's row table; every group whose
# bi-Cayley graphs (2|G| vertices) fit the 5000-vertex search budget
TABLE_BUDGET = 2500
WORD_BUDGET = 2**63


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if d > 1 << 16:  # so every n < 2^32 factors in full
            raise BudgetError(f"factoring {n} needs trial divisors past 2^16")
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class PairGroup:
    """Group law on normal-form pairs (j, i) with a fixed twist multiplier."""

    def __init__(self, mod_j: int, mod_i: int, twist: int, twist_order: int):
        if mod_j < 1 or mod_i < 1:
            raise ParameterError("moduli must be positive")
        if mod_j >= WORD_BUDGET or mod_i >= WORD_BUDGET:
            raise OverflowError("modulus exceeds the machine word budget (2^63)")
        self.mod_j = mod_j
        self.mod_i = mod_i
        self.twist = twist % mod_i
        if pow(self.twist, twist_order, mod_i) != 1 % mod_i:
            raise ParameterError("twist multiplier order is inconsistent")
        if mod_j % twist_order != 0:
            raise ParameterError("twist order must divide the b-exponent modulus")
        self._twist_order = twist_order
        self.order = mod_j * mod_i
        self.identity: Element = (0, 0)
        self.gen_a: Element = (0, 1 % mod_i)
        self.gen_b: Element = (1 % mod_j, 0)
        self._element_list: tuple[Element, ...] | None = None
        self._grid = None

    # -- element arithmetic ------------------------------------------------

    def twist_pow(self, j: int) -> int:
        """(1+p^r)^j mod p^m, for j already reduced mod mod_j."""
        return pow(self.twist, j % self._twist_order, self.mod_i)

    def mul(self, g: Element, h: Element) -> Element:
        j1, i1 = g
        j2, i2 = h
        return ((j1 + j2) % self.mod_j, (i1 * self.twist_pow(j2) + i2) % self.mod_i)

    def inv(self, g: Element) -> Element:
        j, i = g
        nj = (-j) % self.mod_j
        return (nj, (-i * self.twist_pow(nj)) % self.mod_i)

    def pow(self, g: Element, k: int) -> Element:
        if k < 0:
            return self.pow(self.inv(g), -k)
        j, i = g
        wj = self.twist_pow(j)
        M = self.mod_i
        if wj == 1 % M:
            geom = k % M
        else:
            # 1 + wj + ... + wj^{k-1} = (wj^k - 1) / (wj - 1); reducing wj^k
            # mod M (wj - 1) keeps the division exact and the quotient mod M
            geom = (pow(wj, k, M * (wj - 1)) - 1) // (wj - 1) % M
        return ((j * k) % self.mod_j, (i * geom) % M)

    def conj(self, g: Element, h: Element) -> Element:
        """h^-1 g h."""
        return self.mul(self.mul(self.inv(h), g), h)

    def commutator(self, g: Element, h: Element) -> Element:
        """g^-1 h^-1 g h."""
        return self.mul(self.mul(self.inv(g), self.inv(h)), self.mul(g, h))

    @cached_property
    def _order_primes(self) -> list[int]:
        """The primes of |G| = mod_j mod_i, the two moduli factored apart."""
        return sorted({*_prime_factors(self.mod_j), *_prime_factors(self.mod_i)})

    def element_order(self, g: Element) -> int:
        k = self.order
        for q in self._order_primes:
            while k % q == 0 and self.pow(g, k // q) == self.identity:
                k //= q
        return k

    def is_abelian(self) -> bool:
        return self.twist_pow(1 % self.mod_j) == 1 % self.mod_i

    # -- enumeration and subgroups ------------------------------------------

    def check_enumerable(self) -> None:
        """Raise BudgetError if the group is too large to enumerate."""
        if self.order > CLOSURE_BUDGET:
            raise BudgetError(f"group order {self.order} exceeds enumeration budget")

    def elements(self) -> tuple[Element, ...]:
        """All elements in lexicographic (j, i) order."""
        if self._element_list is None:
            self.check_enumerable()
            self._element_list = tuple(
                (j, i) for j in range(self.mod_j) for i in range(self.mod_i)
            )
        return self._element_list

    def rank(self, g: Element) -> int:
        return g[0] * self.mod_i + g[1]

    def unrank(self, k: int) -> Element:
        return divmod(k, self.mod_i)

    def generates(self, x: Element, y: Element) -> bool:
        """Whether <x, y> is the whole group, by building the subgroup."""
        return len(self.closure([x, y])) == self.order

    def closure(self, generators: Iterable[Element]) -> frozenset[Element]:
        """Subgroup generated by the given elements, as an explicit set."""
        mul = self.mul
        gens = [(j % self.mod_j, i % self.mod_i) for j, i in generators]
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = mul(x, g)
                    if y not in seen:
                        seen.add(y)
                        new.append(y)
            if len(seen) > CLOSURE_BUDGET:
                raise BudgetError(f"closure exceeds enumeration budget {CLOSURE_BUDGET}")
            frontier = new
        return frozenset(seen)

    # -- whole-group kernels ---------------------------------------------------
    #
    # Each kernel is one broadcast of `_product`, the group law on rank arrays,
    # and returns a contiguous np.intp array indexed by rank.  Within the
    # enumeration budget every product (at most mod_i^2 <= 3^24) fits in int64.

    def _rank_grid(self):
        """(D, K, J, I): the tables that read ranks off the (mod_j, mod_i) grid
        of all ranks, O(|G|) entries in all.

        D[k] = (k mod mod_j) * mod_i for k < 2 mod_j is the row offset of b^k;
        K[j, i] = i w^j mod mod_i; J = 0..mod_j-1 as a column and I = 0..mod_i-1
        index the grid, so rank(b^J a^I) = J * mod_i + I."""
        if self._grid is None:
            # numpy is imported on use, as in graphs.py and permgroup.py
            import numpy as np

            self.check_enumerable()
            J = np.arange(self.mod_j, dtype=np.intp)[:, None]
            I = np.arange(self.mod_i, dtype=np.intp)
            W = np.array([self.twist_pow(j) for j in range(self.mod_j)], dtype=np.intp)
            D = (np.arange(2 * self.mod_j, dtype=np.intp) % self.mod_j) * self.mod_i
            self._grid = (D, W[:, None] * I % self.mod_i, J, I)
        return self._grid

    def _product(self, j1, i1, j2, i2):
        """rank((b^j1 a^i1) (b^j2 a^i2)) = rank(b^(j1 + j2) a^(i1 w^j2 + i2)),
        broadcast over the shapes of the four reduced parts."""
        D, K, _, _ = self._rank_grid()
        return D[j1 + j2] + (K[j2, i1] + i2) % self.mod_i

    def right_mul_ranks(self, g: Element):
        """rank(h g) for every h, in rank order of h."""
        _, _, J, I = self._rank_grid()
        return self._product(J, I, g[0] % self.mod_j, g[1] % self.mod_i).reshape(-1)

    def right_mul_rows(self, ranks):
        """right_mul_ranks(g) for the element g of each rank in [0, |G|) given
        (integer ranks, `as_perm`), as the rows of one (len(ranks), |G|) array."""
        import numpy as np

        _, _, J, I = self._rank_grid()
        j, i = np.divmod(as_perm(ranks)[:, None, None], self.mod_i)
        return self._product(J, I, j, i).reshape(-1, self.order)

    def left_mul_ranks(self, g: Element):
        """rank(g h) for every h, in rank order of h."""
        _, _, J, I = self._rank_grid()
        return self._product(g[0] % self.mod_j, g[1] % self.mod_i, J, I).reshape(-1)

    def _power_columns(self, g: Element, count: int):
        """The parts (j, i) of g^0, ..., g^{count-1} as two np.intp arrays."""
        import numpy as np

        powers = [self.identity]
        for _ in range(count - 1):
            powers.append(self.mul(powers[-1], g))
        return np.array(powers, dtype=np.intp).T

    def map_ranks(self, f: GroupMap):
        """rank(h^f) for every h = b^j a^i, i.e. of (image of b)^j (image of a)^i."""
        if not f.validated:
            raise InvalidMapError("map has not been validated as an automorphism")
        yj, yi = self._power_columns(f.image_b, self.mod_j)
        xj, xi = self._power_columns(f.image_a, self.mod_i)
        return self._product(yj[:, None], yi[:, None], xj, xi).reshape(-1)

    # -- serialization -------------------------------------------------------

    def element_str(self, g: Element) -> str:
        return f"b^{g[0]}*a^{g[1]}"


def _generates_mod_frattini(G: PairGroup, x: Element, y: Element) -> bool:
    """Whether <x, y> = G, for the two nilpotent handles.  In both G' lies in
    <a^q> for every prime q of |G|, so G/Phi(G) is the sum over q of G/G'G^q,
    b^j a^i read as (j, i) mod q: Z_q^2 if q divides both moduli, spanned iff
    det(x, y) != 0 mod q (Burnside), else Z_q, coordinate c of the modulus q divides."""
    for q in G._order_primes:
        c = int(G.mod_i % q == 0)
        if G.mod_j % q == G.mod_i % q == 0:
            if (x[0] * y[1] - x[1] * y[0]) % q == 0:
                return False
        elif x[c] % q == 0 and y[c] % q == 0:
            return False
    return True


class MetacyclicGroup(PairGroup):
    """Split metacyclic p-group <a, b | a^{p^m} = b^{p^n} = 1, b^-1 a b = a^{1+p^r}>.

    Requires p an odd prime and r < m <= n + r, which makes the presentation
    consistent of order exactly p^{m+n}; the multiplicative order of 1+p^r
    mod p^m is p^{m-r}, so the twist table has at most p^{m-r} entries.
    """

    def __init__(self, p: int, m: int, n: int, r: int):
        # cheap checks first: a huge p or exponent must not reach a big power
        # or trial division
        if p < 3 or p % 2 == 0:
            raise ParameterError(f"p must be an odd prime, got {p}")
        if min(m, n, r) < 1:
            raise ParameterError("m, n, r must be positive")
        if not (r < m <= n + r):
            raise ParameterError(f"need r < m <= n + r, got (m, n, r) = ({m}, {n}, {r})")
        # 3^40 > 2^63, so with p >= 3 an exponent of 40 or more overflows
        # before any big power is taken
        if p >= WORD_BUDGET or max(m, n) >= 40 or max(p**m, p**n) >= WORD_BUDGET:
            raise OverflowError("p^m or p^n exceeds the machine word budget (2^63)")
        # m >= 2 and p^m < 2^63 leave p < 2^31.5: at most ~55k trial divisions
        if _prime_factors(p) != [p]:
            raise ParameterError(f"p must be an odd prime, got {p}")
        p_m = p**m
        p_n = p**n
        super().__init__(p_n, p_m, 1 + p**r, p ** (m - r))
        self._order_primes = [p]
        if pow(1 + p**r, p_n, p_m) != 1:
            raise ParameterError("inconsistent presentation: (1+p^r)^(p^n) != 1 mod p^m")
        self.p = p
        self.m = m
        self.n = n
        self.r = r

    def params(self) -> tuple[int, int, int, int]:
        return (self.p, self.m, self.n, self.r)

    generates = _generates_mod_frattini

    def automorphism_generators(self) -> list[GroupMap]:
        """Automorphisms that generate Aut(G), each fixing the other generator:

        * a -> a^g, with g the least primitive root mod p^2 (so mod every p^m);
        * b -> b a^(p^max(0, m-n));
        * a -> a b^(p^max(0, n-r));
        * b -> b^(1+p^(m-r)), left out when it is the identity (m = n + r).

        Each is built by `make_automorphism`, so every image is checked.
        g is tested against the primes of phi(p^2) = p (p - 1): p and those of
        p - 1, by at most the constructor's trial divisions.
        """
        p, m, n, r = self.params()
        a, b = self.gen_a, self.gen_b
        phi = p * (p - 1)
        primes = [p, *_prime_factors(p - 1)]
        g = 2
        while any(pow(g, phi // q, p * p) == 1 for q in primes):
            g += 1
        images = [
            (self.pow(a, g), b),
            (a, self.mul(b, self.pow(a, p ** max(0, m - n)))),
            (self.mul(a, self.pow(b, p ** max(0, n - r))), b),
        ]
        if m < n + r:
            images.append((a, self.pow(b, 1 + p ** (m - r))))
        return [make_automorphism(self, x, y) for x, y in images]

    def automorphism_group(self) -> PermGroup:
        """Aut(G) on the ranks of G: the rows of `automorphism_generators`,
        which generate it, strong for the base (a, b), so `order()` = |Aut(G)|.

        An automorphism fixing a sends b to y = b^u a^v; y^-1 a y = a^(1+p^r)
        forces u = 1 mod p^(m-r), and y^(p^n) = a^(v s), s = ((1+p^r)^(p^n) - 1)
        / p^r of p-adic valuation n, forces p^max(0, m-n) | v.  The second map
        generates the kernel {b -> b a^v} of f -> u, the fourth its image, the
        cyclic units 1 mod p^(m-r) mod p^n (trivial, and the map left out, when
        m = n + r): these two fix a and generate its stabilizer.  A group above
        `DEGREE_BUDGET` is refused before any row is built."""
        if self.order > DEGREE_BUDGET:
            raise BudgetError(f"degree {self.order} exceeds the budget {DEGREE_BUDGET}")
        rows = [self.map_ranks(f) for f in self.automorphism_generators()]
        return PermGroup(self.order, rows, [self.rank(self.gen_a), self.rank(self.gen_b)])

    def is_inner_abelian(self) -> bool:
        """Non-abelian with every proper subgroup abelian, in closed form: m - r == 1.

        G' = <a^(p^r)> has order p^(m-r), and a non-abelian two-generator
        p-group is minimal non-abelian exactly when |G'| = p (Redei).
        """
        return self.m - self.r == 1


class AbelianPairGroup(PairGroup):
    """Z_{mod_j} x Z_{mod_i} in the same normal-form representation (trivial twist)."""

    def __init__(self, mod_j: int, mod_i: int):
        super().__init__(mod_j, mod_i, 1, 1)

    generates = _generates_mod_frattini


def make_group(p: int, m: int, n: int, r: int) -> MetacyclicGroup:
    return MetacyclicGroup(p, m, n, r)


# -- generator-image maps ----------------------------------------------------


@dataclass(frozen=True)
class GroupMap:
    """Candidate endomorphism given by the images of the generators a and b."""

    image_a: Element
    image_b: Element
    validated: bool = False


@dataclass(frozen=True)
class PairRelationReport:
    """Which defining relations a candidate generator pair (x, y) satisfies.

    When the conjugation relation y^-1 x y = x^{1+p^r} fails and the defect is
    a pure power of a, forced_a_exponents lists the exponents e (as {e, -e mod
    p^m}) whose triviality a^e = 1 the relation would force.
    """

    a_order_ok: bool
    b_order_ok: bool
    conjugation_ok: bool
    generates: bool
    forced_a_exponents: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return self.a_order_ok and self.b_order_ok and self.conjugation_ok and self.generates

    def violated(self) -> str | None:
        if not self.a_order_ok:
            return "order of image of a"
        if not self.b_order_ok:
            return "order of image of b"
        if not self.conjugation_ok:
            return "conjugation relation y^-1 x y = x^(1+p^r)"
        if not self.generates:
            return "images do not generate the group"
        return None


def check_generator_images(G: PairGroup, x: Element, y: Element) -> PairRelationReport:
    """Test whether a |-> x, b |-> y satisfies the presentation and generates."""
    a_ok = G.pow(x, G.mod_i) == G.identity
    b_ok = G.pow(y, G.mod_j) == G.identity
    lhs = G.conj(x, y)
    rhs = G.pow(x, G.twist)
    conj_ok = lhs == rhs
    forced: tuple[int, ...] = ()
    if not conj_ok:
        defect = G.mul(G.inv(rhs), lhs)
        if defect[0] == 0:
            forced = tuple(sorted({defect[1], (-defect[1]) % G.mod_i}))
    generates = G.generates(x, y)
    return PairRelationReport(a_ok, b_ok, conj_ok, generates, forced)


def make_automorphism(G: PairGroup, x: Element, y: Element) -> GroupMap:
    report = check_generator_images(G, x, y)
    if not report.ok:
        raise InvalidMapError(
            f"images a -> {G.element_str(x)}, b -> {G.element_str(y)} "
            f"violate: {report.violated()}"
        )
    return GroupMap(x, y, validated=True)


def identity_map(G: PairGroup) -> GroupMap:
    return GroupMap(G.gen_a, G.gen_b, validated=True)
