"""Arithmetic weight tables: powers, polygonal indicators and subgroup
counts of free abelian groups.

Subgroup counts are multiplicative and are filled from a
smallest-prime-factor sieve, with closed forms at prime powers.
An exponent spec selects the weight function f attached to the product
G(q) = prod_{n>=1} (1 - q^n)^{-f(n)}.  Each spec class gives its weight
table (weights), its tag in reports (label) and an exponent D with
f(m) <= m^D for every m >= 1 (growth; None for a finite table).  All
tables are 1-indexed Python lists with a zero sentinel stored at index 0.
"""

from __future__ import annotations

from math import isqrt


class Record:
    """An immutable record that compares, hashes, shows, pickles and
    copies by its fields as a frozen dataclass does.  A subclass lists
    its fields in __slots__ and sets them in __init__ through
    object.__setattr__.  Plain classes keep `dataclasses`, and the
    modules it imports, off the start-up path of every command."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuild through __init__: the default slot state is restored by
        # setattr, which the record refuses
        return type(self), self._fields()


class SubgroupCount(Record):
    """f(n) = number of index-n subgroups of Z^rank."""

    __slots__ = ("rank",)

    def __init__(self, rank: int) -> None:
        if rank < 1:
            raise ValueError("rank must be a positive integer")
        object.__setattr__(self, "rank", rank)

    def weights(self, n_max: int) -> list[int]:
        return subgroup_count_table(self.rank, n_max) if n_max else [0]

    @property
    def label(self) -> str:
        return f"subgroups-rank-{self.rank}"

    @property
    def growth(self) -> int:
        # at most n^(rank-1) ordered factorizations, each contributing
        # at most n^(rank-1)
        return 2 * (self.rank - 1)


class Power(Record):
    """f(n) = n^d."""

    __slots__ = ("d",)

    def __init__(self, d: int) -> None:
        if d < 0:
            raise ValueError("d must be >= 0")
        object.__setattr__(self, "d", d)

    def weights(self, n_max: int) -> list[int]:
        return [0] + [n**self.d for n in range(1, n_max + 1)]

    @property
    def label(self) -> str:
        return f"power-{self.d}"

    @property
    def growth(self) -> int:
        return self.d


class PolygonalIndicator(Record):
    """f(n) = 1 if n is a k-gonal number, else 0."""

    __slots__ = ("k",)

    def __init__(self, k: int) -> None:
        if k < 3:
            raise ValueError("k must be >= 3")
        object.__setattr__(self, "k", k)

    def weights(self, n_max: int) -> list[int]:
        return [0] + [1 if is_polygonal(self.k, n) else 0 for n in range(1, n_max + 1)]

    @property
    def label(self) -> str:
        return f"polygonal-{self.k}"

    growth = 0


class TableExponent(Record):
    """f given by an explicit value table (f(1), f(2), ...)."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]) -> None:
        vals = tuple(int(v) for v in values)
        if any(v < 0 for v in vals):
            raise ValueError("table values must be >= 0")
        object.__setattr__(self, "values", vals)

    def weights(self, n_max: int) -> list[int]:
        if len(self.values) < n_max:
            raise ValueError("table too short for requested range")
        return [0, *self.values[:n_max]]

    @property
    def label(self) -> str:
        return f"table-{len(self.values)}"

    growth = None


ExponentSpec = SubgroupCount | Power | PolygonalIndicator | TableExponent


def subgroup_count_table(ell: int, n_max: int) -> list[int]:
    """g_ell(n) for n = 1..n_max: index-n subgroups of Z^ell.

    g_ell = Id^0 * Id^1 * ... * Id^(ell-1) (Dirichlet convolution) is
    multiplicative, with g_ell(p^k) the Gaussian binomial
    prod_{i=1}^{ell-1} (p^(k+i) - 1)/(p^i - 1); the table is filled from
    a smallest-prime-factor sieve.  Equivalently g_ell(n) = sum over
    diagonal Hermite forms of prod d_j^(j-1).
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if ell == 1:
        return [0] + [1] * n_max
    spf = list(range(n_max + 1))
    for p in range(2, isqrt(n_max) + 1):
        if spf[p] == p:
            for m in range(p * p, n_max + 1, p):
                if spf[m] == m:
                    spf[m] = p
    table = [0, 1] + [0] * (n_max - 1)
    for n in range(2, n_max + 1):
        p = spf[n]
        pk = p
        while n // pk % p == 0:
            pk *= p
        if pk < n:
            table[n] = table[pk] * table[n // pk]
        else:
            num = den = 1
            for i in range(1, ell):
                num *= pk * p**i - 1
                den *= p**i - 1
            table[n] = num // den
    return table


def is_polygonal(k: int, n: int) -> bool:
    """True iff n = m((k-2)m - (k-4))/2 for some integer m >= 1."""
    if k < 3:
        raise ValueError("k must be >= 3")
    if n < 1:
        return False
    disc = 8 * (k - 2) * n + (k - 4) ** 2
    r = isqrt(disc)
    if r * r != disc:
        return False
    num = r + k - 4
    den = 2 * (k - 2)
    return num % den == 0 and num // den >= 1


def evaluate_exponent(spec: ExponentSpec, n_max: int) -> list[int]:
    """Weight table (0, f(1), ..., f(n_max)) for an exponent spec."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return spec.weights(n_max)
