"""Truncated p-typical Witt vectors over monomial algebras.

The universal sum/product/negation/Frobenius polynomials are produced once
per (p, n) by the exact integer recursion that solves the ghost equations;
any non-exact division is a fatal bug, and the ghost identities are also
re-checked symbolically when the cache is built.  Witt vectors themselves
are plain component tuples over their base ring, and all arithmetic is
evaluation of the cached polynomials.

Over a finite base (one with `elements` and `size`, as `MonomialAlgebra`
has) a `WittRing` also memoises add, mul, neg and frobenius_charp on the
exact operand tuples, one table per operation and per ring instance.  The
tables start empty and hold at most |W_n(R)|^2 entries, so repeated
arithmetic on a desk-scale carrier (window hom scans, Witt and quotient
frames) evaluates each universal polynomial once per operand pair.
Infinite bases such as `IntPolyRing` hold unhashable elements and always
evaluate directly.
"""

from __future__ import annotations

from functools import cached_property

from .frames import TableCoords
from .intpoly import IntPolyRing


class WittPolynomialCache:
    """Universal Witt polynomials for a fixed prime p and length n.

    S_i / P_i / N_i have integer coefficients in x_0..x_{n-1}, y_0..y_{n-1};
    the truncated Frobenius polynomials F_0..F_{n-2} describe W_n -> W_{n-1}.
    """

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        names = tuple(f"x{i}" for i in range(n)) + tuple(f"y{i}" for i in range(n))
        self.ring = IntPolyRing(names)
        R = self.ring
        xs = [R.gen(f"x{i}") for i in range(n)]
        ys = [R.gen(f"y{i}") for i in range(n)]
        self.ghost_x = [self._ghost(xs, i) for i in range(n)]
        self.ghost_y = [self._ghost(ys, i) for i in range(n)]
        self.S = self._solve([R.add(gx, gy) for gx, gy in zip(self.ghost_x, self.ghost_y)])
        self.P = self._solve([R.mul(gx, gy) for gx, gy in zip(self.ghost_x, self.ghost_y)])
        self.N = self._solve([R.neg(gx) for gx in self.ghost_x])
        self.F = self._solve([self.ghost_x[i + 1] for i in range(n - 1)])
        self.verify_ghost_identities()

    def _ghost(self, comps, i):
        R = self.ring
        acc = R.zero
        for j in range(i + 1):
            acc = R.add(acc, R.scale(self.p ** j, R.pow(comps[j], self.p ** (i - j))))
        return acc

    def _solve(self, targets):
        """Solve w_i(Z) = targets[i] for Z_i by exact division by p^i."""
        R = self.ring
        out = []
        for i, tgt in enumerate(targets):
            rhs = tgt
            for j in range(i):
                rhs = R.sub(rhs, R.scale(self.p ** j, R.pow(out[j], self.p ** (i - j))))
            out.append(R.divexact(rhs, self.p ** i))
        return out

    def verify_ghost_identities(self) -> None:
        """Symbolic w_i compatibility for every cached polynomial family."""
        R = self.ring
        for i in range(self.n):
            assert R.equal(self._ghost(self.S, i), R.add(self.ghost_x[i], self.ghost_y[i]))
            assert R.equal(self._ghost(self.P, i), R.mul(self.ghost_x[i], self.ghost_y[i]))
            assert R.equal(self._ghost(self.N, i), R.neg(self.ghost_x[i]))
        for i in range(self.n - 1):
            assert R.equal(self._ghost(self.F, i), self.ghost_x[i + 1])


_CACHE: dict[tuple[int, int], WittPolynomialCache] = {}


def witt_cache(p: int, n: int) -> WittPolynomialCache:
    key = (p, n)
    if key not in _CACHE:
        _CACHE[key] = WittPolynomialCache(p, n)
    return _CACHE[key]


class WittRing(TableCoords):
    """W_n(base) with componentwise canonical elements (tuples of length n).

    `base` is any ring object exposing add/mul/neg/zero/one/equal/embed_int
    (MonomialAlgebra and IntPolyRing both qualify).  Vectors over different
    carriers never mix: ops check length and assume a fixed base.  Table
    coordinates are over Z/p^n, which kills W_n of a characteristic-p base.
    """

    def __init__(self, base, n: int, p: int | None = None):
        self.base = base
        self.n = n
        self.p = base.p if p is None else p
        self.cache = witt_cache(self.p, n)
        finite = hasattr(base, "elements") and hasattr(base, "size")
        self._memo = {op: {} for op in ("add", "mul", "neg", "frob")} if finite else None

    def __repr__(self):
        return f"W_{self.n}({self.base!r})"

    def __eq__(self, other):
        return isinstance(other, WittRing) and (self.base, self.n, self.p) == (
            other.base,
            other.n,
            other.p,
        )

    def __hash__(self):
        return hash(("WittRing", self.base, self.n, self.p))

    # -- element plumbing --

    @property
    def zero(self):
        return (self.base.zero,) * self.n

    @property
    def one(self):
        return (self.base.one,) + (self.base.zero,) * (self.n - 1)

    def _eval(self, polys, x, y=None):
        values = list(x) + list(y if y is not None else x)
        R = self.cache.ring
        return tuple(R.evaluate_in(f, self.base, values) for f in polys)

    def _memoised(self, op, compute, *args):
        """compute(*args), looked up first in this ring's table for op."""
        if self._memo is None:
            return compute(*args)
        table = self._memo[op]
        key = tuple(tuple(a) for a in args)
        out = table.get(key)
        if out is None:
            out = table[key] = compute(*args)
        return out

    def add(self, x, y):
        self._check(x, y)
        return self._memoised("add", lambda a, b: self._eval(self.cache.S, a, b), x, y)

    def mul(self, x, y):
        self._check(x, y)
        return self._memoised("mul", lambda a, b: self._eval(self.cache.P, a, b), x, y)

    def neg(self, x):
        self._check(x)
        return self._memoised("neg", lambda a: self._eval(self.cache.N, a, a), x)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def _check(self, *xs):
        for x in xs:
            if len(x) != self.n:
                raise ValueError("carrier mismatch: wrong Witt length")

    def embed_int(self, k: int):
        """k * 1; k may be negative."""
        return self.int_mul(k, self.one)

    def int_mul(self, k: int, x):
        """k * x by double-and-add, with no additions of zero and no unused
        doubling; k may be negative."""
        if k < 0:
            return self.neg(self.int_mul(-k, x))
        acc = None
        while k:
            if k & 1:
                acc = x if acc is None else self.add(acc, x)
            k >>= 1
            if k:
                x = self.add(x, x)
        return self.zero if acc is None else acc

    def equal(self, x, y):
        return x == y

    # -- structure maps --

    def teichmuller(self, a):
        return (a,) + (self.base.zero,) * (self.n - 1)

    def verschiebung(self, x):
        """v: W_{n-1} -> W_n, (a_0,..) -> (0, a_0, ..)."""
        if len(x) != self.n - 1:
            raise ValueError("verschiebung expects a length n-1 vector")
        return (self.base.zero,) + tuple(x)

    def frobenius(self, x):
        """Universal truncated F: W_n -> W_{n-1}; underflows at length 1."""
        self._check(x)
        if self.n < 2:
            raise ValueError("length underflow: Frobenius needs n >= 2")
        values = list(x) + list(x)
        R = self.cache.ring
        return tuple(R.evaluate_in(f, self.base, values) for f in self.cache.F)

    def frobenius_charp(self, x):
        """Componentwise p-power: the full-length Frobenius over char-p bases.

        Over a characteristic-p base this is a ring endomorphism whose
        restriction agrees with the universal truncated F.
        """
        self._check(x)
        return self._memoised("frob", lambda a: tuple(self.base.frobenius(c) for c in a), x)

    def restrict(self, x, k: int):
        """The truncation ring map W_n -> W_k (k <= n)."""
        return tuple(x[:k])

    def shorter(self, k: int) -> "WittRing":
        return WittRing(self.base, k, self.p)

    def ghost(self, x):
        """Ghost components over the base; meaningful for torsion-free bases."""
        out = []
        for i in range(self.n):
            acc = self.base.embed_int(0)
            for j in range(i + 1):
                term = x[j]
                power = self.p ** (i - j)
                val = term
                # square-and-multiply for val^power
                result = self.base.embed_int(1)
                e = power
                while e:
                    if e & 1:
                        result = self.base.mul(result, val)
                    val = self.base.mul(val, val)
                    e >>= 1
                acc = self.base.add(acc, self.base.mul(self.base.embed_int(self.p ** j), result))
            out.append(acc)
        return tuple(out)

    # -- finite structure (for monomial-algebra bases) --

    def elements(self):
        from itertools import product as iproduct

        pool = list(self.base.elements())
        for combo in iproduct(pool, repeat=self.n):
            yield tuple(combo)

    def size(self) -> int:
        return self.base.size() ** self.n

    def is_unit(self, x) -> bool:
        return self.base.is_unit(x[0])

    def inv(self, x):
        if not self.is_unit(x):
            raise ZeroDivisionError("not a unit")
        y = self.teichmuller(self.base.inv(x[0]))
        two = self.embed_int(2)
        for _ in range(4 * self.n + 4):
            xy = self.mul(x, y)
            if xy == self.one:
                return y
            y = self.mul(y, self.sub(two, xy))
        raise AssertionError("Witt inversion failed to converge")
