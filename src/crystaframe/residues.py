"""Exact arithmetic in Z/p^m, divided-power constants, and small finite fields.

Everything here is plain-integer arithmetic: residues are canonical ints in
[0, p^m), field elements of F_{p^k} are coefficient tuples.  No floats, no
rationals; every division is a certified valuation/unit computation.
"""

from __future__ import annotations

import math

from .linalg import SpanNF

INF = math.inf


def is_prime(p: int) -> bool:
    """Trial-division primality check; inputs here are desk-scale."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Residues:
    """The coefficient ring Z/p^m with canonical representatives in [0, p^m).

    p is certified prime at construction.  m = 1 doubles as the prime field
    F_p.  Elements are plain ints.  Like `PDAlgebra` and the square-zero
    carrier, it exposes Z/p^m coordinates to the linear solvers: a single
    coordinate, of mu type (the ideal of a lift frame is pA).
    """

    char_is_p = False  # Frobenius x -> x^p is canonical only when m == 1

    def __init__(self, p: int, m: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if m < 1:
            raise ValueError("precision exponent must be >= 1")
        self.p = p
        self.m = m
        self.modulus = p ** m
        self.char_is_p = m == 1
        self._fact_cache: list[tuple[int, int]] = [(0, 1), (0, 1)]
        self._fact_bound = 64

    def __repr__(self):
        return f"Z/{self.p}^{self.m}" if self.m > 1 else f"F_{self.p}"

    def __eq__(self, other):
        return isinstance(other, Residues) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self):
        return hash(("Residues", self.p, self.m))

    # -- element ops (elements are ints in [0, modulus)) --

    def reduce(self, z: int) -> int:
        return z % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def is_unit(self, a) -> bool:
        return a % self.p != 0

    def inv(self, a):
        return pow(a, -1, self.modulus)

    def frobenius(self, a):
        if not self.char_is_p:
            raise ValueError("Frobenius is canonical only in characteristic p")
        return a  # x^p = x in F_p

    zero = property(lambda self: 0)
    one = property(lambda self: 1)

    def embed_int(self, c: int):
        return c % self.modulus

    def int_mul(self, k: int, a):
        return (k * a) % self.modulus

    def equal(self, a, b) -> bool:
        return a == b

    def elements(self):
        return range(self.modulus)

    def size(self) -> int:
        return self.modulus

    # -- coordinate protocol: one coordinate, ideal pA, no relations --

    def coords(self, a):
        return (a,)

    def from_coords(self, cs):
        return cs[0] % self.modulus

    def coord_count(self) -> int:
        return 1

    def coord_precision(self) -> int:
        return self.m

    def module_spanning(self):
        return [1]

    def mu_indices(self):
        return [0]

    def t_indices(self):
        return []

    @property
    def relations(self) -> SpanNF:
        return SpanNF(1, self.p, self.m)

    # -- valuation bookkeeping --

    def valuation_and_unit(self, z: int):
        """Write z = p^v * u with u a unit; (inf, 1) for z = 0."""
        z = self.reduce(z)
        if z == 0:
            return INF, 1
        v = 0
        while z % self.p == 0:
            z //= self.p
            v += 1
        return v, z % (self.p ** (self.m - v))

    def factorial_parts(self, n: int) -> tuple[int, int]:
        """Memoized (v_p(n!), unit(n!) mod p^m)."""
        if n >= len(self._fact_cache):
            top = max(n, self._fact_bound)
            v, u = self._fact_cache[-1]
            for k in range(len(self._fact_cache), top + 1):
                kk = k
                while kk % self.p == 0:
                    kk //= self.p
                    v += 1
                u = (u * kk) % self.modulus
                self._fact_cache.append((v, u))
        return self._fact_cache[n]


def divided_power_constant(n: int, ring: Residues) -> int:
    """c_n = (np)!/(n! p) reduced mod p^m, via Legendre-style bookkeeping.

    The quotient is an integer: v_p((np)!) >= v_p(n!) + 1 always holds.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = ring.p
    v_num, u_num = ring.factorial_parts(n * p)
    v_den, u_den = ring.factorial_parts(n)
    v = v_num - v_den - 1
    if v < 0:
        raise AssertionError("(np)!/(n! p) failed integrality")
    if v >= ring.m:
        return 0
    return ring.mul(pow(p, v, ring.modulus), ring.mul(u_num, ring.inv(u_den)))


def gamma_of_p(n: int, ring: Residues) -> int:
    """gamma_n(p) = p^n/n! mod p^m; p-integral since v_p(n!) < n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    v_den, u_den = ring.factorial_parts(n)
    v = n - v_den
    if v < 1:
        raise AssertionError("p^n/n! failed integrality")
    if v >= ring.m:
        return 0
    return ring.mul(pow(ring.p, v, ring.modulus), ring.inv(u_den))


# -- small Galois fields F_{p^k}, elements as k-tuples over F_p --

_DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (3, 2): (1, 0, 1),        # x^2 + 1
    (5, 2): (2, 1, 1),        # x^2 + x + 2
}


class GaloisField:
    """F_{p^k} presented by an explicit irreducible polynomial over F_p.

    Elements are k-tuples (c_0, ..., c_{k-1}) meaning sum c_i x^i.  The
    modulus is checked irreducible by exhausting roots / low-degree factors.
    """

    char_is_p = True

    def __init__(self, p: int, k: int, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.p = p
        self.k = k
        if modulus is None:
            if k == 1:
                modulus = (0, 1)
            else:
                try:
                    modulus = _DEFAULT_MODULI[(p, k)]
                except KeyError:
                    modulus = self._find_irreducible()
        if len(modulus) != k + 1 or modulus[-1] % p != 1:
            raise ValueError("modulus must be monic of degree k")
        self.modulus = tuple(c % p for c in modulus)
        if k > 1 and not self._is_irreducible(self.modulus):
            raise ValueError("modulus polynomial is reducible")

    def _polmulmod(self, a, b):
        p, k = self.p, self.k
        prod = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        # reduce by the monic modulus
        for i in range(len(prod) - 1, k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(k):
                    prod[i - k + j] = (prod[i - k + j] - c * self.modulus[j]) % p
        prod = prod[:k]
        prod += [0] * (k - len(prod))
        return tuple(prod)

    def _is_irreducible(self, f) -> bool:
        p = self.p
        k = len(f) - 1
        # scan monic divisors of degree 1..k//2
        from itertools import product as iproduct
        for d in range(1, k // 2 + 1):
            for tail in iproduct(range(p), repeat=d):
                g = tuple(tail) + (1,)
                if self._polrem(f, g) is None:
                    return False
        return True

    def _polrem(self, f, g):
        """None if g divides f, else the nonzero remainder marker."""
        p = self.p
        f = list(f)
        dg = len(g) - 1
        for i in range(len(f) - 1, dg - 1, -1):
            c = f[i]
            if c:
                for j in range(dg + 1):
                    f[i - dg + j] = (f[i - dg + j] - c * g[j]) % p
        return None if not any(f[:dg]) else f[:dg]

    def _find_irreducible(self):
        from itertools import product as iproduct
        for tail in iproduct(range(self.p), repeat=self.k):
            f = tuple(tail) + (1,)
            if self._is_irreducible(f):
                return f
        raise AssertionError("no irreducible polynomial found")

    def __repr__(self):
        return f"F_{self.p}^{self.k}"

    def __eq__(self, other):
        return (
            isinstance(other, GaloisField)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash(("GaloisField", self.p, self.k, self.modulus))

    @property
    def m(self):
        return 1

    def reduce(self, a):
        return tuple(c % self.p for c in a)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        return self._polmulmod(a, b)

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def is_unit(self, a):
        return any(a)

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of 0")
        # brute scan; fields here are tiny
        for b in self.elements():
            if self.mul(a, b) == self.one:
                return b
        raise AssertionError("unit without inverse")

    def frobenius(self, a):
        # a^p by square-and-multiply
        result = self.embed(1)
        base = a
        e = self.p
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def embed(self, c: int):
        """Image of an integer (i.e. an F_p scalar) in the field."""
        return tuple([c % self.p] + [0] * (self.k - 1))

    def elements(self):
        from itertools import product as iproduct
        for tup in iproduct(range(self.p), repeat=self.k):
            yield tuple(tup)

    def fp_coords(self, a):
        return tuple(a)

    def from_fp_coords(self, cs):
        return tuple(c % self.p for c in cs)

    @property
    def one(self):
        return self.embed(1)

    @property
    def zero(self):
        return self.embed(0)


class PrecisionLedger:
    """Per-element certified p-adic accuracy bookkeeping.

    Arithmetic combines to the minimum of operand precisions; a division by
    p costs exactly one digit.  Operations at precision <= 0 are rejected.
    Consumption is aggregated per note so hot loops stay cheap.
    """

    def __init__(self, m_target: int):
        if m_target < 1:
            raise ValueError("target precision must be >= 1")
        self.m_target = m_target
        self.consumed: dict[str, int] = {}

    def combine(self, *precs: int) -> int:
        prec = min(precs) if precs else self.m_target
        self.require_positive(prec)
        return prec

    def after_div_p(self, prec: int, note: str = "div-p") -> int:
        self.require_positive(prec)
        out = prec - 1
        self.consumed[note] = self.consumed.get(note, 0) + 1
        self.require_positive(out)
        return out

    def require_positive(self, prec: int) -> None:
        if prec <= 0:
            raise PrecisionExhausted(f"operation at precision {prec} rejected")

    def trace(self):
        return tuple(sorted(self.consumed.items()))


class PrecisionExhausted(RuntimeError):
    pass
