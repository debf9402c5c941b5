"""Sparse multivariate polynomials with integer coefficients.

Used as the torsion-free carrier for ghost-component identities and for the
exact recursion that produces the universal Witt sum/product polynomials.
Monomials are exponent tuples over a fixed variable list; coefficients are
Python ints, so nothing ever overflows or rounds.
"""

from __future__ import annotations


class IntPolyRing:
    """Z[v_0, ..., v_{n-1}] with dict-backed sparse polynomials."""

    def __init__(self, names: tuple[str, ...]):
        self.names = tuple(names)
        self.n = len(self.names)
        self._index = {nm: i for i, nm in enumerate(self.names)}

    def __repr__(self):
        return f"Z[{', '.join(self.names)}]"

    @property
    def zero(self):
        return {}

    @property
    def one(self):
        return {(0,) * self.n: 1}

    def const(self, c: int):
        return {(0,) * self.n: c} if c else {}

    def embed_int(self, c: int):
        return self.const(c)

    def gen(self, name: str):
        e = [0] * self.n
        e[self._index[name]] = 1
        return {tuple(e): 1}

    def add(self, f, g):
        out = dict(f)
        for mono, c in g.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return out

    def neg(self, f):
        return {mono: -c for mono, c in f.items()}

    def sub(self, f, g):
        return self.add(f, self.neg(g))

    def mul(self, f, g):
        out = {}
        for m1, c1 in f.items():
            for m2, c2 in g.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(mono, 0) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return out

    def scale(self, c: int, f):
        return {mono: c * v for mono, v in f.items()} if c else {}

    def pow(self, f, e: int):
        result = self.const(1)
        base = f
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base) if e > 1 else base
            e >>= 1
        return result

    def divexact(self, f, c: int):
        """Divide every coefficient by c; a remainder is a fatal defect."""
        out = {}
        for mono, v in f.items():
            q, r = divmod(v, c)
            if r:
                raise ArithmeticError(f"non-exact division by {c} at {mono}")
            out[mono] = q
        return out

    def equal(self, f, g) -> bool:
        return f == g

    def max_exponents(self, f):
        out = [0] * self.n
        for mono in f:
            for i, e in enumerate(mono):
                if e > out[i]:
                    out[i] = e
        return out

    def evaluate_in(self, f, ring, values):
        """Evaluate f with variable i -> values[i] over a ring object.

        `ring` needs add/mul and an `embed_int` hook.  Per-variable power
        tables are built once, so repeated high exponents stay cheap.
        """
        maxes = self.max_exponents(f)
        powers = []
        for i, v in enumerate(values):
            tab = [ring.embed_int(1)]
            for _ in range(maxes[i]):
                tab.append(ring.mul(tab[-1], v))
            powers.append(tab)
        acc = ring.embed_int(0)
        for mono, c in f.items():
            term = ring.embed_int(c)
            for i, e in enumerate(mono):
                if e:
                    term = ring.mul(term, powers[i][e])
            acc = ring.add(acc, term)
        return acc

    def derivative(self, f, name: str):
        i = self._index[name]
        out = {}
        for mono, c in f.items():
            e = mono[i]
            if e:
                m2 = list(mono)
                m2[i] = e - 1
                m2 = tuple(m2)
                s = out.get(m2, 0) + c * e
                if s:
                    out[m2] = s
                else:
                    out.pop(m2, None)
        return out
