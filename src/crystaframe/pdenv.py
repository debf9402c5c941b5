"""Truncated divided-power envelopes with generators-and-relations normal forms.

A presentation is Z/p^m[x_1..x_k] -> R where the kernel is generated by p
together with monomials g_1..g_s, plus a declared Frobenius lift
sigma(x_i) = x_i^p + p*tau_i.  The envelope is spanned by divided monomials
mu * prod_j g_j^[n_j] (mu a residual monomial, sum n_j < cap), modulo the
relation span obtained by instantiating the divided-power axiom families:
two spanning monomials with the same plain-monomial shadow are identified up
to their exact factorial weights.  The relation span is kept in triangular
canonical form, so normal forms are unique and every quotient computation is
exact linear algebra over Z/p^m.

The shadow grades the span by N^k: rewrite and phantom rows stay in one
stratum, both terms of a scalar-family row have shadow n * lcm(g_i, g_j), and
b_i * b_j has shadow s_i + s_j, because absorption keeps the plain monomial.
So the span is the direct sum of its strata's spans, and it is kept as a
`GradedSpan`: one small block per stratum.  The blocks are built in stacked
passes over all of them: the strata's members are enumerated once per
envelope, the seed rows of every block form one array, one Howell pass
(`linalg.extend_stacked`) loads them, and the closure under basis products
runs in rounds, each one Howell pass over the blocks it grew.  Each block
then holds its reduced Howell form, which depends only on the span.

Divided powers of p itself are scalars gamma_n(p) = p^n/n!, never basis
symbols.  The divided Frobenius follows sigma1(a) = (p-1)! a^[p] + tau(a)
and sigma1(a^[n]) = (p^{n-1}/n!) sigma1(a)^n on generators; its consistency
on the relation span is certified at construction (a loss of one digit is
tolerated and recorded, since division by p is not well defined mod p^m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from .intpoly import IntPolyRing
from .linalg import GradedSpan, exact_dtype, extend_stacked, int_dtype, reduce_stacked, work_dtype
from .residues import Residues, gamma_of_p
from .frames import Frame


class PDError(ValueError):
    pass


@dataclass(frozen=True)
class PDPresentation:
    """Base data for an envelope: variables, monomial generators, sigma."""

    p: int
    m: int
    variables: tuple[str, ...]
    generators: tuple[tuple[int, ...], ...]  # exponent vectors; p is implicit
    cap: int
    tau: tuple = ()  # per-variable integer polynomials, aligned with variables

    def __post_init__(self):
        if self.cap < 2:
            raise PDError("cap too small: r >= 2 required")
        for g in self.generators:
            if len(g) != len(self.variables) or not any(g):
                raise PDError("non-monomial or trivial generator")


class PDAlgebra:
    """The truncated envelope D as a finite free-presentation Z/p^m-module.

    Elements are coordinate tuples over the divided-monomial basis, always
    in relation-span normal form.  The class doubles as the frame carrier:
    it exposes ring operations plus the coordinate hooks used by the linear
    solvers (coords / module_spanning / sigma matrices).
    """

    RESIDUAL_BOUND = 4096

    def __init__(self, pres: PDPresentation):
        self.pres = pres
        self.p = pres.p
        self.m = pres.m
        self.ring = Residues(pres.p, pres.m)
        self.mod = self.ring.modulus
        self.nvars = len(pres.variables)
        self.poly = IntPolyRing(pres.variables)
        self._tau = list(pres.tau) if pres.tau else [self.poly.zero for _ in pres.variables]
        if len(self._tau) != self.nvars:
            raise PDError("tau must align with the variables")
        self.residuals = self._residual_monomials()
        self._residual_set = set(self.residuals)
        self.gens = pres.generators
        self.s = len(self.gens)
        self.cap = pres.cap
        nvecs = [v for v in _compositions_below(self.s, self.cap)]
        nvecs.sort()
        self.basis = [(mu, nv) for mu in self.residuals for nv in nvecs]
        self.basis.sort()
        self.index = {b: i for i, b in enumerate(self.basis)}
        self.n = len(self.basis)
        self._coef, self._target = self._multiplication_table()
        B = np.array([mu + nv for mu, nv in self.basis]).reshape(self.n, self.nvars + self.s)
        G = np.array(self.gens, dtype=B.dtype).reshape(self.s, self.nvars)
        self._shadows = [tuple(x) for x in (B[:, : self.nvars] + B[:, self.nvars :] @ G).tolist()]
        layout = GradedSpan(self._shadows, self.p, self.m)
        self._strata = self._stratum_buckets(layout)
        self.relations = self._build_relations(layout)
        self._sigma_cols = None
        self._sigma1_cert = None
        self.sigma1_precision = self.m  # lowered by the well-definedness check

    # -- construction ---------------------------------------------------------

    def _residual_monomials(self):
        """Monomials not divisible by any generator; must be finite."""
        out = []
        frontier = [(0,) * self.nvars]
        seen = set(frontier)
        while frontier:
            e = frontier.pop()
            if any(all(a >= b for a, b in zip(e, g)) for g in self.pres.generators):
                continue
            out.append(e)
            if len(out) > self.RESIDUAL_BOUND:
                raise PDError("generators do not give a finite residual basis")
            for i in range(self.nvars):
                e2 = e[:i] + (e[i] + 1,) + e[i + 1 :]
                if e2 not in seen:
                    seen.add(e2)
                    frontier.append(e2)
        out.sort()
        return out

    def _stratum_buckets(self, layout: GradedSpan):
        """Every member of every stratum, phantoms included, bucketed by block in one pass.

        A member of the stratum of shadow s is a decomposition s = mu * prod
        g_j^{n_j} with mu residual.  Members beyond the divided-degree cap are
        phantoms: they are zero in the truncation but still source relations
        for the surviving ones.  A member has sum n_j g_j <= s <= the largest
        shadow, coordinatewise, so the residual monomials times those
        n-vectors hold every member; the sums that are a stratum's shadow are
        kept.  Returns (block, nv, col), sorted by block (the blocks of
        `layout`, a `GradedSpan` over the shadows) and by ascending n within
        a block: the member's n-vector and its column in the block, -1 for
        a phantom.
        """
        k, s = self.nvars, self.s
        top = np.array(self._shadows, dtype=np.int64).max(axis=0)
        bounds = [min(top[i] // g[i] for i in range(k) if g[i]) for g in self.gens]
        nvs = list(iproduct(*(range(b + 1) for b in bounds)))
        nvs = np.array(nvs, dtype=np.int64).reshape(len(nvs), s)
        G = np.array(self.gens, dtype=np.int64).reshape(s, k)
        sums = np.array(self.residuals, dtype=np.int64)[:, None] + (nvs @ G)[None]
        r, c = np.nonzero((sums <= top).all(axis=2))
        place = np.cumprod((top + 1)[::-1])[::-1] // (top + 1)  # mixed-radix place values in the box <= top
        grade = np.full(int(np.prod(top + 1)), -1)  # the block of each shadow in the box
        grade[np.array(layout.grades, dtype=np.int64) @ place] = range(len(layout.grades))
        block = grade[sums[r, c] @ place]
        hit = block >= 0
        block, r, c = block[hit], r[hit], c[hit]
        first = np.lexsort((c, block))  # c ascends with n
        block, r, nv = block[first], r[first], nvs[c[first]]
        col = np.full(len(block), -1, dtype=np.intp)
        live = np.flatnonzero(nv.sum(axis=1) < self.cap)
        for i in live.tolist():
            col[i] = layout.local[self.index[(self.residuals[r[i]], tuple(nv[i].tolist()))]]
        return block, nv, col

    def _seed_rows(self, nf: GradedSpan):
        """The seed relations of every block, as (block of each row, rows in block coordinates).

        (a) Rewrite rows: two members a, b of a stratum are related through
        their latest common ancestor n0 = min(n_a, n_b), componentwise
        (earlier ancestors only scale the same row), with the absorption-path
        coefficients prod_j n_j!/n0_j! from a table of falling factorials;
        one row per pair with a live and b a phantom or after a.  A phantom
        b contributes no term.  (b) Scalar-family rows (c a)^[n] = c^n a^[n]
        instantiated at the pairwise lcm of generator monomials.
        """
        mod, dt = self.mod, exact_dtype(self.mod**2)
        block, nv, col = self._strata
        groups, X = [block[:0]], [np.zeros((0, nf.width), dtype=dt)]
        if len(block) > len(nf.blocks):  # else every stratum has one member and no rewrite row
            start = np.searchsorted(block, block)
            size = np.searchsorted(block, block, side="right") - start
            a = np.repeat(np.arange(len(block)), size)  # each member against its stratum
            b = np.repeat(start, size) + np.arange(len(a)) - np.repeat(np.cumsum(size) - size, size)
            live = col >= 0
            keep = live[a] & (a != b) & (~live[b] | (b > a))
            a, b = a[keep], b[keep]
            n0 = np.minimum(nv[a], nv[b])
            top = int(nv.max())
            fall = np.zeros((top + 1, top + 1), dtype=dt)  # fall[x, y] = x!/y!
            for x, y in zip(*np.tril_indices(top + 1)):
                fall[x, y] = math.perm(x, x - y) % mod
            ca, cb = np.ones(len(a), dtype=dt), np.ones(len(a), dtype=dt)
            for j in range(self.s):
                ca = ca * fall[nv[a, j], n0[:, j]] % mod
                cb = cb * fall[nv[b, j], n0[:, j]] % mod
            rows = np.zeros((len(a), nf.width), dtype=dt)
            rows[np.arange(len(a)), col[a]] = ca
            both = np.flatnonzero(live[b])
            rows[both, col[b[both]]] = -cb[both] % mod
            groups.append(block[a])
            X.append(rows)
        # (b) scalar-family rows at generator-pair lcms: both terms have shadow n * lcm
        for i in range(self.s):
            for j in range(i + 1, self.s):
                gi, gj = self.gens[i], self.gens[j]
                lcm = tuple(map(max, gi, gj))
                for n in range(1, self.cap):
                    vec = [0] * self.n
                    for g, jj, sign in ((gi, i, 1), (gj, j, -1)):
                        nv0 = [0] * self.s
                        nv0[jj] = n
                        coeff, mu, nvj = self._absorb(1, tuple(n * (x - y) for x, y in zip(lcm, g)), nv0)
                        if coeff is not None:
                            idx = self.index[(mu, tuple(nvj))]
                            vec[idx] = (vec[idx] + sign * coeff) % mod
                    if any(vec):
                        g, row = nf.split(vec)
                        groups.append([g])
                        X.append(np.array([row + (0,) * (nf.width - len(row))], dtype=dt))
        groups, X = np.concatenate(groups), np.concatenate(X)
        nonzero = X.any(axis=1)
        return groups[nonzero], X[nonzero]

    def _build_relations(self, nf: GradedSpan | None = None) -> GradedSpan:
        """The derivable identifications of the divided-monomial spanning set.

        Built into nf, an empty span over the shadows (a new one by default).
        The seed rows (`_seed_rows`, from the stratum buckets) enter their
        blocks in one stacked Howell pass (`linalg.extend_stacked`), and the
        span is then closed under multiplication by basis elements, which
        makes the quotient a ring.  Every row is homogeneous in the shadow
        grading (module docstring), so the span is a `GradedSpan` with one
        block per stratum, and the rows are built in block coordinates.
        Each block holds its reduced Howell form, so `basis()` is
        `reduced_basis()` and depends only on the span.

        Shadow coincidence alone is NOT an identification: a difference of
        equal-shadow monomials that no derivation connects at full weight is
        genuine p-torsion of the envelope (Berthelot-type).
        """
        nf = nf or GradedSpan(self._shadows, self.p, self.m)
        extend_stacked(nf.blocks, *self._seed_rows(nf))
        self._close_under_multiplication(nf)
        return nf

    def _close_under_multiplication(self, nf: GradedSpan) -> None:
        """Grow the row span until it is an ideal (stable under basis products).

        In rounds: the products row * b_j of the rows of the blocks that the
        last round changed (all blocks in the first) are reduced against the
        span, and the nonzero residues enter their blocks in one stacked
        Howell pass.  The span only grows, so a product that it contained
        once it keeps containing; the closure is done when a round leaves no
        residue.  The closure of a span depends only on the span.
        """
        blocks = range(len(nf.blocks))
        for _ in range(64):
            g, X = self._products_outside(nf, blocks)
            if not len(g):
                return
            extend_stacked(nf.blocks, g, X)
            blocks = sorted(set(g.tolist()))
        raise PDError("relation closure failed to stabilize")

    def _products_outside(self, nf: GradedSpan, blocks):
        """The nonzero residues of the products row * b_j, for the rows of the given blocks.

        Returns (block of each residue, residues in block coordinates).
        b_i * b_j has shadow s_i + s_j, so row * b_j lies in the block of
        s_row + s_j.  Rows have few terms and most b_i * b_j cross the cap,
        so each term c * b_i runs over the nonzero entries of row i of the
        multiplication table only; the pieces are summed per product in
        block coordinates, and all products are reduced at once against
        their blocks (`reduce_stacked`).
        """
        rows = [(g, row) for g in blocks for row in nf.blocks[g].basis()]
        if not rows:
            return np.zeros(0, dtype=np.intp), np.zeros((0, nf.width), dtype=np.int64)
        r, c, v = zip(*[
            (k, col, x) for k, (g, row) in enumerate(rows) for col, x in zip(nf.columns[g], row) if x
        ])
        r, c = np.array(r), np.array(c)
        dt = exact_dtype(nf.width * (self.mod - 1) ** 2)
        i, j = np.nonzero(self._coef)  # the table's entries, row by row
        count = np.bincount(i, minlength=self.n)[c]  # pieces of each term
        t = np.repeat(np.arange(len(c)), count)  # the term of each piece
        # piece k of term t is table entry searchsorted(i, c[t]) + k
        e = np.repeat(np.searchsorted(i, c) - np.cumsum(count) + count, count) + np.arange(count.sum())
        target = self._target[i[e], j[e]]
        keys, which = np.unique(r[t] * self.n + j[e], return_inverse=True)
        X = np.zeros((len(keys), nf.width), dtype=dt)
        np.add.at(X, (which, np.array(nf.local)[target]), np.array(v, dtype=dt)[t] * self._coef[i[e], j[e]])
        X %= self.mod
        g = np.zeros(len(keys), dtype=np.intp)
        g[which] = np.array(nf.gid)[target]
        X = reduce_stacked(nf.blocks, g, X)
        keep = X.any(axis=1)
        return g[keep], X[keep]

    # -- canonical elements ----------------------------------------------------

    @property
    def zero(self):
        return (0,) * self.n

    @property
    def one(self):
        return self._unit_vec(self.index[(self._zero_exp(), (0,) * self.s)])

    def _zero_exp(self):
        return (0,) * self.nvars

    def _unit_vec(self, i, c=1):
        v = [0] * self.n
        v[i] = c % self.mod
        return self.reduce(v)

    def reduce(self, coords):
        return self.relations.reduce([c % self.mod for c in coords])

    def add(self, a, b):
        return self.reduce([x + y for x, y in zip(a, b)])

    def sub(self, a, b):
        return self.reduce([x - y for x, y in zip(a, b)])

    def neg(self, a):
        return self.reduce([-x for x in a])

    def smul(self, c: int, a):
        return self.reduce([c * x for x in a])

    def int_mul(self, k: int, a):
        return self.smul(k % self.mod, a)

    def embed_int(self, c: int):
        return self._unit_vec(self.index[(self._zero_exp(), (0,) * self.s)], c)

    def equal(self, a, b) -> bool:
        return a == b

    def _multiplication_table(self):
        """Products of basis elements as two dense n x n arrays (coef, target).

        Structurally a product of divided monomials is a single divided
        monomial again: b_i * b_j = coef[i, j] * b_target[i, j], with
        coef[i, j] = 0 when the product crosses the cap or vanishes mod p^m.
        No relation reduction happens here, so the table serves while the
        relation span is still being built.  Narrow dtypes keep it at a few
        bytes per pair.  The absorption depends on the pair only through
        (mu_i + mu_j, n_i + n_j), so it runs once per distinct sum, and the
        binomial weight prod_l C(n_il + n_jl, n_il) comes from a Pascal table.
        """
        n, k, mod = self.n, self.nvars, self.mod
        coef = np.zeros((n, n), dtype=work_dtype(mod))
        target = np.zeros((n, n), dtype=int_dtype(n))
        B = np.array([mu + nv for mu, nv in self.basis]).reshape(n, k + self.s)
        degree = B[:, k:].sum(axis=1)
        i, j = np.nonzero(np.triu(degree[:, None] + degree[None, :] < self.cap))
        sums = B[i] + B[j]
        _, first, which = np.unique(
            np.ravel_multi_index(sums.T, 2 * B.max(axis=0) + 1), return_index=True, return_inverse=True
        )
        dt = exact_dtype(mod**2)
        factor, place = np.zeros(len(first), dtype=dt), np.zeros(len(first), dtype=np.intp)
        for key, exps in enumerate(sums[first].tolist()):
            f, mu, nv = self._absorb(1, exps[:k], exps[k:])
            if f is not None:
                factor[key], place[key] = f, self.index[(mu, tuple(nv))]
        pascal = np.array([[math.comb(a, b) % mod for b in range(self.cap)] for a in range(self.cap)], dtype=dt)
        c = factor[which.reshape(-1)]
        for l in range(k, k + self.s):
            c = c * pascal[B[i, l] + B[j, l], B[i, l]] % mod
        hit = c != 0
        i, j, c, t = i[hit], j[hit], c[hit], place[which.reshape(-1)[hit]]
        coef[i, j] = coef[j, i] = c
        target[i, j] = target[j, i] = t
        return coef, target

    def _basis_product_raw(self, i: int, j: int):
        """b_i * b_j as (coefficient, basis index), or None: see `_multiplication_table`."""
        c = self._coef.item(i, j)
        return (c, self._target.item(i, j)) if c else None

    def _absorb(self, coeff: int, exps, nv):
        """Rewrite a plain monomial times divided part into basis form.

        Dividing out a generator g_j raises n_j by one and multiplies by
        (n_j + 1), since T_{g,n} * g = (n+1) T_{g,n+1}.  Returns (None,..)
        when the divided degree crosses the cap.
        """
        exps = list(exps)
        nv = list(nv)
        changed = True
        while changed:
            changed = False
            for j, g in enumerate(self.gens):
                if all(a >= b for a, b in zip(exps, g)):
                    for i in range(self.nvars):
                        exps[i] -= g[i]
                    nv[j] += 1
                    coeff *= nv[j]
                    if sum(nv) >= self.cap:
                        return None, None, None
                    changed = True
                    break
        mu = tuple(exps)
        if mu not in self._residual_set:
            raise AssertionError("absorption failed to reach a residual monomial")
        return coeff % self.mod, mu, nv

    def mul(self, a, b):
        out = [0] * self.n
        nz_a = [(i, c) for i, c in enumerate(a) if c]
        nz_b = [(j, c) for j, c in enumerate(b) if c]
        for i, ca in nz_a:
            for j, cb in nz_b:
                hit = self._basis_product_raw(i, j)
                if hit is not None:
                    coeff, idx = hit
                    out[idx] += ca * cb * coeff
        return self.reduce(out)

    def pow(self, a, e: int):
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inject_poly(self, f) -> tuple:
        """Image of an integer polynomial in the variables, in normal form."""
        out = [0] * self.n
        for mono, c in f.items():
            coeff, mu, nv = self._absorb(c % self.mod, mono, [0] * self.s)
            if coeff is None:
                continue
            out[self.index[(mu, tuple(nv))]] += coeff
        return self.reduce(out)

    def truncate_to(self, smaller: "PDAlgebra", x):
        """The quotient map onto the same presentation at a lower cap."""
        out = [0] * smaller.n
        for i, c in enumerate(x):
            if c:
                b = self.basis[i]
                if b in smaller.index:
                    out[smaller.index[b]] += c
        return smaller.reduce(out)

    def divided_generator(self, j: int, n: int = 1):
        """g_j^[n] as an element."""
        if n >= self.cap:
            return self.zero
        nv = [0] * self.s
        nv[j] = n
        return self._unit_vec(self.index[(self._zero_exp(), tuple(nv))])

    def gamma_p(self, n: int) -> int:
        """p^[n] = gamma_n(p), a scalar."""
        return gamma_of_p(n, self.ring) if n >= 1 else 1

    def variable(self, name: str):
        return self.inject_poly(self.poly.gen(name))

    # -- local-ring structure --------------------------------------------------

    def is_unit(self, a) -> bool:
        c = a[self.index[(self._zero_exp(), (0,) * self.s)]]
        return c % self.p != 0

    def inv(self, a):
        if not self.is_unit(a):
            raise ZeroDivisionError("not a unit")
        c = a[self.index[(self._zero_exp(), (0,) * self.s)]]
        y = self.embed_int(pow(c, -1, self.mod))
        two = self.embed_int(2)
        for _ in range(64):
            ay = self.mul(a, y)
            if ay == self.one:
                return y
            y = self.mul(y, self.sub(two, ay))
        raise AssertionError("inversion failed to converge")

    # -- coordinate hooks for solvers -------------------------------------------

    def coords(self, a):
        return a

    def from_coords(self, cs):
        return self.reduce(cs)

    def coord_count(self) -> int:
        return self.n

    def coord_precision(self) -> int:
        return self.m

    def module_spanning(self):
        return [self._unit_vec(i) for i in range(self.n)]

    def elements(self):
        for combo in iproduct(range(self.mod), repeat=self.n):
            x = self.reduce(list(combo))
            if x == tuple(combo):
                yield x

    def size(self) -> int:
        # normal forms are coset representatives; count via pivot exponents
        pivots = self.relations.pivots()
        total = 1
        for i in range(self.n):
            total *= self.p ** pivots.get(i, self.m)
        return total

    # -- sigma and sigma1 --------------------------------------------------------

    def tau_poly(self, f):
        """tau(f) = (sigma(f) - f^p)/p for an integer polynomial, exactly."""
        R = self.poly
        sf = self.sigma_poly(f)
        return R.divexact(R.sub(sf, R.pow(f, self.p)), self.p)

    def sigma_poly(self, f):
        """sigma of an integer polynomial: substitute x_i -> x_i^p + p tau_i."""
        R = self.poly
        images = [
            R.add(R.pow(R.gen(v), self.p), R.scale(self.p, self._tau[i]))
            for i, v in enumerate(self.pres.variables)
        ]
        return R.evaluate_in(f, R, images)

    def sigma_basis(self, i: int):
        """sigma of a basis element, via sigma(mu) * prod sigma(T_{g,n})."""
        if self._sigma_cols is None:
            self._sigma_cols = {}
        if i in self._sigma_cols:
            return self._sigma_cols[i]
        mu, nv = self.basis[i]
        acc = self.inject_poly(self.sigma_poly({mu: 1}))
        for j, njj in enumerate(nv):
            if njj:
                acc = self.mul(acc, self._sigma_T(j, njj))
        self._sigma_cols[i] = acc
        return acc

    def _sigma_T(self, j: int, n: int):
        """sigma(g_j^[n]) = sum_i (g^p)^[i] * (p tau(g))^[n-i]."""
        g_poly = {self.gens[j]: 1}
        tau_g = self.tau_poly(g_poly)
        acc = self.zero
        tau_pow = self.one  # inject(tau(g))^k accumulated
        for k in range(0, n + 1):
            i = n - k
            # (g^p)^[i] = ((pi)!/i!) T_{g, pi}
            if self.p * i >= self.cap:
                coeff_T = None
            else:
                coeff_T = _exact_factorial_ratio(self.p * i, i, self.ring)
                term = self.divided_generator(j, self.p * i) if i > 0 else self.one
            # (p tau)^[k] = gamma_k(p) tau^k
            if coeff_T is not None:
                gk = self.gamma_p(k) if k >= 1 else 1
                piece = self.smul(coeff_T * gk % self.mod, self.mul(term, tau_pow))
                acc = self.add(acc, piece)
            tau_pow = self.mul(tau_pow, self.inject_poly(tau_g))
        return acc

    def sigma(self, a):
        out = self.zero
        for i, c in enumerate(a):
            if c:
                out = self.add(out, self.smul(c, self.sigma_basis(i)))
        return out

    def sigma1_generator(self, j: int):
        """sigma1(g_j) = (p-1)! g_j^[p] + tau(g_j)."""
        fac = math.factorial(self.p - 1) % self.mod
        out = self.smul(fac, self.divided_generator(j, self.p))
        return self.add(out, self.inject_poly(self.tau_poly({self.gens[j]: 1})))

    def sigma1_T(self, j: int, n: int):
        """sigma1(g_j^[n]) = (p^{n-1}/n!) sigma1(g_j)^n."""
        v, u = self.ring.factorial_parts(n)
        e = n - 1 - v
        if e < 0:
            raise AssertionError("p^{n-1}/n! failed integrality")
        c = pow(self.p, e, self.mod) * pow(u, -1, self.mod) % self.mod if e < self.m else 0
        return self.smul(c, self.pow(self.sigma1_generator(j), n))

    def sigma1_cert(self, i: int):
        """Certified sigma1 of a T-containing basis element.

        sigma1(mu * prod_j T_{g_j, n_j}) = p^{rho-1} sigma(mu) prod sigma1(T),
        rho the number of distinct generators present.
        """
        if self._sigma1_cert is None:
            self._sigma1_cert = {}
        if i in self._sigma1_cert:
            return self._sigma1_cert[i]
        mu, nv = self.basis[i]
        rho = sum(1 for n in nv if n)
        if rho == 0:
            raise PDError("sigma1 certificate only exists for T-containing monomials")
        acc = self.inject_poly(self.sigma_poly({mu: 1}))
        for j, n in enumerate(nv):
            if n:
                acc = self.mul(acc, self.sigma1_T(j, n))
        acc = self.smul(pow(self.p, rho - 1, self.mod), acc)
        self._sigma1_cert[i] = acc
        return acc

    def mu_indices(self):
        """Indices of the purely residual basis monomials (no T part)."""
        return [i for i, (mu, nv) in enumerate(self.basis) if not any(nv)]

    def t_indices(self):
        return [i for i, (mu, nv) in enumerate(self.basis) if any(nv)]

    def ideal_contains(self, a) -> bool:
        return all(a[i] % self.p == 0 for i in self.mu_indices())

    def sigma1(self, a):
        """Canonical total sigma1 on the augmentation ideal.

        T-coordinates use the certified generator formulas (exact); a
        residual coordinate c*mu with c = p*h contributes h*sigma(mu) via
        the minimal witness h = c // p.
        """
        if not self.ideal_contains(a):
            raise PDError("sigma1 is only defined on the ideal")
        out = self.zero
        for i, c in enumerate(a):
            if not c:
                continue
            mu, nv = self.basis[i]
            if any(nv):
                out = self.add(out, self.smul(c, self.sigma1_cert(i)))
            else:
                out = self.add(out, self.smul(c // self.p, self.sigma_basis(i)))
        return out

    def verify_sigma1_well_defined(self):
        """sigma1 must annihilate the relation span, up to one digit.

        Returns the certified precision (m if exact, m-1 if one digit was
        needed) and raises when even that fails, reporting the offending
        relation.
        """
        achieved = self.m
        for row in self.relations.basis():
            img = self.zero
            for i, c in enumerate(row):
                if c:
                    if not any(self.basis[i][1]):
                        raise PDError("relation span touches residual coordinates")
                    img = self.add(img, self.smul(c, self.sigma1_cert(i)))
            if any(img):
                if all(c % (self.p ** (self.m - 1)) == 0 for c in img):
                    achieved = min(achieved, self.m - 1)
                else:
                    raise PDError(f"sigma1 well-definedness fails on relation {row}")
        self.sigma1_precision = achieved
        return achieved


def _compositions_below(parts: int, cap: int):
    """All tuples of `parts` nonnegative ints with sum < cap."""
    if parts == 0:
        yield ()
        return
    def rec(prefix, remaining, budget):
        if remaining == 1:
            for v in range(budget):
                yield prefix + (v,)
            return
        for v in range(budget):
            yield from rec(prefix + (v,), remaining - 1, budget - v)
    yield from rec((), parts, cap)


def _exact_factorial_ratio(a: int, b: int, ring: Residues) -> int:
    """(a!)/(b!) mod p^m via valuation/unit parts (a >= b)."""
    va, ua = ring.factorial_parts(a)
    vb, ub = ring.factorial_parts(b)
    v = va - vb
    if v < 0:
        raise AssertionError("factorial ratio not integral")
    if v >= ring.m:
        return 0
    return pow(ring.p, v, ring.modulus) * ua * pow(ub, -1, ring.modulus) % ring.modulus


def build_pd_envelope(pres: PDPresentation) -> PDAlgebra:
    """Construct the envelope and check that its normal form is idempotent.

    The check reduces the first min(n, 64) basis vectors to normal form and
    their normal forms once more, each time all of them in one stacked
    reduction in block coordinates, and requires the second pass to change
    nothing.  Uniqueness of normal forms is not re-checked here: it rests
    on `SpanNF.reduce` being canonical for the relation span.
    """
    env = PDAlgebra(pres)
    rel, k = env.relations, min(env.n, 64)
    units = np.zeros((k, rel.width), dtype=np.int64)
    units[np.arange(k), rel.local[:k]] = 1
    once = reduce_stacked(rel.blocks, np.array(rel.gid[:k]), units)
    if not np.array_equal(reduce_stacked(rel.blocks, np.array(rel.gid[:k]), once), once):
        raise PDError("normal form is not idempotent")
    return env


# -- the PD frame --------------------------------------------------------------


class PDFrame(Frame):
    """(D, Ibar, R, sigma, sigma1) on a truncated envelope; sigma1 stays in D."""

    kind = "pd"

    def __init__(self, env: PDAlgebra):
        super().__init__(env, env.p, env.m)
        self.env = env
        self.name = f"pdframe(p={env.p},m={env.m},cap={env.cap})"
        self.p_elt = env.embed_int(env.p)
        self.sigma1_certified_precision = env.verify_sigma1_well_defined()
        self.safe_subbasis = [
            i
            for i in env.t_indices()
            if all(env.p * n < env.cap for n in env.basis[i][1])
        ]

    def sigma(self, x):
        return self.env.sigma(x)

    @property
    def sigma1_codomain(self):
        return self.env

    def reduce_to_codomain(self, x):
        return x

    def ideal_contains(self, x) -> bool:
        return self.env.ideal_contains(x)

    def sigma1(self, i):
        if any(i[k] for k in self.env.mu_indices()):
            # the residual part goes through the minimal p-witness
            self.ledger.after_div_p(self.env.m, "sigma1-mu-canonical")
        return self.env.sigma1(i)

    def ideal_spanning(self, budget: int = 4096):
        env = self.env
        out = [env.smul(self.p, env._unit_vec(i)) for i in env.mu_indices()]
        out += [env._unit_vec(i) for i in env.t_indices()]
        return [x for x in out if x != env.zero][:budget]

    def sample_elements(self, k: int, seed: int = 0):
        import random as _random

        rng = _random.Random(seed)
        env = self.env
        out = [env.zero, env.one, self.p_elt]
        for _ in range(k):
            coords = [rng.randrange(env.mod) if rng.random() < 0.4 else 0 for _ in range(env.n)]
            out.append(env.reduce(coords))
        return out[: max(k, 3)]

    def eq_mod_p(self, x, y) -> bool:
        d = self.env.sub(x, y)
        return all(c % self.p == 0 for c in d)


def pd_frame(env: PDAlgebra) -> PDFrame:
    """Frame structure on the envelope; fails loudly if sigma1 is inconsistent."""
    return PDFrame(env)


# -- torsion probe --------------------------------------------------------------


@dataclass
class TorsionReport:
    level: tuple  # (cap, m)
    torsion_generators: list
    free_rank: int
    factor_orders: list
    note: str = "truncation-level evidence, not a statement about the p-adic limit"


def pd_torsion_probe(env: PDAlgebra) -> TorsionReport:
    """Certified p-torsion of the truncated module, with independent re-check.

    Reports generators of ker(p) modulo the relation span S plus p^{m-1}*D:
    the p^{m-1} multiples are the unavoidable truncation artifact of working
    mod p^m (a free module has exactly those), so only torsion beyond them
    is evidence.  The generators are read off the block Smith forms of S
    (`GradedSpan.p_torsion`), one per factor Z/p^e with 0 < e < m, so there
    are exactly as many as `factor_orders`.

    The certificate rebuilds S from scratch, on the same stacked path from
    the envelope's stratum buckets and multiplication table, and does not
    read the Smith form it checks: every t is nonzero with p*t in the fresh
    S, and, inserted one at a time into the fresh S + p^{m-1}*D (its rows
    p^{m-1} e_k enter in one stacked pass), every t enlarges it.  So no t
    lies in S + p^{m-1}*D and the t are independent modulo it.
    """
    nf = env.relations
    tors = nf.p_torsion()
    evals = nf.smith_exponents()
    free = env.n - sum(1 for e in evals if e < env.m)
    orders = [env.p ** e for e in evals if 0 < e < env.m]
    fresh = env._build_relations()
    for t in tors:
        if not any(t) or not fresh.contains([env.p * c for c in t]):
            raise AssertionError("torsion candidate failed independent re-reduction")
    if tors:
        pm1 = env.p ** (env.m - 1)
        X = np.zeros((env.n, fresh.width), dtype=exact_dtype(pm1))
        X[np.arange(env.n), fresh.local] = pm1
        extend_stacked(fresh.blocks, np.array(fresh.gid), X)
    for t in tors:
        if fresh.contains(t):
            raise AssertionError("torsion candidate lies in S + p^(m-1) D plus the candidates before it")
        fresh.insert(t)
    if len(tors) != len(orders):
        raise AssertionError("one torsion generator per cyclic factor expected")
    return TorsionReport((env.cap, env.m), tors, free, orders)


# -- differentials ---------------------------------------------------------------


class PDDifferential:
    """Omega = free module on dx_i over the cap-1 companion envelope.

    The divided-degree cap ideal is not differential (d lowers the degree),
    so Omega coefficients live one cap lower: d: D_r -> Omega(D_{r-1}).  In
    that codomain d is exactly Leibniz and exactly kills the relations.
    Elements are tuples of companion-envelope elements of length k.
    d(a^[n]) = a^[n-1] da on divided powers; (dsigma)1(dx_i) is
    x_i^{p-1} dx_i + sum_j (d tau_i/d x_j) dx_j, extended sigma-semilinearly.
    """

    def __init__(self, env: PDAlgebra):
        if env.cap < 3:
            raise PDError("differentials need cap >= 3")
        self.env = env
        self.env1 = PDAlgebra(
            PDPresentation(env.p, env.m, env.pres.variables, env.gens, env.cap - 1, env.pres.tau)
        )
        self.k = env.nvars
        self._d_basis = [self._d_of_basis(i) for i in range(env.n)]
        self.theta = self._build_theta()

    @property
    def zero(self):
        return (self.env1.zero,) * self.k

    def add(self, w1, w2):
        return tuple(self.env1.add(a, b) for a, b in zip(w1, w2))

    def neg(self, w):
        return tuple(self.env1.neg(a) for a in w)

    def smul(self, a, w):
        """Module action of D on Omega, through the truncation D -> D_{r-1}."""
        a1 = self.env.truncate_to(self.env1, a)
        return tuple(self.env1.mul(a1, x) for x in w)

    def int_mul(self, c: int, w):
        return tuple(self.env1.int_mul(c, x) for x in w)

    def equal(self, w1, w2):
        return w1 == w2

    def eq_mod_p(self, w1, w2):
        return all(
            all(c % self.env.p == 0 for c in self.env1.sub(a, b)) for a, b in zip(w1, w2)
        )

    def _d_of_basis(self, i: int):
        """d(mu * prod T_{g_j,n_j}) by Leibniz and d(g^[n]) = g^[n-1] dg."""
        env1 = self.env1
        mu, nv = self.env.basis[i]
        total = [env1.zero] * self.k
        # d(mu) * rest
        if (self.env._zero_exp(), nv) in env1.index:
            rest = env1._unit_vec(env1.index[(self.env._zero_exp(), nv)])
            for v in range(self.k):
                if mu[v]:
                    lowered = list(mu)
                    lowered[v] -= 1
                    term = env1.mul(env1.inject_poly({tuple(lowered): mu[v]}), rest)
                    total[v] = env1.add(total[v], term)
        # mu * sum_j (prod_{j' != j} T) * T_{g_j, n_j - 1} * d(g_j)
        for j in range(self.env.s):
            if nv[j]:
                nv2 = list(nv)
                nv2[j] -= 1
                if (mu, tuple(nv2)) not in env1.index:
                    continue
                partner = env1._unit_vec(env1.index[(mu, tuple(nv2))])
                g = self.env.gens[j]
                for v in range(self.k):
                    if g[v]:
                        lowered = list(g)
                        lowered[v] -= 1
                        term = env1.mul(env1.inject_poly({tuple(lowered): g[v]}), partner)
                        total[v] = env1.add(total[v], term)
        return tuple(total)

    def d(self, a):
        """The PD derivation D_r -> Omega(D_{r-1})."""
        env1 = self.env1
        out = [env1.zero] * self.k
        for i, c in enumerate(a):
            if c:
                db = self._d_basis[i]
                for v in range(self.k):
                    out[v] = env1.add(out[v], env1.smul(c, db[v]))
        return tuple(out)

    def _build_theta(self):
        """theta[j][i]: the dx_j coefficient of (dsigma)1(dx_i)."""
        env1 = self.env1
        R = self.env.poly
        theta = [[env1.zero] * self.k for _ in range(self.k)]
        for i, v in enumerate(self.env.pres.variables):
            xi = R.gen(v)
            lead = R.pow(xi, self.env.p - 1)
            theta[i][i] = env1.add(theta[i][i], env1.inject_poly(lead))
            for j, w in enumerate(self.env.pres.variables):
                dtau = R.derivative(self.env._tau[i], w)
                if dtau:
                    theta[j][i] = env1.add(theta[j][i], env1.inject_poly(dtau))
        return theta

    def dsigma1(self, w):
        """(dsigma)1 on Omega: sigma-semilinear, dx_i -> sum_j theta[j][i] dx_j."""
        env1 = self.env1
        out = [env1.zero] * self.k
        for i in range(self.k):
            coeff = env1.sigma(w[i])
            for j in range(self.k):
                if self.theta[j][i] != env1.zero:
                    out[j] = env1.add(out[j], env1.mul(coeff, self.theta[j][i]))
        return tuple(out)

    def dsigma(self, w):
        """d(sigma) = p * (dsigma)1."""
        return tuple(self.env1.int_mul(self.env.p, x) for x in self.dsigma1(w))
