"""Frames (A, I, R, sigma, sigma1) and their concrete constructors.

A frame couples a carrier ring A, an ideal I with R = A/I, a Frobenius lift
sigma, and a divided Frobenius sigma1 on I with p*sigma1 = sigma.  Four
sealed kinds are provided: the Witt frame of a characteristic-p algebra, the
torsion-free lift frame, the admissible-quotient frame A(K_*), and (from the
pdenv module) the divided-power frame.

Truncation is honest.  On Witt and quotient frames sigma1 = V^{-1} is
exact only one level down, and the frame axioms and frame homs compare it
in that declared codomain.  Window homs need it at full length, and every
kind supplies that through witnesses (`wit`, `s1`; derivation in
`windows`): h in A witnesses g = wit(h) and fixes sigma1(g) = s1(h) in A.

sigma1 well-definedness is the delicate point mod p^m: values on certified
decompositions (p*a with witness a, or v(y) with witness y) are exact, while
the canonical total map may cost one digit.  Frames expose both routes.
Finite carriers (Witt rings, quotient carriers) get their Z/p^m coordinates
from one table here (`TableCoords`); the Witt module is loaded only by the
frames that build Witt vectors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .linalg import SpanNF, diagonalize
from .residues import PrecisionLedger, Residues

if TYPE_CHECKING:
    from .monomial import MonomialAlgebra


class TableCoords:
    """Additive coordinates over Z/p^m of a finite carrier, from one table.

    The carrier (p, n, zero, add, mul, elements()) is an abelian group
    killed by p^n, so m = n.  On first use one pass over `elements()`
    makes each element not yet reached a generator and adds its multiples
    to everything reached: a discrete log, and one relation per generator.
    The basis that diagonalizes the relations gives coordinate j the
    cyclic factor Z/p^(e_j), e_j >= 1, and the relation span the p^(e_j)
    e_j alone (none on a free group).  Every coordinate is of mu type.
    """

    def coord_precision(self) -> int:
        return self.n

    @cached_property
    def _table(self):
        p, m = self.p, self.coord_precision()
        log, rels = {self.zero: ()}, []
        for x in self.elements():
            if x in log:
                continue
            multiples = [x]
            while (y := self.add(multiples[-1], x)) not in log:
                multiples.append(y)
            rels.append([-c for c in log[y]] + [0] * (len(rels) - len(log[y])) + [len(multiples) + 1])
            for s, c in list(log.items()):
                for i, mx in enumerate(multiples, 1):
                    log[self.add(s, mx)] = c + (0,) * (len(rels) - 1 - len(c)) + (i,)
        _, _, V, evals = diagonalize([r + [0] * (len(rels) - len(r)) for r in rels], p, m)
        keep = [(j, p ** e) for j, e in enumerate(evals) if e > 0]
        coords = {
            x: tuple(sum(a * V[i][j] for i, a in enumerate(c)) % q for j, q in keep) for x, c in log.items()
        }
        elements = {c: x for x, c in coords.items()}
        if len(elements) != len(coords):
            raise AssertionError("table coordinates are not a bijection")
        relations = SpanNF(len(keep), p, m)
        for k, (_, q) in enumerate(keep):
            relations.insert([q * (i == k) for i in range(len(keep))])
        return coords, elements, [q for _, q in keep], relations

    def coords(self, x):
        return self._table[0][x]

    def from_coords(self, cs):
        return self._table[1][tuple(int(c) % q for c, q in zip(cs, self._table[2]))]

    def coord_count(self) -> int:
        return len(self._table[2])

    @property
    def relations(self) -> SpanNF:
        return self._table[3]

    def mu_indices(self):
        return list(range(self.coord_count()))

    def t_indices(self):
        return []


class FrameError(ValueError):
    pass


class BudgetError(FrameError):
    """An enumeration would exceed its budget (scenario exit code 4)."""


class Frame:
    """Shared contract of the sealed frame kinds."""

    kind = "abstract"

    def __init__(self, carrier, p: int, depth: int):
        self.A = carrier
        self.p = p
        self.depth = depth  # certified applications of sigma1 before exhaustion
        self.ledger = PrecisionLedger(depth + 1)

    # every kind implements: name, p_elt, sigma, sigma1, ideal_contains,
    # ideal_spanning, sample_elements and eq_mod_p.  Only lift frames add the
    # residue map (residue_ring, residue, section) that normal decompositions
    # need, and sigma1_witnessed.

    @property
    def sigma1_codomain(self):
        """Where sigma1 is exact: A, but W_{n-1} on Witt and quotient frames."""
        return self.A

    def reduce_to_codomain(self, x):
        return x

    # sigma1 at full length through a witness h on the mu-coordinates of A:
    # additive, with p*s1(h) = sigma(wit(h)); Witt and quotient frames override.
    def wit(self, h):
        """The ideal element g that h witnesses: p*h."""
        return self.A.int_mul(self.p, h)

    def s1(self, h):
        """sigma1(wit(h)) at full length: sigma(h)."""
        return self.sigma(h)

    wit_slack = ()  # what the zero witness also witnesses; `wit` is modulo its span

    def sigma_linear_defect(self, a, i):
        """sigma1(a*i) - sigma(a)*sigma1(i) in the sigma1 codomain."""
        cod = self.sigma1_codomain
        lhs = self.sigma1(self.A.mul(a, i))
        rhs = cod.mul(self.reduce_to_codomain(self.sigma(a)), self.sigma1(i))
        return cod.add(lhs, cod.neg(rhs))

    def frame_axiom_p_sigma1(self, i) -> bool:
        """p*sigma1(x) = sigma(x), compared in the sigma1 codomain."""
        cod = self.sigma1_codomain
        lhs = cod.int_mul(self.p, self.sigma1(i))
        rhs = self.reduce_to_codomain(self.sigma(i))
        return lhs == rhs


def frame_axiom_failures(frame: Frame, budget: int, n_samples: int, seed: int):
    """The frame-axiom battery: (failures, ideal generators, samples).

    p*sigma1 = sigma on every ideal generator; on each sample a, sigma1 is
    sigma-linear against a generator (up to the digit the ledger concedes)
    and sigma is Frobenius mod p.  A failure is an (axiom, repr) pair.
    """
    gens = frame.ideal_spanning(budget)
    if not gens:
        raise BudgetError("no nonzero ideal generator within the enumeration budget")
    failures = [("p-sigma1", repr(g)) for g in gens if not frame.frame_axiom_p_sigma1(g)]
    samples = frame.sample_elements(n_samples, seed=seed)
    cod = frame.sigma1_codomain
    for k, a in enumerate(samples):
        g = gens[k % len(gens)]
        defect = frame.sigma_linear_defect(a, g)
        if defect != cod.zero and not _defect_at_ledger(frame, defect):
            failures.append(("sigma1-linearity", repr((a, g))))
        p_power = frame.A.one
        for _ in range(frame.p):
            p_power = frame.A.mul(p_power, a)
        if not frame.eq_mod_p(frame.sigma(a), p_power):
            failures.append(("frobenius-mod-p", repr(a)))
    return failures, gens, samples


def _defect_at_ledger(frame: Frame, defect) -> bool:
    """Lift and PD frames certify sigma1 to one digit less than the carrier:
    a defect of integer coordinates divisible by p^(precision - 1) is within
    the ledger."""
    if frame.kind not in ("lift", "pd"):
        return False
    vals = defect if isinstance(defect, tuple) else (defect,)
    if not all(isinstance(c, int) for c in vals):
        return False
    scale = frame.p ** (frame.A.coord_precision() - 1)
    return all(c % scale == 0 for c in vals)


# -- lift frames -------------------------------------------------------------


class LiftFrame(Frame):
    """(A, pA, A/p, sigma, sigma/p) for a torsion-free lift at precision m.

    Carriers: Z/p^m with a declared sigma (usually the identity), or
    W_n(k) for a perfect characteristic-p coefficient algebra k.  sigma1 on
    a certified decomposition p*a is sigma(a), exactly; the canonical total
    map uses the minimal witness and is certified at one digit less.
    """

    kind = "lift"

    def __init__(self, carrier, sigma_fn=None, name: str = ""):
        if isinstance(carrier, Residues):
            p, m = carrier.p, carrier.m
            if m < 2:
                raise FrameError("lift frame needs precision m >= 2")
            super().__init__(carrier, p, m - 1)
            self._style = "residue"
            self.sigma_fn = sigma_fn or (lambda x: x)
            self.residue_ring = Residues(p, 1)
        else:
            from .monomial import frobenius_kernel_nilpotency
            from .witt import WittRing

            if not isinstance(carrier, WittRing):
                raise FrameError("unsupported lift carrier")
            base = carrier.base
            if not base.char_is_p:
                raise FrameError("Witt lift carrier needs a char-p base")
            nil, idx = frobenius_kernel_nilpotency(base)
            if not (nil and idx == 1):
                raise FrameError("carrier has p-torsion: base is not perfect")
            super().__init__(carrier, carrier.p, carrier.n - 1)
            self._style = "witt"
            self.sigma_fn = sigma_fn or carrier.frobenius_charp
            self.residue_ring = base
        self.name = name or f"lift({carrier!r})"
        self.p_elt = self.A.embed_int(self.p)

    # residue / section
    def residue(self, x):
        if self._style == "residue":
            return x % self.p
        return x[0]

    def section(self, r):
        if self._style == "residue":
            return r % self.A.modulus
        return self.A.teichmuller(r)

    def sigma(self, x):
        return self.sigma_fn(x)

    def ideal_contains(self, x) -> bool:
        if self._style == "residue":
            return x % self.p == 0
        return x[0] == self.A.base.zero

    def sigma1(self, i):
        """Canonical total sigma1; exact up to one digit (minimal witness)."""
        if not self.ideal_contains(i):
            raise FrameError("sigma1 is only defined on the ideal")
        self.ledger.after_div_p(self.depth + 1, "sigma1-canonical")
        if self._style == "residue":
            return self.sigma_fn(i // self.p)
        # i = v(y) = p * (componentwise phi^{-1} of y, top 0); sigma of that
        base = self.A.base
        y = i[1:]
        return tuple(y) + (base.zero,)

    def sigma1_witnessed(self, a):
        """sigma1(p*a) = sigma(a), exact on the certified decomposition."""
        return self.sigma(a)

    def ideal_spanning(self, budget: int = 4096):
        if self._style == "residue":
            return [self.A.embed_int(self.p * k) for k in range(1, self.p ** (self.A.m - 1))] or [
                self.p_elt
            ]
        out = []
        Wm1 = self.A.shorter(self.A.n - 1)
        for w in _sample(Wm1.elements(), budget):
            out.append(self.A.verschiebung(w))
        return out

    def sample_elements(self, k: int, seed: int = 0):
        return _deterministic_sample(self.A, k, seed)

    def eq_mod_p(self, x, y) -> bool:
        """pA is the ideal: over a perfect base p*W = v(W_{n-1})."""
        return self.ideal_contains(self.A.add(x, self.A.neg(y)))


def lift_frame(carrier, sigma_fn=None, name: str = "") -> LiftFrame:
    return LiftFrame(carrier, sigma_fn, name)


# -- Witt frames -------------------------------------------------------------


class WittFrame(Frame):
    """(W_n(R), v(W_{n-1}(R)), R, F, v^{-1}) for a char-p monomial algebra R.

    sigma is the componentwise Frobenius (the canonical full-length form of
    the truncated F over a char-p base); sigma1 = v^{-1} lands in W_{n-1},
    so the frame carries a depth budget of n-1 and the frame axioms compare
    sigma1 values after restriction.  A witness h in W_n witnesses
    wit(h) = v(h|W_{n-1}), and s1(h) = h is sigma1 = V^{-1} : I_{n+1} -> W_n
    on its lift v(h).  Over a perfect field this is the lift frame on W_n(k):
    p = VF, so v(h) = p*F^{-1}(h) with s1(h) = sigma(F^{-1}(h)).
    """

    kind = "witt"

    def __init__(self, R: MonomialAlgebra, n: int):
        from .witt import WittRing

        if not R.char_is_p:
            raise FrameError("Witt frame needs a characteristic-p base")
        if n < 2:
            raise FrameError("Witt frame needs length n >= 2")
        carrier = WittRing(R, n)
        super().__init__(carrier, R.p, n - 1)
        self.base = R
        self.n = n
        self.name = f"wittframe({R!r},{n})"
        self.p_elt = carrier.embed_int(self.p)
        self._codomain = WittRing(R, n - 1)

    def sigma(self, x):
        return self.A.frobenius_charp(x)

    @property
    def sigma1_codomain(self):
        return self._codomain

    def reduce_to_codomain(self, x):
        return self.A.restrict(x, self.n - 1)

    def ideal_contains(self, x) -> bool:
        return x[0] == self.base.zero

    def sigma1(self, i):
        """v^{-1}: exact, but the value lives one Witt level down."""
        if not self.ideal_contains(i):
            raise FrameError("sigma1 is only defined on the ideal")
        return tuple(i[1:])

    def wit(self, h):
        return self.A.verschiebung(self.A.restrict(h, self.n - 1))

    def s1(self, h):
        return h

    def ideal_spanning(self, budget: int = 4096):
        Wm1 = self.A.shorter(self.n - 1)
        return [self.A.verschiebung(w) for w in _sample(Wm1.elements(), budget)]

    def sample_elements(self, k: int, seed: int = 0):
        return _deterministic_sample(self.A, k, seed)

    def eq_mod_p(self, x, y) -> bool:
        """In table coordinates pA is the vectors with every entry divisible by p."""
        return not any(c % self.p for c in self.A.coords(self.A.sub(x, y)))


def witt_frame(R: MonomialAlgebra, n: int) -> WittFrame:
    return WittFrame(R, n)


# -- admissible sequences and quotient frames -------------------------------


@dataclass(frozen=True)
class AdmissibleSequence:
    """Ideals K_0 >= K_1 >= ... of a truncated perfection S with K_i^p <= K_{i+1}.

    Each K_i is a monomial ideal given by generator elements of S (monomials).
    """

    S: MonomialAlgebra
    ideals: tuple  # tuple of tuples of generator exponent-tuples

    @staticmethod
    def from_generators(S: MonomialAlgebra, gen_lists):
        ideals = []
        for gens in gen_lists:
            exps = []
            for g in gens:
                if len(g) != 1 or g[0][1] != S.cf.one:
                    raise FrameError("admissible ideals need monomial generators")
                exps.append(g[0][0])
            ideals.append(tuple(sorted(exps)))
        seq = AdmissibleSequence(S, tuple(ideals))
        seq.validate()
        return seq

    @staticmethod
    def minimal(S: MonomialAlgebra, J_gens, n: int):
        """J_i = J^{p^i}, truncated to n terms."""
        from itertools import combinations_with_replacement

        base = [g[0][0] for g in J_gens]
        ideals = []
        cur = list(base)
        for i in range(n):
            ideals.append(tuple(sorted(set(cur))))
            # next: p-fold products of current generators (monomial ideal power)
            nxt = set()
            for combo in combinations_with_replacement(cur, S.p):
                exps = tuple(sum(es) for es in zip(*combo))
                nxt.add(exps)
            cur = sorted(nxt)
        seq = AdmissibleSequence(S, tuple(ideals))
        seq.validate()
        return seq

    def monomial_in_ideal(self, exps, i: int) -> bool:
        return any(all(e >= g for e, g in zip(exps, gens)) for gens in self.ideals[i])

    def validate(self):
        S = self.S
        n = len(self.ideals)
        one_exp = (0,) * len(S.names)
        if self.monomial_in_ideal(one_exp, 0):
            raise FrameError("degenerate input: K_0 = S gives the zero ring")
        for i in range(n - 1):
            # decreasing: every generator of K_{i+1} lies in K_i
            for g in self.ideals[i + 1]:
                if not self.monomial_in_ideal(g, i):
                    raise FrameError(f"K_{i + 1} is not contained in K_{i}")
            # admissible: K_i^p subset of K_{i+1}, on p-fold generator products
            from itertools import combinations_with_replacement

            for combo in combinations_with_replacement(self.ideals[i], S.p):
                exps = tuple(sum(es) for es in zip(*combo))
                if S._admissible(exps) and not self.monomial_in_ideal(exps, i + 1):
                    raise FrameError(f"K_{i}^p not contained in K_{i + 1}")


class QuotientCarrier(TableCoords):
    """A(K_*) = W_n(S)/W_n(K_*) with staircase-canonical representatives.

    A representative (r_0, ..., r_{n-1}) has r_i supported outside K_i; the
    reduction subtracts W(K_*) elements bottom-up, which only corrupts higher
    components by the triangularity of Witt addition.  Table coordinates are
    over Z/p^n.
    """

    def __init__(self, seq: AdmissibleSequence, n: int):
        from .witt import WittRing

        self.seq = seq
        self.n = n
        self.S = seq.S
        self.p = seq.S.p
        self.W = WittRing(seq.S, n)
        if len(seq.ideals) < n:
            raise FrameError("sequence shorter than the Witt length")

    def key(self):
        return (self.seq.S, self.seq.ideals, self.n)

    def __eq__(self, other):
        return isinstance(other, QuotientCarrier) and self.key() == other.key()

    def __hash__(self):
        return hash(("QuotientCarrier",) + self.key())

    def __repr__(self):
        return f"A(K_*) at W_{self.n}({self.S!r})"

    def reduce(self, x):
        S, W = self.S, self.W
        cur = tuple(x)
        for i in range(self.n):
            in_part = tuple((e, c) for e, c in cur[i] if self.seq.monomial_in_ideal(e, i))
            if in_part:
                w = tuple(
                    in_part if j == i else S.zero for j in range(self.n)
                )
                cur = W.sub(cur, w)
        return cur

    @property
    def zero(self):
        return self.W.zero

    @property
    def one(self):
        return self.W.one

    def add(self, a, b):
        return self.reduce(self.W.add(a, b))

    def mul(self, a, b):
        return self.reduce(self.W.mul(a, b))

    def neg(self, a):
        return self.reduce(self.W.neg(a))

    def sub(self, a, b):
        return self.reduce(self.W.sub(a, b))

    def embed_int(self, c):
        return self.reduce(self.W.embed_int(c))

    def int_mul(self, k, a):
        return self.reduce(self.W.int_mul(k, a))

    def equal(self, a, b):
        return a == b

    def is_unit(self, a):
        return self.S.is_unit(a[0])

    def inv(self, a):
        y = self.reduce(self.W.inv(a))
        # Newton inside the quotient to repair reduction effects
        two = self.embed_int(2)
        for _ in range(4 * self.n + 4):
            ay = self.mul(a, y)
            if ay == self.one:
                return y
            y = self.mul(y, self.sub(two, ay))
        raise AssertionError("quotient inversion failed to converge")

    def elements(self):
        from itertools import product as iproduct

        pools = []
        for i in range(self.n):
            monos = [e for e in self.S.basis() if not self.seq.monomial_in_ideal(e, i)]
            level = []
            for combo in iproduct(list(self.S.cf.elements()), repeat=len(monos)):
                level.append(self.S._canon({e: c for e, c in zip(monos, combo)}))
            pools.append(level)
        for combo in iproduct(*pools):
            yield tuple(combo)

    def size(self):
        q = self.S.cf.modulus if isinstance(self.S.cf, Residues) else self.S.p ** self.S.cf.k
        total = 1
        for i in range(self.n):
            monos = [e for e in self.S.basis() if not self.seq.monomial_in_ideal(e, i)]
            total *= q ** len(monos)
        return total


class QuotientFrame(Frame):
    """The admissible-quotient frame on A(K_*), as a quotient of the Witt frame.

    sigma is induced by the componentwise Frobenius; sigma1 is induced by
    v^{-1} and lands one level down, in A(K_0..K_{n-2}) at length n-1.  The
    constructor verifies that v^{-1} descends: v(y) in W(K_*) forces y into
    the shifted sequence, so distinct witnesses agree in the codomain.  As
    for the Witt frame, S must have characteristic p: otherwise the
    componentwise Frobenius is not a ring map.

    The full-length witnesses are the Witt frame's, taken on canonical
    representatives: wit(h) = v(h|W_{n-1}) and s1(h) = h.  v does not
    descend to A(K_*) in general, since K_i need not lie in K_{i+1}; two
    representatives of h differ by some k in W_n(K_*), and their wit values
    by v(k|W_{n-1}).  So wit is defined modulo `wit_slack`, the span of
    those values, and s1(h) does not depend on the representative.
    """

    kind = "quotient"

    def __init__(self, seq: AdmissibleSequence, n: int, check_budget: int = 4096):
        if not seq.S.char_is_p:
            raise FrameError("quotient frame needs a characteristic-p ring")
        if n < 2:
            raise FrameError("quotient frame needs n >= 2")
        carrier = QuotientCarrier(seq, n)
        super().__init__(carrier, seq.S.p, n - 1)
        self.seq = seq
        self.n = n
        self.name = f"quotient({carrier!r})"
        self.p_elt = carrier.embed_int(self.p)
        self._p_image: set | None = None
        self._codomain = QuotientCarrier(seq, n - 1)
        self._well_definedness_check(check_budget)

    def _well_definedness_check(self, budget: int):
        """v(y) = 0 in A(K_*) must force y = 0 in the codomain quotient."""
        count = 0
        Wm1 = self.A.W.shorter(self.n - 1)
        for y in Wm1.elements():
            count += 1
            if count > budget:
                break
            vy = self.A.reduce(self.A.W.verschiebung(y))
            if all(c == () for c in vy):
                if any(c != () for c in self._codomain.reduce(y)):
                    raise FrameError("sigma1 well-definedness failure on v-witnesses")

    def sigma(self, x):
        return self.A.reduce(self.A.W.frobenius_charp(x))

    @property
    def sigma1_codomain(self):
        return self._codomain

    def reduce_to_codomain(self, x):
        return self._codomain.reduce(self.A.W.restrict(x, self.n - 1))

    def ideal_contains(self, x) -> bool:
        return self.A.reduce(x)[0] == ()

    def sigma1(self, i):
        i = self.A.reduce(i)
        if i[0] != ():
            raise FrameError("sigma1 is only defined on the ideal")
        return self._codomain.reduce(tuple(i[1:]))

    def wit(self, h):
        W = self.A.W
        return self.A.reduce(W.verschiebung(W.restrict(h, self.n - 1)))

    def s1(self, h):
        return h

    @cached_property
    def wit_slack(self):
        """v(y) for y in W_{n-1}(K_0..K_{n-2}), generated by the V^(i+1)[c*m],
        c a nonzero scalar and m a monomial of K_i (K_i^p <= K_{i+1} makes
        the Teichmueller sums of such terms differ by higher terms)."""
        S, A, n = self.seq.S, self.A, self.n
        out = []
        for i in range(n - 1):
            for e in (e for e in S.basis() if self.seq.monomial_in_ideal(e, i)):
                for c in S.cf.elements():
                    x = A.reduce(tuple(S.monomial(e, c) if j == i + 1 else S.zero for j in range(n)))
                    if x != A.zero:
                        out.append(x)
        return tuple(out)

    def ideal_spanning(self, budget: int = 4096):
        out = []
        Wm1 = self.A.W.shorter(self.n - 1)
        for w in _sample(Wm1.elements(), budget):
            v = self.A.reduce(self.A.W.verschiebung(w))
            if v != self.A.zero:
                out.append(v)
        return out

    def sample_elements(self, k: int, seed: int = 0):
        return _deterministic_sample(self.A, k, seed)

    def p_image_set(self):
        """p*A(K_*) as a set, built once per frame.

        S has characteristic p, so p = VF on W_n(S): the image of x is the
        shift of its componentwise Frobenius, with no Witt additions.
        """
        if self._p_image is None:
            A, W, S = self.A, self.A.W, self.seq.S
            self._p_image = {
                A.reduce(W.verschiebung(tuple(S.frobenius(c) for c in x[:-1])))
                for x in A.elements()
            }
        return self._p_image

    def eq_mod_p(self, x, y) -> bool:
        return self.A.sub(x, y) in self.p_image_set()


def admissible_quotient_frame(seq: AdmissibleSequence, n: int) -> QuotientFrame:
    return QuotientFrame(seq, n)


# -- frame homomorphisms -----------------------------------------------------


@dataclass
class FrameHom:
    """A carrier map between frames, with optional codomain companion.

    `fn` maps source-carrier elements to target-carrier elements;
    `cod_fn` (when sigma1 codomains differ from the carriers) maps the
    source sigma1-codomain to the target one for the sigma1 square;
    `section` (for a surjection) maps target-carrier elements back to
    preimages, which window lifting needs.
    """

    source: Frame
    target: Frame
    fn: object
    cod_fn: object = None
    name: str = "hom"
    section: object = None

    def __call__(self, x):
        return self.fn(x)

    def codomain_map(self, v):
        if self.cod_fn is not None:
            return self.cod_fn(v)
        return self.fn(v)


@dataclass
class HomCertificate:
    passed: bool
    failures: list = field(default_factory=list)

    def fail(self, kind, witness):
        self.passed = False
        self.failures.append((kind, witness))


def validate_frame_hom(hom: FrameHom, n_samples: int = 40, seed: int = 0) -> HomCertificate:
    """Check ring-hom, ideal, sigma and sigma1 compatibility; failures are data."""
    src, tgt = hom.source, hom.target
    cert = HomCertificate(True)
    samples = src.sample_elements(n_samples, seed)
    A, B = src.A, tgt.A
    if hom(A.one) != B.one:
        cert.fail("one", A.one)
    for i, x in enumerate(samples):
        y = samples[(i * 7 + 3) % len(samples)]
        if hom(A.add(x, y)) != B.add(hom(x), hom(y)):
            cert.fail("additive", (x, y))
        if hom(A.mul(x, y)) != B.mul(hom(x), hom(y)):
            cert.fail("multiplicative", (x, y))
        if hom(src.sigma(x)) != tgt.sigma(hom(x)):
            cert.fail("sigma", x)
        if cert.failures and len(cert.failures) > 8:
            return cert
    for g in src.ideal_spanning(256):
        if not tgt.ideal_contains(hom(g)):
            cert.fail("ideal", g)
            continue
        lhs = hom.codomain_map(src.sigma1(g))
        rhs = tgt.sigma1(hom(g))
        if lhs != rhs:
            cert.fail("sigma1", g)
        if len(cert.failures) > 8:
            return cert
    return cert


# -- sigma1 nilpotence analysis ----------------------------------------------


@dataclass
class NilpotenceReport:
    nilpotent: bool
    index: int
    bound: int
    note: str = ""


class ModuleSpan:
    """Membership oracle for the ideal span of some generators and for p times
    it, by coordinate linear algebra (SpanNF) over Z/p^m.

    `elements` keeps the nonzero products g*b it spans, generators g against
    the carrier's module spanning set, in insertion order.
    """

    def __init__(self, carrier, gens):
        self.carrier = carrier
        n = carrier.coord_count()
        p, m = carrier.p, carrier.coord_precision()
        self.nf = SpanNF(n, p, m)
        self.pnf = SpanNF(n, p, m)
        self.elements = []
        mults = carrier.module_spanning()
        for g in gens:
            for b in mults:
                x = carrier.mul(g, b)
                self.nf.insert(list(carrier.coords(x)))
                self.pnf.insert(list(carrier.coords(carrier.int_mul(carrier.p, x))))
                if x != carrier.zero:
                    self.elements.append(x)

    def contains(self, x) -> bool:
        return self.nf.contains(list(self.carrier.coords(x)))

    def p_contains(self, x) -> bool:
        return self.pnf.contains(list(self.carrier.coords(x)))


def sigma1_nilpotence_index(frame: Frame, N_gens, bound: int | None = None) -> NilpotenceReport:
    """Least r with sigma1^r = 0 on N/pN, or NotNilpotent at the bound.

    N is the ideal generated by N_gens inside I.  Generators outside I are
    rejected (sigma1 is undefined there); an iterate that leaves N or I is
    reported as NotNilpotent rather than an error, since it disproves that
    sigma1 restricts to a pointwise nilpotent endomorphism of N/p.

    Scope: carriers with closed-form coordinates whose sigma1 stays at
    level, that is lift frames over Z/p^m, PD and square-zero frames.  Witt
    and quotient frames (sigma1 one level down) and table carriers (lift
    frames over W(k)) raise FrameError.
    """
    A = frame.A
    if frame.sigma1_codomain is not A or isinstance(A, TableCoords):
        raise FrameError(
            f"sigma1 nilpotence needs closed-form coordinates and sigma1 at level; {frame.name} has not"
        )
    if not N_gens:
        return NilpotenceReport(True, 0, 0)
    for g in N_gens:
        if not frame.ideal_contains(g):
            raise FrameError("sigma1 does not preserve N: generator outside I")
    span = ModuleSpan(A, N_gens)
    if bound is None:
        bound = _default_bound(frame)
    worst = 0
    for x in span.elements:
        r = 0
        cur = x
        while not span.p_contains(cur):
            if not frame.ideal_contains(cur) or not span.contains(cur):
                return NilpotenceReport(
                    False, r, bound, "sigma1 left N: not an endomorphism of N/p"
                )
            cur = frame.sigma1(cur)
            r += 1
            if r > bound:
                return NilpotenceReport(False, r, bound, "iteration bound reached")
        worst = max(worst, r)
    return NilpotenceReport(True, worst, bound)


def _default_bound(frame: Frame) -> int:
    return max(8, min(frame.A.size(), 4096))


# -- shared sampling helpers -------------------------------------------------


def _sample(iterable, budget: int):
    out = []
    for i, x in enumerate(iterable):
        if i >= budget:
            break
        out.append(x)
    return out


def _deterministic_sample(carrier, k: int, seed: int):
    """k deterministic elements: the first few plus seeded random picks."""
    if carrier.size() <= max(64, k):
        return list(carrier.elements())
    pool = _sample(carrier.elements(), 4 * k + 16)
    rng = random.Random(seed)
    out = pool[: k // 2]
    while len(out) < k and pool:
        out.append(pool[rng.randrange(len(pool))])
    return out
