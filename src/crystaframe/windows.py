"""Windows over frames: validation, homs, classification, deformation.

A window is stored through its normal decomposition: ranks (d, t) and an
invertible structure matrix Psi over the frame carrier, with
Phi = Psi * diag(p 1_d, 1_t) as a sigma-semilinear operator and Phi_1 given
by Psi on L and by sigma1(a) Phi(x) on I*T.

Window homs mod p^m use existential witness semantics: a matrix G is a hom
when its ideal-valued entries admit divided-Frobenius witnesses making the
commutation identities exact.  Linear solvers introduce the witnesses as
extra unknowns, so every reported hom is certified at full precision; the
truncation ambiguity of sigma1 never enters silently.  Hom groups over
coordinate carriers, Z/p^m included, are solved linearly; carriers without
coordinates (Witt, quotient) are exhausted.

Isomorphism testing is by solving for an invertible hom (unit scan on the
hom space mod p), never by invariants.  Over Z/p^m carriers classification
finds the orbits of candidate Psi under the twisted right-action
Psi -> G Psi W(G)^{-1} of the filtration-preserving invertibles, as
connected components of vectorised index maps.  Witt and quotient carriers
are classified by pairwise hom scans instead: each invertible Psi is tested
for isomorphism against the representatives found so far, on the Witt
arithmetic that finite carriers memoise (see `witt`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product as iproduct

import numpy as np

from .frames import BudgetError, Frame, FrameHom
from .linalg import SpanNF, int_dtype, kernel_basis, mod_reducer
from .matrices import (
    from_cols,
    identity,
    int_mat_mul,
    is_invertible,
    mat,
    mat_add,
    mat_col,
    mat_inverse,
    mat_map,
    mat_mul,
    mat_vec,
)
from .residues import Residues


class WindowError(ValueError):
    pass


class WindowBudgetError(WindowError, BudgetError):
    """A window enumeration would exceed its budget."""


@dataclass(frozen=True)
class Window:
    frame: Frame
    d: int
    t: int
    psi: tuple  # r x r matrix over frame.A

    @property
    def rank(self) -> int:
        return self.d + self.t

    def delta(self):
        """diag(p 1_d, 1_t) over the carrier."""
        A = self.frame.A
        r = self.rank
        p_elt = self.frame.p_elt
        return mat(
            [
                [
                    (p_elt if i < self.d else A.one) if i == j else A.zero
                    for j in range(r)
                ]
                for i in range(r)
            ]
        )

    def phi_matrix(self):
        """Columns Phi(e_j): Psi * diag(p 1_d, 1_t)."""
        return mat_mul(self.frame.A, self.psi, self.delta())


def window_from_psi(frame: Frame, d: int, t: int, psi) -> Window:
    psi = mat(psi)
    if len(psi) != d + t or any(len(row) != d + t for row in psi):
        raise WindowError("structure matrix has the wrong shape")
    if d + t > 0 and not is_invertible(frame.A, psi):
        raise WindowError("structure matrix is not invertible")
    return Window(frame, d, t, psi)


def phi_from_psi(w: Window):
    """(Phi matrix, Phi_1 action on the M_1 spanning set).

    Phi_1 is returned as the list of its values on L-basis vectors followed
    by its sigma1-twisted action description on I*T generators.
    """
    A = w.frame.A
    phi = w.phi_matrix()
    phi1_on_L = [mat_col(w.psi, j) for j in range(w.d)]
    return phi, phi1_on_L


def validate_window(w: Window, n_samples: int = 8, seed: int = 0) -> bool:
    """Direct check of the window laws at ledger precision.

    p*Phi_1 = Phi on the L-basis, Phi_1(a x) = sigma1(a) Phi(x) on sampled
    ideal elements and basis vectors (compared in the sigma1 codomain), and
    the spanning condition through invertibility of Psi.
    """
    fr = w.frame
    A = fr.A
    if w.rank == 0:
        return True
    if not is_invertible(A, w.psi):
        return False
    phi = w.phi_matrix()
    # p Phi_1 = Phi on L: p Psi_l = Phi(e_l)
    for l in range(w.d):
        got = tuple(A.int_mul(fr.p, x) for x in mat_col(w.psi, l))
        if got != mat_col(phi, l):
            return False
    # Phi_1(a e_t) = sigma1(a) Phi(e_t) vs p sigma1 = sigma consistency:
    # evaluated in the sigma1 codomain on ideal spanning samples
    cod = fr.sigma1_codomain
    red = fr.reduce_to_codomain
    gens = fr.ideal_spanning(64)
    for k in range(min(n_samples, len(gens))):
        a = gens[k]
        s1 = fr.sigma1(a)
        for t in range(w.d, w.rank):
            lhs = tuple(cod.int_mul(fr.p, cod.mul(s1, red(x))) for x in mat_col(phi, t))
            rhs = tuple(cod.mul(red(fr.sigma(a)), red(x)) for x in mat_col(phi, t))
            if lhs != rhs:
                return False
    return True


# -- window-hom conditions (direct evaluation; works over every frame) --------


def hom_defect_phi(v: Window, w: Window, G):
    """G*Phi_v - Phi_w*sigma(G): zero iff G is a Phi-module hom."""
    A = v.frame.A
    lhs = mat_mul(A, G, v.phi_matrix())
    rhs = mat_mul(A, w.phi_matrix(), mat_map(v.frame.sigma, G))
    return mat(
        [[A.add(a, A.neg(b)) for a, b in zip(ra, rb)] for ra, rb in zip(lhs, rhs)]
    )


def is_phi_hom(v: Window, w: Window, G) -> bool:
    A = v.frame.A
    return all(x == A.zero for row in hom_defect_phi(v, w, G) for x in row)


def filtration_ok(v: Window, w: Window, G) -> bool:
    """Columns of the L_v block must land in M_1^w: bottom entries in I."""
    fr = w.frame
    for j in range(v.d):
        for i in range(w.d, w.rank):
            if not fr.ideal_contains(G[i][j]):
                return False
    return True


def is_window_hom(v: Window, w: Window, G) -> bool:
    """Existential-witness check of the window-hom identities.

    T-columns use the Phi identity at full length; L-columns need
    divided-Frobenius values on the bottom entries.  On coordinate
    carriers, Z/p^m included, the witnesses are solved for, so a hom is
    never rejected for carrying a non-minimal witness; carriers without
    coordinates (Witt, quotient) have an exact sigma1 one level down and
    are compared directly in its codomain.
    """
    fr = v.frame
    A = fr.A
    if not filtration_ok(v, w, G):
        return False
    # T-columns: G Psi_j = Phi_w sigma(G)_j
    phi_w = w.phi_matrix()
    sG = mat_map(fr.sigma, G)
    for j in range(v.d, v.rank):
        lhs = mat_vec(A, G, mat_col(v.psi, j))
        rhs = mat_vec(A, phi_w, mat_col(sG, j))
        if lhs != rhs:
            return False
    if v.d == 0:
        return True
    if w.t == 0:
        # no sigma1 enters: Phi_1 columns compare at full length
        sGm = mat_map(fr.sigma, G)
        for j in range(v.d):
            lhs = mat_vec(A, G, mat_col(v.psi, j))
            rhs = mat_vec(A, w.psi, mat_col(sGm, j))
            if lhs != rhs:
                return False
        return True
    if _has_coords(A):
        return _l_columns_witnessed(v, w, G)
    # exact sigma1 (Witt / quotient): compare in the codomain
    cod = fr.sigma1_codomain
    red = fr.reduce_to_codomain
    psi_w_cod = mat_map(red, w.psi)
    for j in range(v.d):
        lhs = tuple(red(x) for x in mat_vec(A, G, mat_col(v.psi, j)))
        twisted = tuple(
            red(fr.sigma(G[i][j])) if i < w.d else fr.sigma1(G[i][j])
            for i in range(w.rank)
        )
        rhs = mat_vec(cod, psi_w_cod, twisted)
        if lhs != rhs:
            return False
    return True


def _l_columns_witnessed(v: Window, w: Window, G) -> bool:
    """Solve for divided-Frobenius witnesses of the fixed matrix G.

    The L-column identities are linear in the witnesses h of the bottom
    entries (entry mu-coords = p*h); consistency of that system is exactly
    the existential hom condition.
    """
    from .linalg import solve as lin_solve

    fr = v.frame
    A = fr.A
    p, m = fr.p, A.coord_precision()
    mod = p ** m
    nc = A.coord_count()
    mu = A.mu_indices()
    bl = [(i, j) for i in range(w.d, w.rank) for j in range(v.d)]
    s_mu = _sigma_matrix(fr, mu)
    s1T = _coord_matrix(nc, lambda j: A.sigma1_cert(j), A.t_indices())
    rel_rows = [list(r) for r in A.relations.basis()]
    nH = len(bl) * nc

    rows = []
    rhs_all = []
    n_eq_blocks = v.d * w.rank
    n_slack = len(rel_rows) * n_eq_blocks
    blk = 0
    for j in range(v.d):
        for irow in range(w.rank):
            # constant part: (G Psi_j)_irow - sum_k Psi_w[irow][k]*(sigma/sigma1_T part)
            const = list(A.coords(mat_vec(A, G, mat_col(v.psi, j))[irow]))
            for k in range(w.rank):
                entry = G[k][j]
                if k < w.d:
                    val = A.mul(w.psi[irow][k], fr.sigma(entry))
                else:
                    # T-part of sigma1(entry) is linear and known
                    ec = A.coords(entry)
                    tpart = [0] * nc
                    for cidx in range(nc):
                        if ec[cidx]:
                            col = [s1T[rr][cidx] for rr in range(nc)]
                            for rr in range(nc):
                                tpart[rr] = (tpart[rr] + ec[cidx] * col[rr]) % mod
                    val = A.mul(w.psi[irow][k], A.from_coords(tpart))
                const = [(a - b) % mod for a, b in zip(const, A.coords(val))]
            # unknown part: - sum_{k >= d_w} Psi_w[irow][k] * (h_{k,j} . sigma_mu)
            coeff = [[0] * (nH + n_slack) for _ in range(nc)]
            for k in range(w.d, w.rank):
                kk = bl.index((k, j))
                Mmu = int_mat_mul(A.mult_matrix(w.psi[irow][k]), s_mu, mod)
                for rr in range(nc):
                    for cc in range(nc):
                        if Mmu[rr][cc]:
                            coeff[rr][kk * nc + cc] = (coeff[rr][kk * nc + cc] + Mmu[rr][cc]) % mod
            for s_idx, rel in enumerate(rel_rows):
                for rr in range(nc):
                    coeff[rr][nH + blk * len(rel_rows) + s_idx] = rel[rr] % mod
            for rr in range(nc):
                rows.append(coeff[rr])
                rhs_all.append(const[rr])
            blk += 1
    # witness parametrization: p * h = mu-part of the entry, coordinatewise
    for kk, (i, j) in enumerate(bl):
        ec = A.coords(G[i][j])
        for c in mu:
            row = [0] * (nH + n_slack)
            row[kk * nc + c] = p
            rows.append(row)
            rhs_all.append(ec[c] % mod)
    if not rows:
        return True
    return lin_solve(rows, rhs_all, p, m) is not None


# -- hom spaces ----------------------------------------------------------------


@dataclass
class HomSpace:
    source: Window
    target: Window
    mode: str
    generators: list  # matrices over the carrier

    def elements_mod_p(self):
        """All F_p-combinations of the generators, reduced mod p (for scans)."""
        fr = self.source.frame
        A = fr.A
        p = fr.p
        seen = set()
        out = []
        r_w, r_v = self.target.rank, self.source.rank
        for combo in iproduct(range(p), repeat=len(self.generators)):
            acc = [[A.zero] * r_v for _ in range(r_w)]
            for c, g in zip(combo, self.generators):
                if c:
                    for i in range(r_w):
                        for j in range(r_v):
                            acc[i][j] = A.add(acc[i][j], A.int_mul(c, g[i][j]))
            m = mat(acc)
            if m not in seen:
                seen.add(m)
                out.append(m)
        return out

    def contains_zero_only(self) -> bool:
        A = self.source.frame.A
        return all(
            all(x == A.zero for row in g for x in row) for g in self.generators
        )


def hom_space(v: Window, w: Window, mode: str = "window", budget: int = 1 << 16) -> HomSpace:
    """Generators of the hom group, by exact linear algebra or exhaustion.

    mode "window": filtration + Phi_1 + Phi constraints (with witness
    unknowns for the ideal-valued entries); mode "phi_module": only the
    Phi-commutation.  Coordinate carriers, Z/p^m included, are solved
    linearly (the budget bounds the square of the unknown count); carriers
    without coordinates are exhausted.  Every generator is re-checked.
    """
    if v.frame is not w.frame and v.frame != w.frame:
        raise WindowError("hom_space needs windows over the same frame")
    if mode not in ("window", "phi_module"):
        raise WindowError(f"unknown mode {mode!r}")
    fr = v.frame
    if _has_coords(fr.A):
        nvars = w.rank * v.rank * fr.A.coord_count()
        if nvars * nvars > budget:
            raise WindowBudgetError(f"hom system too large for the budget ({nvars} unknowns)")
        gens = _hom_space_linear(v, w, mode)
    else:
        gens = _hom_space_bruteforce(v, w, mode, budget)
    check = is_window_hom if mode == "window" else is_phi_hom
    for g in gens:
        if not check(v, w, g):
            raise AssertionError("hom solver produced a non-hom; solver defect")
    return HomSpace(v, w, mode, gens)


def _has_coords(carrier) -> bool:
    return hasattr(carrier, "coords") and hasattr(carrier, "coord_count")


def _hom_space_bruteforce(v: Window, w: Window, mode: str, budget: int):
    fr = v.frame
    A = fr.A
    r_w, r_v = w.rank, v.rank
    pool = list(A.elements())
    total = len(pool) ** (r_w * r_v)
    if total > budget:
        raise WindowBudgetError(f"carrier too large for exhaustive hom search ({total} candidates)")
    check = is_window_hom if mode == "window" else is_phi_hom
    sols = []
    for combo in iproduct(pool, repeat=r_w * r_v):
        G = mat([combo[i * r_v : (i + 1) * r_v] for i in range(r_w)])
        if check(v, w, G):
            sols.append(G)
    # reduce the solution set to additive generators (greedy span growth)
    gens: list = []
    span = {mat([[A.zero] * r_v for _ in range(r_w)])}
    for s in sols:
        if s not in span:
            gens.append(s)
            new = set(span)
            cur = s
            while cur not in span:
                new |= {mat_add(A, x, cur) for x in span}
                cur = mat_add(A, cur, s)
            span = new
    return gens


@lru_cache(maxsize=256)
def _hom_equations(r_v: int, d_v: int, r_w: int, d_w: int, mode: str):
    """The hom constraints as index data: the one encoding both backends read.

    Returns (equations, bl) as tuples.  An equation is a tuple of terms
    (sign, src, i, j, op, var) whose sum sign * src[i][j] * op(var) vanishes:
    src names a structure matrix ("phi_v", "phi_w", "psi_v", "psi_w"), op a
    coordinate operator ("id", "sigma", "sigma1_T", "sigma_mu"), and var an
    unknown, the entry G[i][j] at i*r_v + j or the divided-Frobenius witness
    of the bottom-left entry bl[k] at r_w*r_v + k.  Each equation is entry
    (i, j) of a matrix identity and opens with the term src[0][j] * G[i][0].
    The Phi rows G Phi_v = Phi_w sigma(G) come first, on every column in mode
    "phi_module" and on the T-columns in mode "window"; mode "window" then
    adds the Phi_1 rows G Psi_v = Psi_w sigma1filt(G) on the L-columns, where
    a bottom entry enters as sigma1_T of itself plus sigma_mu of its witness.
    The caller adds the parametrisation g = p*h of the bottom-left entries.
    """
    window = mode == "window"
    bl = [(i, j) for i in range(d_w, r_w) for j in range(d_v)] if window else []
    equations = []
    for j in range(d_v if window else 0, r_v):
        for i in range(r_w):
            eq = [(1, "phi_v", k, j, "id", i * r_v + k) for k in range(r_v)]
            eq += [(-1, "phi_w", i, k, "sigma", k * r_v + j) for k in range(r_w)]
            equations.append(eq)
    for j in range(d_v if window else 0):
        for i in range(r_w):
            eq = [(1, "psi_v", k, j, "id", i * r_v + k) for k in range(r_v)]
            for k in range(r_w):
                if k < d_w:
                    eq.append((-1, "psi_w", i, k, "sigma", k * r_v + j))
                else:
                    eq.append((-1, "psi_w", i, k, "sigma1_T", k * r_v + j))
                    eq.append((-1, "psi_w", i, k, "sigma_mu", r_w * r_v + bl.index((k, j))))
            equations.append(eq)
    return tuple(map(tuple, equations)), tuple(bl)


def _hom_space_linear(v: Window, w: Window, mode: str):
    """Hom generators by Z/p^m linear algebra: the scalar backend of
    `_hom_equations`, the single encoding of the hom constraints.

    A term becomes the coordinate block mult_matrix(src[i][j]) @ op_matrix at
    the unknown's coordinates, and each equation gets one slack unknown per
    carrier relation.  Unknowns: G coordinates, witness coordinates, slacks.
    """
    fr = v.frame
    A = fr.A
    p, m = fr.p, A.coord_precision()
    mod = p ** m
    nc = A.coord_count()
    r_v, r_w = v.rank, w.rank
    nG = r_w * r_v * nc
    equations, bl = _hom_equations(r_v, v.d, r_w, w.d, mode)
    src = {"phi_v": v.phi_matrix(), "phi_w": w.phi_matrix(), "psi_v": v.psi, "psi_w": w.psi}
    rel_rows = [list(r) for r in A.relations.basis()]
    n_rel = len(rel_rows)
    nz_cols = nG + len(bl) * nc
    total_vars = nz_cols + n_rel * len(equations)
    ops = {op: _op_matrix(fr, op) for op in {t[4] for eq in equations for t in eq}}
    blocks = {}

    def block(a, op):
        if (a, op) not in blocks:
            Ma = A.mult_matrix(a)
            blocks[a, op] = Ma if op == "id" else int_mat_mul(Ma, ops[op], mod)
        return blocks[a, op]

    mat_rows = []
    for e, eq in enumerate(equations):
        rows = [[0] * total_vars for _ in range(nc)]
        for sign, s, i, j, op, var in eq:
            M = block(src[s][i][j], op)
            for rr in range(nc):
                for cc in range(nc):
                    if M[rr][cc]:
                        col = var * nc + cc
                        rows[rr][col] = (rows[rr][col] + sign * M[rr][cc]) % mod
        for s_idx, rel in enumerate(rel_rows):
            for rr in range(nc):
                rows[rr][nz_cols + e * n_rel + s_idx] = (-rel[rr]) % mod
        mat_rows.extend(rows)
    # parametrization of bottom-left entries: mu-coords = p * witness
    for kk, (i, j) in enumerate(bl):
        for c in A.mu_indices():
            row = [0] * total_vars
            row[(i * r_v + j) * nc + c] = 1
            row[nG + kk * nc + c] = (-p) % mod
            mat_rows.append(row)

    if not mat_rows:
        gens_coords = [
            tuple(1 if i == j else 0 for i in range(total_vars)) for j in range(total_vars)
        ]
    else:
        gens_coords = kernel_basis(mat_rows, p, m)

    # project to G, decode, deduplicate via a span normal form on the
    # normalized (relation-reduced) coordinates
    nf = SpanNF(nG, p, m)
    gens = []
    for vec in gens_coords:
        G = _decode_G(A, vec[:nG], r_w, r_v, nc)
        norm = []
        for i in range(r_w):
            for j in range(r_v):
                norm.extend(A.coords(G[i][j]))
        if not any(norm) or nf.contains(norm):
            continue
        nf.insert(norm)
        gens.append(G)
    return gens


def _decode_G(A, flat, r_w, r_v, nc):
    rows = []
    for i in range(r_w):
        row = []
        for j in range(r_v):
            base = (i * r_v + j) * nc
            coords = flat[base : base + nc]
            row.append(A.from_coords(coords))
        rows.append(row)
    return mat(rows)


def _coord_matrix(n, column, indices):
    """n x n integer matrix: column j is `column(j)` for j in `indices`, else 0."""
    cols = {j: column(j) for j in indices}
    return [[cols[j][i] if j in cols else 0 for j in range(n)] for i in range(n)]


def _sigma_matrix(fr: Frame, indices):
    """sigma on the coordinate basis elements in `indices`, in coordinates."""
    A = fr.A
    n = A.coord_count()

    def column(j):
        return A.coords(fr.sigma(A.from_coords([int(i == j) for i in range(n)])))

    return _coord_matrix(n, column, indices)


def _op_matrix(fr: Frame, op: str):
    """Coordinate matrix of a `_hom_equations` operator on the frame carrier."""
    A = fr.A
    n = A.coord_count()
    if op == "id":
        return _coord_matrix(n, lambda j: [int(i == j) for i in range(n)], range(n))
    if op == "sigma1_T":
        return _coord_matrix(n, lambda j: A.sigma1_cert(j), A.t_indices())
    return _sigma_matrix(fr, range(n) if op == "sigma" else A.mu_indices())


# -- F and V -------------------------------------------------------------------


@dataclass
class FVCertificate:
    F: tuple
    V: tuple
    vf_is_p: bool
    fv_is_p: bool
    v_on_phi1_L: bool


def fv_operators(w: Window) -> FVCertificate:
    """F = linearization of Phi; V = diag(1_d, p 1_t) Psi^{-1}; VF = FV = p."""
    fr = w.frame
    A = fr.A
    F = w.phi_matrix()
    psi_inv = mat_inverse(A, w.psi)
    if psi_inv is None:
        raise WindowError("invalid window: Psi not invertible")
    r = w.rank
    delta_flip = mat(
        [
            [
                (A.one if i < w.d else fr.p_elt) if i == j else A.zero
                for j in range(r)
            ]
            for i in range(r)
        ]
    )
    V = mat_mul(A, delta_flip, psi_inv)
    p_id = mat(
        [[fr.p_elt if i == j else A.zero for j in range(r)] for i in range(r)]
    )
    vf = mat_mul(A, V, F) == p_id
    fv = mat_mul(A, F, V) == p_id
    # V(Phi_1(x)) = 1 (x) on the L-basis: V Psi_L-columns are unit vectors
    ok = True
    for j in range(w.d):
        col = mat_vec(A, V, mat_col(w.psi, j))
        want = tuple(A.one if i == j else A.zero for i in range(r))
        if col != want:
            ok = False
    cert = FVCertificate(F, V, vf, fv, ok)
    if not (vf and fv and ok):
        raise WindowError("FV certificate failed: invalid window data")
    return cert


# -- base change -----------------------------------------------------------------


def base_change(hom: FrameHom, w: Window) -> Window:
    psi2 = mat_map(hom.fn, w.psi)
    return window_from_psi(hom.target, w.d, w.t, psi2)


# -- F-nilpotence ----------------------------------------------------------------


def f_nilpotence(w: Window, bound: int | None = None):
    """Iterate the sigma-twisted products of Phi mod p; (nilpotent, index).

    X_k linearizes Phi^k: X_1 = F, X_{k+1} = F sigma(X_k); the index is the
    least k with X_k = 0 mod p.
    """
    fr = w.frame
    A = fr.A
    r = w.rank
    if r == 0:
        return True, 0
    if bound is None:
        bound = r * (fr.depth + 2) + 4
    F = w.phi_matrix()
    X = F
    for k in range(1, bound + 1):
        if all(fr.eq_mod_p(x, A.zero) for row in X for x in row):
            return True, k
        X = mat_mul(A, F, mat_map(fr.sigma, X))
    return False, bound


# -- deformation lifting -----------------------------------------------------------


@dataclass
class LiftReport:
    lifted: object
    steps: int
    unique: bool
    note: str = ""


def lift_window_along(alpha: FrameHom, w: Window, section=None) -> Window:
    """Lift a target window through a surjection: any invertible entry lift."""
    sect = section or getattr(alpha, "section", None)
    if sect is None:
        raise WindowError("lifting needs a section of the carrier surjection")
    psi0 = mat_map(sect, w.psi)
    lifted = window_from_psi(alpha.source, w.d, w.t, psi0)
    back = base_change(alpha, lifted)
    if back.psi != w.psi:
        raise AssertionError("section failed to lift the structure matrix")
    return lifted


def lift_hom_along(
    alpha: FrameHom,
    v_src: Window,
    w_src: Window,
    G_target,
    section=None,
    kernel_elements=None,
    budget: int = 1 << 14,
) -> LiftReport:
    """Lift a window hom along a frame surjection with nilpotent-kernel data.

    Start from an entrywise section adjusted to preserve the filtration,
    then cancel the commutation defect by corrections with entries in the
    kernel N; the search is exhaustive over N-matrices at desk scale, which
    simultaneously certifies uniqueness (exactly one zero-defect lift).
    """
    src = alpha.source
    A = src.A
    sect = section or getattr(alpha, "section", None)
    if sect is None:
        raise WindowError("lifting needs a section of the carrier surjection")
    if kernel_elements is None:
        kernel_elements = _kernel_elements(alpha, budget)
    r_w, r_v = w_src.rank, v_src.rank
    G0 = mat_map(sect, G_target)
    G0 = _adjust_filtration(src, v_src, w_src, G0, kernel_elements)
    n_entries = r_w * r_v
    if len(kernel_elements) ** n_entries > budget:
        raise WindowBudgetError("kernel too large for the exhaustive correction search")
    solutions = []
    steps = 0
    for combo in iproduct(kernel_elements, repeat=n_entries):
        steps += 1
        H = mat([combo[i * r_v : (i + 1) * r_v] for i in range(r_w)])
        cand = mat_add(A, G0, H)
        if not filtration_ok(v_src, w_src, cand):
            continue
        if is_window_hom(v_src, w_src, cand):
            solutions.append(cand)
    if not solutions:
        raise WindowError("no lift found: no correction makes a window hom")
    unique = len(solutions) == 1
    lifted = solutions[0]
    if mat_map(alpha.fn, lifted) != mat(G_target):
        raise AssertionError("lift does not reduce to the input hom")
    return LiftReport(lifted, steps, unique)


def _kernel_elements(alpha: FrameHom, budget: int):
    tgt_zero = alpha.target.A.zero
    out = []
    for i, x in enumerate(alpha.source.A.elements()):
        if i > budget:
            raise WindowBudgetError("kernel enumeration exceeded budget")
        if alpha.fn(x) == tgt_zero:
            out.append(x)
    return out


def _adjust_filtration(src: Frame, v: Window, w: Window, G, kernel_elements):
    """Push bottom-left entries into I by a kernel correction when possible."""
    G = [list(row) for row in G]
    A = src.A
    for i in range(w.d, w.rank):
        for j in range(v.d):
            if not src.ideal_contains(G[i][j]):
                fixed = None
                for k in kernel_elements:
                    cand = A.add(G[i][j], k)
                    if src.ideal_contains(cand):
                        fixed = cand
                        break
                if fixed is None:
                    raise WindowError("cannot adjust filtration: entry not liftable into I")
                G[i][j] = fixed
    return mat(G)


# -- classification ------------------------------------------------------------------


@dataclass
class WindowClass:
    d: int
    t: int
    psi: tuple
    orbit_size: int


@dataclass
class ClassTable:
    frame_name: str
    rank: int
    classes: list = field(default_factory=list)

    def counts(self):
        return {(c.d, c.t): sum(1 for x in self.classes if (x.d, x.t) == (c.d, c.t)) for c in self.classes}


def classify_windows(frame: Frame, rank: int, budget: int = 1 << 21) -> ClassTable:
    """Isomorphism classes of rank-r windows, by exhaustive orbit enumeration."""
    if rank < 0:
        raise WindowError(f"rank must be non-negative, got {rank}")
    if rank > 2:
        raise WindowError("classification is desk-scale: rank <= 2")
    name = getattr(frame, "name", frame.kind)
    table = ClassTable(name, rank)
    if rank == 0:
        table.classes.append(WindowClass(0, 0, mat([]), 1))
        return table
    if isinstance(frame.A, Residues):
        for d in range(rank, -1, -1):
            t = rank - d
            for psi, orbit in _orbits_zpm(frame, d, t, rank, budget):
                table.classes.append(WindowClass(d, t, psi, orbit))
        table.classes.sort(key=lambda c: (-c.d, c.psi))
        return table
    # finite carriers: enumerate invertible Psi, test isomorphism by hom scan
    A = frame.A
    if not hasattr(A, "size") or A.size() ** (rank * rank) > budget:
        raise WindowBudgetError("budget exceeded: carrier too large for classification")
    pool = list(A.elements())
    for d in range(rank, -1, -1):
        t = rank - d
        reps = []
        orbit_counts = []
        for combo in iproduct(pool, repeat=rank * rank):
            psi = mat([combo[i * rank : (i + 1) * rank] for i in range(rank)])
            if not is_invertible(A, psi):
                continue
            cand = Window(frame, d, t, psi)
            placed = False
            for k, rep in enumerate(reps):
                if are_isomorphic(rep, cand):
                    orbit_counts[k] += 1
                    placed = True
                    break
            if not placed:
                reps.append(cand)
                orbit_counts.append(1)
        for rep, cnt in zip(reps, orbit_counts):
            table.classes.append(WindowClass(d, t, rep.psi, cnt))
    table.classes.sort(key=lambda c: (-c.d, c.psi))
    return table


def are_isomorphic(v: Window, w: Window, budget: int = 1 << 16) -> bool:
    """Solve for an invertible hom; (d, t) must match (they are invariants)."""
    if (v.d, v.t) != (w.d, w.t):
        return False
    hs = hom_space(v, w, "window", budget)
    A = v.frame.A
    for g in hs.elements_mod_p():
        if is_invertible(A, g):
            return True
    return False


# -- normal decompositions -------------------------------------------------------


@dataclass
class NormalDecomposition:
    d: int
    t: int
    basis_change: tuple  # invertible C = [L-basis | T-basis] columns
    iterations: int


def lift_idempotent(frame: Frame, E0, max_iter: int = 64):
    """Iterate E <- 3E^2 - 2E^3 until idempotent; integral coefficients only.

    Converges because the idempotency defect squares into the nil part of
    ker(A -> R) + pA at every step.
    """
    A = frame.A
    E = mat(E0)
    for k in range(max_iter):
        E2 = mat_mul(A, E, E)
        if E2 == E:
            return E, k
        E3 = mat_mul(A, E2, E)
        three_E2 = mat([[A.int_mul(3, x) for x in row] for row in E2])
        two_E3 = mat([[A.int_mul(2, x) for x in row] for row in E3])
        E = mat([[A.add(a, A.neg(b)) for a, b in zip(ra, rb)] for ra, rb in zip(three_E2, two_E3)])
    raise WindowError("idempotent iteration failed to converge")


def normal_decomposition(frame: Frame, rank: int, m1_generators):
    """(L, T) with M_1 = L + I*T, from a sublattice I*M <= M_1 <= M.

    Selects generators whose residue-field images are independent, builds
    the projector over R, lifts it to A by the 3e^2-2e^3 iteration, and
    certifies the result: the basis change is invertible and every M_1
    generator decomposes with bottom entries in I.  Failure of the
    residue-field split reports M/M_1 as non-projective.
    """
    A = frame.A
    R = frame.residue_ring
    res_gens = [tuple(frame.residue(x) for x in g) for g in m1_generators]
    # Gaussian selection over the residue ring's residue field: use
    # is_unit-pivoting, which is exactly rank over the local residue ring
    chosen = []
    work: list = []
    pivots = []
    for gi, vec in enumerate(res_gens):
        v = list(vec)
        for (prow, pcol) in pivots:
            c = v[pcol]
            if c != R.zero:
                f = R.mul(c, R.inv(work[prow][pcol]))
                v = [R.add(a, R.neg(R.mul(f, b))) for a, b in zip(v, work[prow])]
        pc = next((i for i, x in enumerate(v) if R.is_unit(x)), None)
        if pc is not None:
            pivots.append((len(work), pc))
            work.append(v)
            chosen.append(gi)
        elif any(x != R.zero for x in v):
            raise WindowError("M/M_1 not projective: residue image does not split freely")
    d = len(chosen)
    t = rank - d
    # complement: standard basis vectors completing the span over R
    used_cols = {pc for _, pc in pivots}
    complement = [j for j in range(rank) if j not in used_cols][:t]
    if len(complement) != t:
        raise WindowError("M/M_1 not projective: no free complement")
    # projector over R onto the chosen image along the complement
    cols_R = [list(res_gens[g]) for g in chosen] + [
        [R.one if i == j else R.zero for i in range(rank)] for j in complement
    ]
    C_R = from_cols(cols_R)
    C_R_inv = mat_inverse(R, C_R)
    if C_R_inv is None:
        raise WindowError("M/M_1 not projective: residue basis not invertible")
    P_R = mat_mul(
        R,
        mat_mul(R, C_R, mat([[R.one if (i == j and i < d) else R.zero for j in range(rank)] for i in range(rank)])),
        C_R_inv,
    )
    # lift entrywise and run the integral idempotent iteration
    E0 = mat_map(frame.section, P_R)
    E, iters = lift_idempotent(frame, E0)
    # assemble the decomposition: L = E * (chosen generators), T = (1-E) e_j
    one_minus_E = mat(
        [
            [A.add((A.one if i == j else A.zero), A.neg(E[i][j])) for j in range(rank)]
            for i in range(rank)
        ]
    )
    L_cols = [mat_vec(A, E, m1_generators[g]) for g in chosen]
    T_cols = [mat_col(one_minus_E, j) for j in complement]
    C = from_cols(L_cols + T_cols)
    if not is_invertible(A, C):
        raise WindowError("normal decomposition failed: basis change not invertible")
    # certify: every M_1 generator has bottom entries in I after the change
    C_inv = mat_inverse(A, C)
    for g in m1_generators:
        coords = mat_vec(A, C_inv, g)
        for i in range(d, rank):
            if not frame.ideal_contains(coords[i]):
                raise WindowError("normal decomposition failed the membership certificate")
    return NormalDecomposition(d, t, C, iters)


def window_from_raw(frame: Frame, m1_generators, phi) -> Window:
    """Accept the raw form (M, M_1, Phi) and normalize it to (d, t, Psi).

    `phi` is the semilinear matrix of Phi in the standard basis.  A normal
    decomposition M = L + T with M_1 = L + I*T is computed first; in the
    new basis Phi's L-columns must be exact p-multiples (that is the window
    law p*Phi_1 = Phi on L), and Psi is Phi with those columns divided by p
    through their certified witnesses.  The result is revalidated.
    """
    phi = mat(phi)
    rank = len(phi)
    nd = normal_decomposition(frame, rank, m1_generators)
    A = frame.A
    C = nd.basis_change
    C_inv = mat_inverse(A, C)
    sigma_C = mat_map(frame.sigma, C)
    phi_new = mat_mul(A, mat_mul(A, C_inv, phi), sigma_C)
    cols = []
    p_elt = frame.p_elt
    for j in range(rank):
        col = mat_col(phi_new, j)
        if j < nd.d:
            witness = []
            for x in col:
                h = _divide_by_p(frame, x)
                if h is None:
                    raise WindowError("raw Phi is not divisible by p on the L part")
                witness.append(h)
            cols.append(tuple(witness))
        else:
            cols.append(col)
    psi = from_cols(cols)
    # certify the divisions: p * Psi_L = Phi_L exactly
    for j in range(nd.d):
        for i in range(rank):
            if A.int_mul(frame.p, psi[i][j]) != phi_new[i][j]:
                raise WindowError("division witness failed certification")
    w = window_from_psi(frame, nd.d, nd.t, psi)
    if not validate_window(w):
        raise WindowError("raw data does not satisfy the window laws")
    return w


def _divide_by_p(frame: Frame, x):
    """A canonical witness h with p*h = x, or None."""
    A = frame.A
    if _has_coords(A):
        coords = A.coords(x)
        if any(c % frame.p for c in coords):
            # fall back to a linear solve through the relation span
            from .linalg import solve as lin_solve

            n = A.coord_count()
            rels = A.relations.basis()
            rows = [[frame.p if i == j else 0 for j in range(n)] + [r[i] for r in rels] for i in range(n)]
            sol = lin_solve(rows, list(coords), frame.p, A.coord_precision())
            return None if sol is None else A.from_coords(sol[:n])
        return A.from_coords([c // frame.p for c in coords])
    # finite carriers: scan
    for h in A.elements():
        if A.int_mul(frame.p, h) == x:
            return h
    return None


def _unit_group_generators(p: int, m: int):
    mod = p ** m
    if mod == 2:
        return [1]
    if p == 2:
        gens = [mod - 1]
        if m >= 3:
            gens.append(5)
        return gens
    g = _primitive_root(p)
    return [g]


def _primitive_root(p: int):
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise AssertionError("no primitive root found")


def _orbit_steps(frame: Frame, d: int, rank: int):
    """Steps (G, W^{-1}) of the twisted action Psi -> G Psi W^{-1} over Z/p^m.

    G runs over a generating set of the filtration-preserving invertibles
    and their inverses, with W = W(G) applying sigma/sigma1 to the columns
    per the normal decomposition; then come witness twists (G = 1) that
    absorb the sigma1 ambiguity of the minimal-witness choice.
    """
    A = frame.A
    p, m = A.p, A.m
    mod = A.modulus

    def w_of(G):
        cols = []
        for j in range(rank):
            col = []
            for i in range(rank):
                x = G[i][j]
                if j < d:
                    col.append(frame.sigma(x) if i < d else frame.sigma(x // p))
                else:
                    col.append((p * frame.sigma(x)) % mod if i < d else frame.sigma(x))
            cols.append(col)
        return from_cols(cols)

    # generating set of the filtration-preserving invertibles
    gens = []
    for u in _unit_group_generators(p, m):
        for pos in range(rank):
            D = [[A.one if i == j else A.zero for j in range(rank)] for i in range(rank)]
            D[pos][pos] = u % mod
            gens.append(mat(D))
    for i in range(rank):
        for j in range(rank):
            if i == j:
                continue
            val = 1 if not (i >= d and j < d) else p % mod
            if val == 0:
                continue
            E = [[A.one if a == b else A.zero for b in range(rank)] for a in range(rank)]
            E[i][j] = val
            gens.append(mat(E))
            E2 = [[A.one if a == b else A.zero for b in range(rank)] for a in range(rank)]
            E2[i][j] = (-val) % mod
            gens.append(mat(E2))
    steps = []
    for G in gens:
        W = w_of(G)
        Winv = mat_inverse(A, W)
        Ginv = mat_inverse(A, G)
        if Winv is None or Ginv is None:
            continue
        steps.append((G, Winv))
        Wg_inv = mat_inverse(A, w_of(Ginv))
        if Wg_inv is not None:
            steps.append((Ginv, Wg_inv))
    # witness twists: right-multiply by (1 +/- p^{m-1} E_{il}) for T-rows i, L-cols l
    tw = p ** (m - 1)
    eye = identity(A, rank)
    for i in range(d, rank):
        for l in range(d):
            for s in (tw, (-tw) % mod):
                T = [list(row) for row in eye]
                T[i][l] = s
                steps.append((eye, mat(T)))
    return steps


def _orbits_zpm(frame: Frame, d: int, t: int, rank: int, budget: int):
    """Orbits of the twisted action on invertible Psi over Z/p^m.

    The steps are those of `_orbit_steps`.  Each Psi is the integer whose
    base-p^m digits are its entries in row-major order, first entry most
    significant, so index order is the lexicographic order of matrices.  A
    step is linear in the entries of Psi, so it becomes one vectorised map
    from the indices of all invertible Psi to the indices of their images;
    an image that is not invertible raises.  G and W^{-1} are invertible, so
    every step is a bijection of the finite set of invertible Psi, some
    power of it is its inverse, and the orbits (the sets reachable by steps)
    are the connected components of the graph with an edge from each Psi to
    each of its images.  They are found by min-label propagation with
    pointer jumping (Shiloach-Vishkin): each Psi pulls the smallest label of
    its images and then the label of its label, until nothing changes, so
    each orbit ends up labelled by its smallest index.  Returns
    (representative, orbit size) pairs, the representative being the
    orbit's least matrix, in increasing order.
    """
    p, mod = frame.A.p, frame.A.modulus
    n2 = rank * rank
    if mod ** n2 > budget:
        raise WindowBudgetError("budget exceeded for orbit enumeration")
    steps = _orbit_steps(frame, d, rank)

    # candidates: the invertible Psi, as the entry columns of their indices
    size = mod ** n2
    dt = int_dtype(n2 * (mod - 1) ** 2)
    digits = np.indices((mod,) * n2, dtype=dt).reshape(n2, size)
    if rank == 1:
        dets = digits[0]
    else:
        dets = digits[0] * digits[3] - digits[1] * digits[2]
    index = np.flatnonzero(dets % p)
    entries = digits[:, index]
    n = index.size
    idx = int_dtype(size)
    position = np.full(size, -1, dtype=idx)
    position[index] = np.arange(n)

    # one index map per step: the entries of G Psi Winv are linear in Psi's
    acc = np.empty(n, dtype=dt)
    term = np.empty(n, dtype=dt)
    reduce = mod_reducer(mod, term)  # clobbers term
    cells = [(i, j) for i in range(rank) for j in range(rank)]
    maps = []
    for G, Winv in steps:
        image = np.zeros(n, dtype=idx)
        for i, j in cells:
            acc.fill(0)
            for e, (k, l) in enumerate(cells):
                c = G[i][k] * Winv[l][j] % mod
                if c:
                    np.multiply(entries[e], c, out=term)
                    np.add(acc, term, out=acc)
            reduce(acc)
            image *= mod
            image += acc
        image = position.take(image)
        if (image < 0).any():
            raise AssertionError("orbit left the invertible set")
        maps.append(image)

    # orbits = components: pull labels along every map, then jump
    label = np.arange(n, dtype=idx)
    while True:
        before = label.copy()
        for f in maps:
            np.minimum(label, label.take(f), out=label)
        while True:
            jumped = label.take(label)
            if np.array_equal(jumped, label):
                break
            label = jumped
        if np.array_equal(label, before):
            break
    reps, sizes = np.unique(label, return_counts=True)
    return [
        (mat(entries[:, r].reshape(rank, rank).tolist()), int(k))
        for r, k in zip(reps, sizes)
    ]
