"""Windows over frames: validation, homs, classification, deformation.

A window is stored through its normal decomposition: ranks (d, t) and an
invertible structure matrix Psi over the frame carrier, with
Phi = Psi * diag(p 1_d, 1_t) as a sigma-semilinear operator and Phi_1 given
by Psi on L and by sigma1(a) Phi(x) on I*T.

Window homs mod p^m use existential witness semantics: a matrix G is a hom
when its ideal-valued entries admit divided-Frobenius witnesses making the
commutation identities exact.  Linear solvers introduce the witnesses as
extra unknowns, so every reported hom is certified at full precision; the
truncation ambiguity of sigma1 never enters silently.  Every hom group is
solved linearly, never exhausted, over carrier coordinates (table ones,
`frames.TableCoords`, on Witt and quotient carriers).  Where sigma1 leaves
the carrier, the witnesses have the ideal's coordinates and the L-column
rows the sigma1 codomain's, the comparison `is_window_hom` makes there.  A
coordinate identity holds modulo the carrier relations, so each block of
rows is multiplied by the relation span's `SpanNF.membership_rows()`: the
unknowns are G and the witnesses, nothing else.  `hom_affine` solves the
same system with side rows P*G = b on the coordinates of G: coordinate
selections pin the D-part of a connection (`nabla`), and deformation
lifting is one such affine system.  The lifts of a hom G_target along a
frame surjection alpha are the homs G with alpha(G) = G_target, rows
alpha's coordinate matrix, so the filtration enters through the witness
rows; the lift is unique exactly when every homogeneous solution decodes
to the zero matrix.

Isomorphism testing is by solving for an invertible hom (unit scan on the
hom space mod p), never by invariants.  Over Z/p^m carriers classification
finds the orbits of candidate Psi under the twisted right-action
Psi -> G Psi W(G)^{-1} of the filtration-preserving invertibles, as
connected components of vectorised index maps.  Witt and quotient carriers
are classified by pairwise isomorphism tests instead: each invertible Psi
is tested against the representatives found so far.

Raw-form normalisation (`window_from_raw` through `normal_decomposition`)
is for lift frames, over Z/p^m or W_n(k): only they carry the residue map
it splits M/M_1 with.  Other kinds raise WindowError there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product as iproduct

import numpy as np

from .frames import BudgetError, Frame, FrameHom, TableCoords
from .linalg import SpanNF, exact_dtype, int_dtype, kernel_basis, mod_reducer, solve, solve_affine
from .matrices import (
    diag,
    from_cols,
    identity,
    is_invertible,
    mat,
    mat_add,
    mat_col,
    mat_inverse,
    mat_map,
    mat_mul,
    mat_sub,
    mat_vec,
    mult_matrix,
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
        return diag(self.frame.A, [self.frame.p_elt] * self.d + [self.frame.A.one] * self.t)

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
    return mat_sub(A, lhs, mat_mul(A, w.phi_matrix(), mat_map(v.frame.sigma, G)))


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
    divided-Frobenius values on the bottom entries.  Where sigma1 stays in
    the carrier (lift, PD and D(1)_2 frames) the witnesses are solved for,
    so a hom is never rejected for carrying a non-minimal witness; Witt and
    quotient frames have an exact sigma1 one level down, and there the
    L-columns are compared directly in its codomain.
    """
    fr = v.frame
    A = fr.A
    if not filtration_ok(v, w, G):
        return False
    # T-columns: G Psi_j = Phi_w sigma(G)_j; L-columns G Psi_j = Psi_w sigma(G)_j
    # at full length too when no sigma1 enters (w.t = 0)
    sG, phi_w = mat_map(fr.sigma, G), w.phi_matrix()
    for j in range(0 if w.t == 0 else v.d, v.rank):
        rhs = mat_vec(A, phi_w if j >= v.d else w.psi, mat_col(sG, j))
        if mat_vec(A, G, mat_col(v.psi, j)) != rhs:
            return False
    if v.d == 0 or w.t == 0:
        return True
    if fr.sigma1_codomain is A:
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
    the existential hom condition.  Each identity holds modulo the carrier
    relations, so its block of rows is multiplied by `membership_rows()`.
    """
    fr = v.frame
    A = fr.A
    p, m = fr.p, A.coord_precision()
    mod = p ** m
    nc = A.coord_count()
    mu = np.array(A.mu_indices(), dtype=np.intp)
    bl = [(i, j) for i in range(w.d, w.rank) for j in range(v.d)]
    nH = len(bl) * nc
    dt = exact_dtype(max(nH, nc) * mod * mod)
    T = _membership(fr, A, dt)
    s_mu = _op_matrix(fr, "sigma_mu", dt)
    s1T = _op_matrix(fr, "sigma1_T", dt)

    rows = []
    rhs = []
    for j in range(v.d):
        for irow in range(w.rank):
            # constant part: (G Psi_j)_irow - sum_k Psi_w[irow][k]*(sigma/sigma1_T part)
            const = np.array(A.coords(mat_vec(A, G, mat_col(v.psi, j))[irow]), dtype=dt)
            # unknown part: sum_{k >= d_w} Psi_w[irow][k] * (h_{k,j} . sigma_mu)
            coeff = np.zeros((nc, nH), dtype=dt)
            for k in range(w.rank):
                entry = G[k][j]
                if k < w.d:
                    val = A.mul(w.psi[irow][k], fr.sigma(entry))
                else:
                    # T-part of sigma1(entry) is linear and known
                    tpart = s1T @ np.array(A.coords(entry), dtype=dt) % mod
                    val = A.mul(w.psi[irow][k], A.from_coords(tpart.tolist()))
                    kk = bl.index((k, j))
                    Mk = _mult_matrix(fr, A, w.psi[irow][k], dt)
                    coeff[:, kk * nc : (kk + 1) * nc] = Mk @ s_mu % mod
                const -= np.array(A.coords(val), dtype=dt)
            rows.append(T @ coeff % mod)
            rhs += (T @ const % mod).tolist()
    # witness parametrization: p * h = mu-part of the entry, coordinatewise
    for kk, (i, j) in enumerate(bl):
        ec = A.coords(G[i][j])
        block = np.zeros((len(mu), nH), dtype=dt)
        block[np.arange(len(mu)), kk * nc + mu] = p
        rows.append(block)
        rhs += [ec[c] % mod for c in mu]
    return solve(np.concatenate(rows), rhs, p, m) is not None


# -- hom spaces ----------------------------------------------------------------


@dataclass
class HomSpace:
    source: Window
    target: Window
    mode: str
    generators: list  # matrices over the carrier

    def elements(self):
        """Every hom of the group, whatever the generators: the
        F_p-combinations of their multiples by p^(m-1), ..., p, 1."""
        fr = self.source.frame
        m = fr.A.coord_precision()
        times = [fr.p ** k for k in range(m)[::-1]]
        powers = [mat_map(lambda x: fr.A.int_mul(t, x), g) for g in self.generators for t in times]
        return HomSpace(self.source, self.target, self.mode, powers).elements_mod_p()

    def elements_mod_p(self):
        """All F_p-combinations of the generators: a representative of every
        class of the group mod p, for unit scans."""
        A = self.source.frame.A
        seen = {}
        for combo in iproduct(range(self.source.frame.p), repeat=len(self.generators)):
            acc = mat([[A.zero] * self.source.rank for _ in range(self.target.rank)])
            for c, g in zip(combo, self.generators):
                if c:
                    acc = mat_add(A, acc, mat_map(lambda x: A.int_mul(c, x), g))
            seen.setdefault(acc, None)
        return list(seen)

    def contains_zero_only(self) -> bool:
        A = self.source.frame.A
        return all(
            all(x == A.zero for row in g for x in row) for g in self.generators
        )


def hom_space(v: Window, w: Window, mode: str = "window", budget: int = 1 << 16) -> HomSpace:
    """Generators of the hom group, by exact linear algebra on every frame.

    mode "window": filtration + Phi_1 + Phi constraints (with witness
    unknowns for the ideal-valued entries); mode "phi_module": only the
    Phi-commutation.  The budget bounds the square of the unknown count
    and the size of a table carrier, checked before its table enumerates
    anything.  Every generator is re-checked.
    """
    if v.frame is not w.frame and v.frame != w.frame:
        raise WindowError("hom_space needs windows over the same frame")
    if mode not in ("window", "phi_module"):
        raise WindowError(f"unknown mode {mode!r}")
    A = v.frame.A
    if isinstance(A, TableCoords) and A.size() > budget:
        raise WindowBudgetError(f"carrier too large to tabulate within the budget ({A.size()} elements)")
    nvars = w.rank * v.rank * A.coord_count()
    if nvars * nvars > budget:
        raise WindowBudgetError(f"hom system too large for the budget ({nvars} unknowns)")
    gens = _hom_space_linear(v, w, mode)
    check = is_window_hom if mode == "window" else is_phi_hom
    for g in gens:
        if not check(v, w, g):
            raise AssertionError("hom solver produced a non-hom; solver defect")
    return HomSpace(v, w, mode, gens)


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


def _hom_rows(v: Window, w: Window, mode: str):
    """The hom system as an integer array over Z/p^m: the scalar backend of
    `_hom_equations`, the single encoding of the hom constraints.

    A term becomes the coordinate block mult_matrix(src[i][j]) @ op_matrix at
    the unknown's coordinates.  An equation holds modulo the carrier
    relations, so its block of rows is the sum of its terms times the
    relation span's `membership_rows()` (the identity on Z/p^m, which has
    none).  Columns: the coordinates of G (entry (i, j), coordinate c at
    (i*r_v + j)*nc + c), then the witness coordinates.  Where sigma1 leaves
    the carrier, a witness h has the ideal's coordinates, g = iota(h), and
    if w has T-columns the L-column rows are mult_C(red a) @ red @ op on G
    and mult_C(red a) @ sigma1 on h in the sigma1 codomain C.  Returns
    (rows, column count), rows in `exact_dtype(columns * p^2m)`.
    """
    fr = v.frame
    A = fr.A
    p, m = fr.p, A.coord_precision()
    mod = p ** m
    nc = A.coord_count()
    r_v, r_w = v.rank, w.rank
    nvar, nG = r_w * r_v, r_w * r_v * nc
    equations, bl = _hom_equations(r_v, v.d, r_w, w.d, mode)
    src = {"phi_v": v.phi_matrix(), "phi_w": w.phi_matrix(), "psi_v": v.psi, "psi_w": w.psi}
    level = fr.sigma1_codomain is A
    C = A if level or w.t == 0 else fr.codomain_table
    nh = nc if level else fr.ideal_table.coord_count()
    ncols = nG + len(bl) * nh
    dt = exact_dtype(ncols * mod * mod)
    T = _membership(fr, A, dt)
    TC = T if C is A else _membership(fr, C, dt)
    in_C = [C is not A and eq[0][1] == "psi_v" for eq in equations]
    starts = np.cumsum([0] + [len(TC) if c else len(T) for c in in_C])
    # parametrisation of a bottom-left entry g by its witness h: PG g + Ph h = 0
    if level:  # mu-coords of g = p * those of h
        PG = np.eye(nc, dtype=dt)[A.mu_indices()]
        Ph = (-p * PG) % mod
    else:  # g = iota(h)
        PG, Ph = T, -(T @ _op_matrix(fr, "iota", dt)) % mod
    rows = np.zeros((starts[-1] + len(bl) * len(PG), ncols), dtype=dt)
    ops = {op: _op_matrix(fr, op, dt) for op in {t[4] for eq in equations for t in eq}}
    if C is not A:
        red = _op_matrix(fr, "red", dt)
        ops_C = {op: red @ M % mod for op, M in ops.items()}
        ops_C["sigma_mu"] = _op_matrix(fr, "sigma1", dt)
    blocks = {}
    for e, eq in enumerate(equations):
        out = rows[starts[e] : starts[e + 1]]
        for sign, s, i, j, op, var in eq:
            a = src[s][i][j]
            key = (in_C[e], a, op)
            if key not in blocks:  # an L-column row in C multiplies by red(a)
                Tx, X, x, opx = (TC, C, fr.reduce_to_codomain(a), ops_C) if in_C[e] else (T, A, a, ops)
                blocks[key] = Tx @ _mult_matrix(fr, X, x, dt) % mod @ opx[op] % mod
            at = var * nc if var < nvar else nG + (var - nvar) * nh
            out[:, at : at + blocks[key].shape[1]] += sign * blocks[key]
    rows %= mod
    for kk, (i, j) in enumerate(bl):
        out = rows[starts[-1] + kk * len(PG) : starts[-1] + (kk + 1) * len(PG)]
        out[:, (i * r_v + j) * nc : (i * r_v + j + 1) * nc] = PG
        out[:, nG + kk * nh : nG + (kk + 1) * nh] = Ph
    return rows, ncols


def _hom_space_linear(v: Window, w: Window, mode: str):
    """Hom generators: the kernel of `_hom_rows`, projected to G."""
    fr = v.frame
    A = fr.A
    p, m = fr.p, A.coord_precision()
    nc = A.coord_count()
    r_v, r_w = v.rank, w.rank
    nG = r_w * r_v * nc
    # rows exist unless G has no coordinates, and then neither has the kernel
    gens_coords = kernel_basis(_hom_rows(v, w, mode)[0], p, m)

    # project to G, decode, deduplicate via a span normal form on the
    # normalized (relation-reduced) coordinates
    nf = SpanNF(nG, p, m)
    gens = []
    for vec in gens_coords:
        G = _decode_G(A, vec[:nG], r_w, r_v, nc)
        norm = [c for row in G for x in row for c in A.coords(x)]
        if not any(norm) or nf.contains(norm):
            continue
        nf.insert(norm)
        gens.append(G)
    return gens


def hom_affine(v: Window, w: Window, rows, rhs, budget: int = 1 << 16):
    """The window homs G whose coordinates satisfy the side rows P*G = b.

    `rows` are P, over the G coordinates in the column layout of
    `_hom_rows`, and `rhs` is b.  They are appended to the hom system with
    zero witness columns, and one `solve_affine` solves the whole.  Returns
    (particular, kernel) as G-coordinate vectors, or None when no hom
    satisfies the rows.  The budget bounds the square of the G coordinates
    the rows leave free, as in `hom_space`.
    """
    p, m = v.frame.p, v.frame.A.coord_precision()
    nG = w.rank * v.rank * v.frame.A.coord_count()
    n_free = max(nG - len(rows), 0)
    if n_free * n_free > budget:
        raise WindowBudgetError(f"hom system too large for the budget ({n_free} unknowns)")
    hom_rows, ncols = _hom_rows(v, w, "window")
    side = np.zeros((len(rows), ncols), dtype=hom_rows.dtype)
    side[:, :nG] = np.array(rows, dtype=object).reshape(len(rows), nG) % p ** m
    part, kernel = solve_affine(np.concatenate([hom_rows, side]), [0] * len(hom_rows) + list(rhs), p, m)
    if part is None:
        return None
    return list(part[:nG]), [list(g[:nG]) for g in kernel]


def _decode_G(A, flat, r_w, r_v, nc):
    cells = [A.from_coords(flat[k * nc : (k + 1) * nc]) for k in range(r_w * r_v)]
    return mat([cells[i * r_v : (i + 1) * r_v] for i in range(r_w)])


def _op_matrix(fr: Frame, op: str, dt=object):
    """Coordinate matrix of an operator, as a read-only array in dtype `dt`
    (Python ints by default), built once per frame, operator and dtype.

    The `_hom_equations` operators act on the carrier A.  Between the table
    coordinates of A, its ideal I and its sigma1 codomain C there are also
    "iota" (the inclusion I -> A), "red" (A -> C) and "sigma1" (I -> C).
    """
    return _frame_array(fr, op, dt, lambda: _op_columns(fr, op))


def _op_columns(fr: Frame, op: str):
    A = fr.A
    if op == "id":
        return np.eye(A.coord_count(), dtype=object)
    source = fr.ideal_table if op in ("iota", "sigma1") else A
    target = fr.codomain_table if op in ("red", "sigma1") else A
    fn = {"iota": lambda x: x, "red": fr.reduce_to_codomain, "sigma1": fr.sigma1}.get(op, fr.sigma)
    n = source.coord_count()
    out = np.zeros((target.coord_count(), n), dtype=object)
    if op == "sigma1_T":  # Z/p^m has no T coordinates, and no sigma1_cert
        for j in A.t_indices():
            out[:, j] = A.sigma1_cert(j)
        return out
    for j in A.mu_indices() if op == "sigma_mu" else range(n):
        out[:, j] = target.coords(fn(source.from_coords([int(i == j) for i in range(n)])))
    return out


def _mult_matrix(fr: Frame, carrier, a, dt):
    """mult_matrix(carrier, a), kept per frame as `_op_matrix` keeps operators."""
    return _frame_array(fr, ("mult", id(carrier), a), dt, lambda: mult_matrix(carrier, a))


def _membership(fr: Frame, carrier, dt):
    """The carrier's `membership_rows()`, kept as `_mult_matrix` keeps products."""
    T = carrier.relations.membership_rows
    n = carrier.coord_count()
    return _frame_array(fr, ("T", id(carrier)), dt, lambda: np.array(T(), dtype=object).reshape(-1, n))


def _frame_array(fr: Frame, key, dt, build):
    cache = fr.__dict__.setdefault("_coord_arrays", {})
    if (key, dt) not in cache:
        cache[key, dt] = np.array(build(), dtype=dt)
        cache[key, dt].flags.writeable = False
    return cache[key, dt]


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
    V = mat_mul(A, diag(A, [A.one] * w.d + [fr.p_elt] * w.t), psi_inv)
    p_id = diag(A, [fr.p_elt] * w.rank)
    vf = mat_mul(A, V, F) == p_id
    fv = mat_mul(A, F, V) == p_id
    # V(Phi_1(x)) = 1 (x) on the L-basis: V Psi_L-columns are unit vectors
    eye = identity(A, w.rank)
    ok = all(mat_vec(A, V, mat_col(w.psi, j)) == mat_col(eye, j) for j in range(w.d))
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
    kernel: list  # the nonzero homogeneous solutions' generators, decoded

    @property
    def unique(self) -> bool:
        return not self.kernel


def lift_window_along(alpha: FrameHom, w: Window) -> Window:
    """Lift a target window through a surjection: any invertible entry lift."""
    if alpha.section is None:
        raise WindowError("lifting needs a section of the carrier surjection")
    lifted = window_from_psi(alpha.source, w.d, w.t, mat_map(alpha.section, w.psi))
    if base_change(alpha, lifted).psi != w.psi:
        raise AssertionError("section failed to lift the structure matrix")
    return lifted


def lift_hom_along(alpha: FrameHom, v_src: Window, w_src: Window, G_target, budget: int = 1 << 16) -> LiftReport:
    """Lift a window hom along a frame surjection: one affine hom system.

    alpha is additive, so on carrier coordinates it is the matrix M whose
    columns are the target coordinates of alpha on the source's unit
    coordinate vectors.  The lifts are the source homs G with
    alpha(G) = G_target, an identity modulo the target's relations: the
    side rows of `hom_affine` are T @ M on each entry of G and the
    right-hand side is T @ coords(G_target[i][j]), T the target's
    `membership_rows()`.  The particular solution is the lift; it is unique
    when every homogeneous generator decodes to the zero matrix (coordinates
    alone would not say so where the source has relations).  The budget is
    that of `hom_affine`.
    """
    A, B = alpha.source.A, alpha.target.A
    mod = alpha.source.p ** A.coord_precision()
    nc, nB = A.coord_count(), B.coord_count()
    r_w, r_v = w_src.rank, v_src.rank
    units = (A.from_coords([int(i == j) for i in range(nc)]) for j in range(nc))
    M = np.array([B.coords(alpha.fn(x)) for x in units], dtype=object).reshape(nc, nB).T
    T = _membership(alpha.target, B, object)
    rows = np.kron(np.eye(r_w * r_v, dtype=object), T @ M % mod)
    targets = np.array([B.coords(x) for row in G_target for x in row], dtype=object).reshape(r_w * r_v, nB)
    rhs = (targets @ T.T % mod).ravel().tolist()
    sol = hom_affine(v_src, w_src, rows, rhs, budget)
    if sol is None:
        raise WindowError("no lift found: no correction makes a window hom")
    lifted = _decode_G(A, sol[0], r_w, r_v, nc)
    zero = mat([[A.zero] * r_v for _ in range(r_w)])
    kernel = [H for H in (_decode_G(A, g, r_w, r_v, nc) for g in sol[1]) if H != zero]
    if not is_window_hom(v_src, w_src, lifted):
        raise AssertionError("hom solver produced a non-hom; solver defect")
    if mat_map(alpha.fn, lifted) != mat(G_target):
        raise AssertionError("lift does not reduce to the input hom")
    return LiftReport(lifted, kernel)


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
    table = ClassTable(frame.name, rank)
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
        E = mat_sub(A, mat_map(lambda x: A.int_mul(3, x), E2), mat_map(lambda x: A.int_mul(2, x), E3))
    raise WindowError("idempotent iteration failed to converge")


def normal_decomposition(frame: Frame, rank: int, m1_generators):
    """(L, T) with M_1 = L + I*T, from a sublattice I*M <= M_1 <= M.

    Selects generators whose residue-field images are independent, builds
    the projector over R, lifts it to A by the 3e^2-2e^3 iteration, and
    certifies the result: the basis change is invertible and every M_1
    generator decomposes with bottom entries in I.  Failure of the
    residue-field split reports M/M_1 as non-projective.

    Scope: lift frames, the only kind with a residue map (residue_ring,
    residue, section); any other kind raises WindowError.
    """
    if frame.kind != "lift":
        raise WindowError(f"normal decompositions need a lift frame, not {frame.name}")
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
    one_minus_E = mat_sub(A, identity(A, rank), E)
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
    through their certified witnesses.  The result is revalidated.  Lift
    frames only, as for `normal_decomposition`.
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
    """A canonical witness h with p*h = x on a lift frame, or None.

    Z/p^m and W_n(k), k perfect, are free over Z/p^m: their coordinates
    have no relations, so p divides x exactly when it divides each one.
    """
    A = frame.A
    coords = A.coords(x)
    if any(c % frame.p for c in coords):
        return None
    return A.from_coords([c // frame.p for c in coords])


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
