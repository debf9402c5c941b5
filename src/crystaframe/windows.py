"""Windows over frames: validation, homs, classification, deformation.

A window is stored through its normal decomposition: ranks (d, t) and an
invertible structure matrix Psi over the frame carrier, with
Phi = Psi * diag(p 1_d, 1_t) as a sigma-semilinear operator and Phi_1 given
by Psi on L and by sigma1(a) Phi(x) on I*T.

Window homs.  As for Zink's windows ("Windows for displays of p-divisible
groups", 2001) and Lau's frames ("Frames and finite group schemes over
complete regular local rings", Doc. Math. 15, 2010), a hom is a matrix G
that maps M_1 into M_1 (bottom-left entries in I) and commutes with Phi
and Phi_1.  On T-columns this is the Phi identity; on an L-column j it is

    (G Psi_v)_j = Psi_w (sigma(G_kj) for k < d_w, sigma1(G_kj) for k >= d_w),

an identity in A itself, where Phi_1 takes its values.  It needs sigma1 at
full length, which a truncated frame lacks: sigma1 = V^{-1} on Witt and
quotient frames is exact only in W_{n-1}, and dividing by p on lift frames
is ambiguous modulo p^(m-1).  Lau's truncated displays ("Smoothness of the
truncated display functor", J. AMS 26, 2013) take sigma1 = V^{-1} :
I_{n+1} -> W_n on the ideal one level up, at full length: a lift of g in
I_n to I_{n+1} is a choice of sigma1(g) in W_n.  So a hom must satisfy the
L-column identity for some choice, made per bottom-left entry g by a
witness h in A with g = wit(h) and sigma1(g) = s1(h) (`Frame.wit`,
`Frame.s1`): on Witt and quotient frames g = V(h|W_{n-1}) and s1(h) = h,
h being the lift; on lift, PD and D(1)_2 frames g = p*h on the
mu-coordinates and s1(h) = sigma(h), while T-coordinates have an exact
sigma1 (`sigma1_cert`) and take no witness.  The two agree where the frames
do: W_2(F_2) is Z/4 with sigma = id, V(h)|W_2 = 2h and sigma1(2h) = h.

Every hom group is solved linearly, never exhausted, over carrier
coordinates (table ones, `frames.TableCoords`, on Witt and quotient
carriers), with the witnesses as extra unknowns in A, so every reported hom
is certified at full length.  A coordinate identity holds modulo the
carrier relations, so each block of rows is multiplied by the relation
span's `SpanNF.membership_rows()`: the unknowns are G and the witnesses,
nothing else.  `hom_affine` solves the same system with side rows P*G = b
on the coordinates of G: coordinate selections pin the D-part of a
connection (`nabla`), and deformation lifting is one such affine system.
The lifts of a hom G_target along a frame surjection alpha are the homs G
with alpha(G) = G_target, rows alpha's coordinate matrix, so the filtration
enters through the witness rows; the lift is unique exactly when every
homogeneous solution decodes to the zero matrix.

Isomorphism testing is by solving for an invertible hom (unit scan on the
hom space mod p), never by invariants.  Classification finds, on every
finite carrier, the orbits of the invertible Psi under the twisted action
Psi -> G Psi W(G)^{-1} of the filtration-preserving invertibles: connected
components of index maps vectorised over the carrier's tables.

Raw-form normalisation (`window_from_raw` through `normal_decomposition`)
is for lift frames, over Z/p^m or W_n(k): only they carry the residue map
it splits M/M_1 with.  Other kinds raise WindowError there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product as iproduct
from types import SimpleNamespace

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
        """Columns Phi(e_j): Psi * diag(p 1_d, 1_t), computed once."""
        return self._phi

    @cached_property
    def _phi(self):
        return mat_mul(self.frame.A, self.psi, self.delta())


def window_from_psi(frame: Frame, d: int, t: int, psi) -> Window:
    psi = mat(psi)
    if len(psi) != d + t or any(len(row) != d + t for row in psi):
        raise WindowError("structure matrix has the wrong shape")
    if d + t > 0 and not is_invertible(frame.A, psi):
        raise WindowError("structure matrix is not invertible")
    return Window(frame, d, t, psi)


def validate_window(w: Window, n_samples: int = 8, seed: int = 0) -> bool:
    """Direct check of the window laws at full length.

    p*Phi_1 = Phi on the L-basis; on the T-basis, p*Phi_1(g x) = Phi(g x)
    for g = wit(h) on sampled witnesses h, that is p*s1(h) Phi(x) =
    sigma(g) Phi(x); and the spanning condition through invertibility of Psi.
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
    for h in fr.sample_elements(n_samples, seed):
        ps1, sg = A.int_mul(fr.p, fr.s1(h)), fr.sigma(fr.wit(h))
        for t in range(w.d, w.rank):
            if any(A.mul(ps1, x) != A.mul(sg, x) for x in mat_col(phi, t)):
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

    T-columns use the Phi identity at full length, as do the L-columns when
    w has no T-columns.  Otherwise the L-columns need sigma1 of the bottom
    entries at full length, and the witnesses that fix it are solved for on
    every frame kind (`_l_columns_witnessed`), so a hom is never rejected
    for carrying a non-minimal witness.
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
    return v.d == 0 or w.t == 0 or _l_columns_witnessed(v, w, G)


def _l_columns_witnessed(v: Window, w: Window, G) -> bool:
    """Whether witnesses exist that make the fixed matrix G solve the hom
    system of `_hom_rows`: with G's coordinates known the system is linear
    in the witnesses alone, and its consistency is exactly the existential
    hom condition."""
    A = v.frame.A
    p, m = v.frame.p, A.coord_precision()
    rows, _ = _hom_rows(v, w, "window")
    nG = w.rank * v.rank * A.coord_count()
    g = np.array([c for row in G for x in row for c in A.coords(x)], dtype=rows.dtype)
    return solve(rows[:, nG:], (-(rows[:, :nG] @ g) % p ** m).tolist(), p, m) is not None


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
    (i*r_v + j)*nc + c), then those of the witnesses, in A as G's are.  The
    last rows tie each bottom-left entry to its witness (`_witness_rows`);
    rank-1 systems between windows of one shape have no bottom-left entry
    and build no witness rows.  Returns (rows, column count), rows in
    `exact_dtype(columns * p^2m)`.
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
    ncols = nG + len(bl) * nc
    dt = exact_dtype(ncols * mod * mod)
    T = _membership(fr, dt)
    PG, Ph = _witness_rows(fr, dt) if bl else (T[:0], T[:0])
    n_eq = len(equations) * len(T)
    rows = np.zeros((n_eq + len(bl) * len(PG), ncols), dtype=dt)
    ops = {op: _op_matrix(fr, op, dt) for op in {t[4] for eq in equations for t in eq}}
    blocks = {}
    for e, eq in enumerate(equations):
        out = rows[e * len(T) : (e + 1) * len(T)]
        for sign, s, i, j, op, var in eq:
            a = src[s][i][j]
            if (a, op) not in blocks:
                blocks[a, op] = T @ _mult_matrix(fr, a, dt) % mod @ ops[op] % mod
            out[:, var * nc : (var + 1) * nc] += sign * blocks[a, op]
    rows %= mod
    for kk, (i, j) in enumerate(bl):
        out = rows[n_eq + kk * len(PG) : n_eq + (kk + 1) * len(PG)]
        out[:, (i * r_v + j) * nc : (i * r_v + j + 1) * nc] = PG
        out[:, nG + kk * nc : nG + (kk + 1) * nc] = Ph
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
    """Coordinate matrix of an operator on A, as a read-only array in dtype
    `dt` (Python ints by default), built once per frame, operator and dtype.

    The `_hom_equations` operators are "id", "sigma", "sigma1_T" (the exact
    sigma1 of the T-coordinates, `sigma1_cert`) and "sigma_mu", the frame's
    `s1` on the mu-coordinates of a witness: sigma on lift, PD and D(1)_2
    frames, the identity on Witt and quotient frames.  "wit" maps the
    mu-coordinates of a witness to the element it witnesses.
    """
    return _frame_array(fr, op, dt, lambda: _op_columns(fr, op))


def _op_columns(fr: Frame, op: str):
    A = fr.A
    n = A.coord_count()
    if op == "id":
        return np.eye(n, dtype=object)
    out = np.zeros((n, n), dtype=object)
    if op == "sigma1_T":  # Z/p^m has no T coordinates, and no sigma1_cert
        for j in A.t_indices():
            out[:, j] = A.sigma1_cert(j)
        return out
    fn = {"sigma": fr.sigma, "sigma_mu": fr.s1, "wit": fr.wit}[op]
    for j in range(n) if op == "sigma" else A.mu_indices():
        out[:, j] = A.coords(fn(A.from_coords([int(i == j) for i in range(n)])))
    return out


def _witness_rows(fr: Frame, dt):
    """(PG, PH): the rows PG g + PH h = 0 saying that h witnesses g.

    The mu-coordinates of g and of wit(h) must agree modulo the mu-parts of
    the carrier relations and of `Frame.wit_slack`, so PG is the membership
    rows T of their span on the mu-coordinates of g and PH = -T wit.  On
    Z/p^m this is g - p*h = 0.
    """

    def build():
        A = fr.A
        mu = A.mu_indices()
        span = SpanNF(len(mu), fr.p, A.coord_precision())
        for r in list(A.relations.basis()) + [A.coords(x) for x in fr.wit_slack]:
            span.insert([r[c] for c in mu])
        T = np.array(span.membership_rows(), dtype=object).reshape(-1, len(mu))
        PG = T @ np.eye(A.coord_count(), dtype=object)[mu]
        return np.concatenate([PG, -(PG @ _op_matrix(fr, "wit")) % span.mod], axis=1)

    rows = _frame_array(fr, "witness", dt, build)
    return np.split(rows, 2, axis=1)


def _mult_matrix(fr: Frame, a, dt):
    """mult_matrix(fr.A, a), kept per frame as `_op_matrix` keeps operators."""
    return _frame_array(fr, ("mult", a), dt, lambda: mult_matrix(fr.A, a))


def _membership(fr: Frame, dt):
    """The carrier's `membership_rows()`, kept as `_mult_matrix` keeps products."""
    A = fr.A
    T = A.relations.membership_rows
    return _frame_array(fr, "T", dt, lambda: np.array(T(), dtype=object).reshape(-1, A.coord_count()))


def _frame_array(fr: Frame, key, dt, build):
    return _per_frame(fr, (key, dt), lambda: np.array(build(), dtype=dt))


def _per_frame(fr: Frame, key, build):
    """build(), computed once per frame and key; an array comes read-only."""
    cache = fr.__dict__.setdefault("_coord_arrays", {})
    if key not in cache:
        cache[key] = build()
        if isinstance(cache[key], np.ndarray):
            cache[key].flags.writeable = False
    return cache[key]


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
    T = _membership(alpha.target, object)
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


def classify_windows(frame: Frame, rank: int, budget: int = 1 << 21) -> ClassTable:
    """Isomorphism classes of rank-r windows over a finite carrier: the orbits
    of `_orbits`, each represented by its least Psi in element order."""
    if rank < 0:
        raise WindowError(f"rank must be non-negative, got {rank}")
    if rank > 2:
        raise WindowError("classification is desk-scale: rank <= 2")
    table = ClassTable(frame.name, rank)
    if rank == 0:
        table.classes.append(WindowClass(0, 0, mat([]), 1))
        return table
    for d, orbits in enumerate(_orbits(frame, rank, budget)):
        table.classes += [WindowClass(d, rank - d, psi, orbit) for psi, orbit in orbits]
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


def _carrier_tables(fr: Frame):
    """Once per frame: `elements` in order, their `coords`, `unit` mask and
    `code` (coordinates in mixed radix `weight`, which `order` inverts), and
    each coordinate's order `radix`, read off relations that must be the
    p^e e_a alone."""

    def build():
        A = fr.A
        nc, rel = A.coord_count(), A.relations
        if any(sum(map(bool, row)) > 1 for row in rel.reduced_basis()):
            raise WindowError(f"classification needs coordinates in cyclic factors, which {A!r} lacks")
        radix = np.array([fr.p ** rel.pivots().get(a, A.coord_precision()) for a in range(nc)])
        elements = list(A.elements())
        coords = np.array([A.coords(x) for x in elements], dtype=int_dtype(radix.max())).reshape(-1, nc)
        weight = np.cumprod(np.concatenate([[1], radix[:0:-1]]))[::-1]
        code = coords @ weight
        order = np.argsort(code)
        if not np.array_equal(code[order], np.arange(len(elements))):
            raise AssertionError("carrier coordinates are not a bijection")
        unit = np.array([A.is_unit(x) for x in elements])
        return SimpleNamespace(elements=elements, coords=coords, unit=unit, radix=radix, weight=weight,
                               code=code, order=order)

    return _per_frame(fr, "tables", build)


def _times(fr: Frame, c):
    """The element indices of c*x, for every element x in order."""
    tab = _carrier_tables(fr)
    return tab.order[(tab.coords @ _mult_matrix(fr, c, np.int64).T) % tab.radix @ tab.weight]


def _unit_generators(fr: Frame):
    """Units in element order outside the subgroup their predecessors generate."""
    tab = _carrier_tables(fr)
    gens, reached = [], np.arange(len(tab.elements)) == tab.elements.index(fr.A.one)
    for u in np.flatnonzero(tab.unit):
        if not reached[u]:  # A^x is abelian: close the subgroup under u alone
            gens.append(tab.elements[u])
            f = _times(fr, gens[-1])
            while not reached[f[reached]].all():
                reached[f[reached]] = True
    return gens


def _orbit_steps(frame: Frame, d: int, rank: int):
    """Generators (G, W(G)^{-1}) of the twisted action Psi -> G Psi W(G)^{-1}, once per frame, d and rank.

    W(G) is sigma of G, times p top-right and sigma1 bottom-left.  G runs
    over unit diagonals (`_unit_generators`), elementary 1 + bE over the
    coordinate basis b off the bottom-left block, and in it the pairs
    (1 + wit(h)E, 1 + s1(h)E) over the mu-basis h, (1 + tE, 1 + sigma1(t)E)
    over the T-basis t and (1 + sE, 1) for s in `Frame.wit_slack` (witnessed
    by 0).  As E^2 = 0 and wit, s1 are additive, these generate every
    (1 + wit(h)E, 1 + s1(h)E), the witness twists (wit(h) = 0) among them.
    """

    def build():
        A, nc = frame.A, frame.A.coord_count()
        basis = [A.from_coords([int(a == b) for a in range(nc)]) for b in range(nc)]
        eye = identity(A, rank)

        def step(i, j, g, w):
            G, Winv = [list(row) for row in eye], [list(row) for row in eye]
            G[i][j], Winv[i][j] = g, A.inv(w) if i == j else A.neg(w)
            return mat(G), mat(Winv)

        steps = [step(i, i, u, frame.sigma(u)) for u in _unit_generators(frame) for i in range(rank)]
        for i, j in ((i, j) for i in range(rank) for j in range(rank) if i != j):
            if i >= d > j:
                pairs = [(frame.wit(basis[b]), frame.s1(basis[b])) for b in A.mu_indices()]
                pairs += [(basis[b], A.from_coords(A.sigma1_cert(b))) for b in A.t_indices()]
                pairs += [(s, A.zero) for s in frame.wit_slack]
            else:
                pairs = [(b, A.int_mul(frame.p if i < d <= j else 1, frame.sigma(b))) for b in basis]
            steps += [step(i, j, g, w) for g, w in pairs]
        return tuple(steps)

    return list(_per_frame(frame, ("steps", d, rank), build))


def _step_terms(fr: Frame, G, Winv):
    """Psi -> G Psi Winv on coordinates, once per frame and step: per cell
    (i, j) and coordinate a, the nonzero (b, c) of row a of the blocks
    `mult_matrix`(G[i][k] Winv[l][j]), b = e*nc + coordinate of e = (k, l)."""

    def build():
        A, cells = fr.A, [(i, j) for i in range(len(G)) for j in range(len(G))]
        blocks = ([_mult_matrix(fr, A.mul(G[i][k], Winv[l][j]), np.int64) for k, l in cells] for i, j in cells)
        return [[[(int(b), int(row[b])) for b in np.flatnonzero(row)] for row in np.hstack(K)] for K in blocks]

    return _per_frame(fr, ("step", G, Winv), build)


def _orbits(frame: Frame, rank: int, budget: int):
    """Orbits of the twisted action on invertible Psi: per sector d = 0..rank,
    the (least member in element order, orbit size) pairs, in that order.

    The candidates, built once per call from the carrier's tables, are the
    invertible Psi (unit entry, or unit determinant from product and
    difference tables) numbered in element order.  A step is linear on
    coordinates (`_step_terms`): one vectorised map to the positions of the
    images, found by their entry codes (an element of Z/p^m is its own
    code); an image outside the candidates raises.  `_components` finds
    the orbits; sectors with the same steps share them.
    """
    N, n2 = frame.A.size(), rank * rank
    if N ** n2 > budget:
        raise WindowBudgetError("budget exceeded for orbit enumeration")
    tab = _carrier_tables(frame)
    if rank == 1:
        ok = tab.unit
    else:  # det [[a, b], [c, d]] on the axes (a, d, b, c)
        prod, unit_diff = _per_frame(frame, "ring", lambda: (
            np.array([_times(frame, x) for x in tab.elements]).ravel(),
            tab.unit[tab.order[(tab.coords[:, None] - tab.coords[None]) % tab.radix @ tab.weight]],
        ))
        ok = unit_diff[prod[:, None], prod[None]].reshape((N,) * 4).transpose(0, 2, 3, 1)
    number = np.flatnonzero(ok)
    n = number.size
    entries = np.empty((n2, n), dtype=int_dtype(N))  # the entries' element indices
    for e in reversed(range(n2)):
        number, entries[e] = np.divmod(number, N)
    idx, code = int_dtype(N ** n2), 0
    for row in entries:  # each candidate's entry codes, in mixed radix N
        code = code * N + tab.code[row]
    position = np.full(N ** n2, -1, dtype=idx)
    position[code] = np.arange(n)
    nc = len(tab.radix)
    dt = int_dtype(n2 * nc * int(tab.radix.max() - 1) ** 2)
    X = tab.coords[entries].transpose(0, 2, 1).reshape(n2 * nc, n).astype(dt, copy=False)
    del ok, number, entries, code  # X alone (row e*nc + b: coordinate b of entry e) stays
    acc, term = np.empty((2, n), dtype=dt)
    reducers = {q: mod_reducer(int(q), term) for q in set(tab.radix)}  # they clobber term

    def index_map(G, Winv):
        image = np.zeros(n, dtype=idx)
        for cell in _step_terms(frame, G, Winv):
            image *= N
            for a, terms in enumerate(cell):
                acc.fill(0)
                for r, c in terms:
                    np.multiply(X[r], c, out=term)
                    np.add(acc, term, out=acc)
                reducers[tab.radix[a]](acc)
                image += acc if tab.weight[a] == 1 else acc * tab.weight[a]
        image = position.take(image)
        if (image < 0).any():
            raise AssertionError("orbit left the invertible set")
        return image

    sectors, orbits = [], {}
    for d in range(rank + 1):
        steps = tuple(_orbit_steps(frame, d, rank))
        if steps not in orbits:
            label = _components(n, [index_map(G, Winv) for G, Winv in steps])
            reps = np.flatnonzero(label == np.arange(n))
            psis = tab.order[(X[:, reps].reshape(n2, nc, -1) * tab.weight[:, None]).sum(1)].T.tolist()
            orbits[steps] = [
                (mat([[tab.elements[x] for x in psi[i * rank : (i + 1) * rank]] for i in range(rank)]), k)
                for psi, k in zip(psis, np.bincount(label)[reps].tolist())
            ]
        sectors.append(orbits[steps])
    return sectors


def _components(n: int, maps):
    """Connected components of the graph on range(n) that the permutations `maps` span.

    Orbits of a finite group are the components of the undirected graph
    with an edge from each point to its image under each generator, so no
    inverse maps are needed: each map is walked both ways.  Min-label
    propagation with pointer jumping (Shiloach-Vishkin): along each map f a
    point pulls m = min(label, label[f]) and pushes label[f] = min(label[f],
    m), then every label jumps to its label's label, until nothing changes.
    Returns the labels: each component is labelled by its least point.
    """
    label = np.arange(n, dtype=int_dtype(n))
    while True:
        before = label.copy()
        for f in maps:
            np.minimum(label, label.take(f), out=label)
            label[f] = np.minimum(label.take(f), label)
        while True:
            jumped = label.take(label)
            if np.array_equal(jumped, label):
                break
            label = jumped
        if np.array_equal(label, before):
            return label
