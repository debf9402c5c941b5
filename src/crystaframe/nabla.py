"""Connections on windows over divided-power frames.

A connection is a tuple of matrices N_1..N_k (one per base variable) with
entries in the cap-1 companion envelope: nabla(e_a) = sum e_b (N_i)_{ba} dx_i
plus the Leibniz rule.  Horizontality of Phi and Phi_1 is checked exactly at
the declared degree ledger by evaluating both diagrams as residuals
(`horizontality_check`).

The square-zero frame D(1)_2 = D + Omega (multiplication (a,w)(a',w') =
(aa', aw' + a'w)) carries sigma1 = (sigma1, (dsigma)1) and the two
structural maps pbar_0(a) = (a, da), pbar_1(a) = (a, 0).  A horizontal
connection corresponds to the window isomorphism eps(x) = x + nabla(x)
between the two pullbacks (Berthelot-Ogus, Notes on Crystalline
Cohomology, section 4); both directions of that dictionary are implemented
and certified through the generic window machinery.  The solver uses it:
`solve_connection` is the hom system of `windows.hom_affine` between the
pullbacks with side rows pinning the D-part of eps to the identity, and
the residuals stay the independent check of its output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .frames import Frame, FrameHom
from .linalg import SpanNF
from .matrices import is_invertible, mat, mat_add, mat_col, mat_map, mat_mul, mat_sub
from .matrices import vec_add, vec_scale, vec_sub
from .pdenv import PDAlgebra, PDDifferential, PDError, PDFrame, PDPresentation
from .windows import Window, WindowError, base_change, hom_affine, is_window_hom


@dataclass(frozen=True)
class Connection:
    """Per-variable operator matrices over the Omega coefficient envelope."""

    window: Window
    matrices: tuple  # k matrices, r x r over diff.env1


class NablaContext:
    """A window over a PD frame together with its differential structure."""

    def __init__(self, frame: PDFrame):
        if not isinstance(frame, PDFrame):
            raise WindowError("connections live over PD frames")
        self.frame = frame
        self.env = frame.env
        self.diff = PDDifferential(self.env)
        self.env1 = self.diff.env1

    @cached_property
    def square_zero(self) -> "SquareZeroFrame":
        """D(1)_2 over this frame, built on first use."""
        return square_zero_frame(self.frame, self.diff)

    def partial(self, x):
        """Tuple of dx_i components of d(x), over env1."""
        return self.diff.d(x)

    def partial_matrix(self, M, i):
        """Entrywise dx_i component of d applied to a matrix over env."""
        return mat([[self.partial(x)[i] for x in row] for row in M])

    def trunc(self, x):
        return self.env.truncate_to(self.env1, x)

    def trunc_mat(self, M):
        return mat_map(self.trunc, M)


def zero_connection(ctx: NablaContext, w: Window) -> Connection:
    r = w.rank
    z = ctx.env1.zero
    return Connection(w, tuple(mat([[z] * r for _ in range(r)]) for _ in range(ctx.diff.k)))


def _horizontality_residuals(ctx: NablaContext, w: Window, conn: Connection):
    """All residual matrices of the two horizontality diagrams; zero iff pass.

    Residuals are computed over env1: d(Phi)-terms, N-terms and the
    sigma-twisted (dsigma)1-terms, per direction j; the Phi_1 diagram is
    evaluated on the L-basis and on the a*e_t generators for a running over
    the ideal spanning set.
    """
    env1 = ctx.env1
    k = ctx.diff.k
    F = w.phi_matrix()
    Fbar = ctx.trunc_mat(F)
    theta = ctx.diff.theta
    sigN = [mat_map(env1.sigma, Ni) for Ni in conn.matrices]
    FsigN = [mat_mul(env1, Fbar, sNi) for sNi in sigN]
    residuals = []
    # (H-Phi): d_j(F) + N_j Fbar = p * sum_i Fbar sig(N_i) theta[j][i]
    for j in range(k):
        lhs = mat_add(env1, ctx.partial_matrix(F, j), mat_mul(env1, conn.matrices[j], Fbar))
        rhs = _theta_combo(env1, FsigN, theta, j, scale_p=ctx.env.p)
        residuals.append(("phi", j, mat_sub(env1, lhs, rhs)))
    # (H-Phi1) on L-columns: d_j(Psi_L) + N_j PsiBar_L = sum_i [Fbar sig(N_i)] theta[j][i], L columns
    if w.d:
        psi = w.psi
        psibar = ctx.trunc_mat(psi)
        for j in range(k):
            lhs = mat_add(env1, ctx.partial_matrix(psi, j), mat_mul(env1, conn.matrices[j], psibar))
            rhs = _theta_combo(env1, FsigN, theta, j, scale_p=1)
            res = mat_sub(env1, lhs, rhs)
            res_L = mat([row[: w.d] for row in res])
            residuals.append(("phi1-L", j, res_L))
    # (H-Phi1) on a e_t generators, a over the ideal spanning set
    gens = ctx.frame.ideal_spanning()
    for a in gens:
        s1a = ctx.frame.sigma1(a)
        s1a_bar = ctx.trunc(s1a)
        ds1a = ctx.partial(s1a)
        sa_bar = ctx.trunc(ctx.frame.sigma(a))
        da = ctx.partial(a)
        sig_da = [env1.sigma(c) for c in da]
        for j in range(k):
            for tcol in range(w.d, w.rank):
                # LHS: d_j(sigma1(a)) Fbar_col + sigma1(a) [d_j F + N_j Fbar]_col
                base = vec_add(
                    env1,
                    vec_scale(env1, ds1a[j], mat_col(Fbar, tcol)),
                    vec_scale(
                        env1,
                        s1a_bar,
                        mat_col(
                            mat_add(
                                env1,
                                ctx.partial_matrix(F, j),
                                mat_mul(env1, conn.matrices[j], Fbar),
                            ),
                            tcol,
                        ),
                    ),
                )
                # RHS: sigma(a) [sum_i Fbar sig(N_i) theta_ji]_col
                #      + sum_i Fbar_col(tcol via e_t) sigma(da_i) theta_ji
                rhs = vec_scale(
                    env1, sa_bar, mat_col(_theta_combo(env1, FsigN, theta, j, scale_p=1), tcol)
                )
                extra = [env1.zero] * w.rank
                for i in range(k):
                    coeff = env1.mul(sig_da[i], theta[j][i])
                    col = mat_col(Fbar, tcol)
                    extra = vec_add(env1, extra, vec_scale(env1, coeff, col))
                rhs = vec_add(env1, rhs, extra)
                residuals.append(
                    ("phi1-IT", (j, tcol, a), mat([vec_sub(env1, base, rhs)]))
                )
    return residuals


def _theta_combo(env1, FsigN, theta, j, scale_p):
    r = len(FsigN[0]) if FsigN else 0
    acc = mat([[env1.zero] * r for _ in range(r)])
    for i, M in enumerate(FsigN):
        th = theta[j][i]
        if th == env1.zero:
            continue
        scaled = mat([[env1.mul(th, x) for x in row] for row in M])
        acc = mat_add(env1, acc, scaled)
    if scale_p != 1:
        acc = mat([[env1.int_mul(scale_p, x) for x in row] for row in acc])
    return acc


@dataclass
class HorizontalityReport:
    passed: bool
    witnesses: list = field(default_factory=list)


def horizontality_check(ctx: NablaContext, w: Window, conn: Connection) -> HorizontalityReport:
    """Both diagrams, evaluated exactly; failures carry witnesses."""
    out = HorizontalityReport(True)
    for tag, where, res in _horizontality_residuals(ctx, w, conn):
        if any(x != ctx.env1.zero for row in res for x in row):
            out.passed = False
            out.witnesses.append((tag, where))
    return out


def solve_connection(ctx: NablaContext, w: Window, budget: int = 1 << 16):
    """The affine set of horizontal connections, as window isomorphisms.

    A connection is the isomorphism eps = 1 + nabla from pbar0^* w to
    pbar1^* w over D(1)_2: D-part the identity, K-part the N_i.  So this is
    the hom system of `windows.hom_affine` with side rows that pin the
    D-coordinates of eps to the identity; the free unknowns are its
    K-coordinates and the divided-Frobenius witnesses.  The budget bounds
    the square of the K-coordinate count (WindowBudgetError).

    Returns (particular, homogeneous_generators) or None when empty.  The
    generators are the decoded `SpanNF.reduced_basis()` of the homogeneous
    K-coordinate span and the particular solution is reduced modulo it, so
    neither depends on the column layout.  Each produced connection is
    certified by `horizontality_check`, the independent residual encoding.
    """
    sz = ctx.square_zero
    w0, w1 = _pullbacks(sz, w)
    env, env1, k, r = ctx.env, ctx.env1, ctx.diff.k, w.rank
    nc, n1 = sz.A.coord_count(), env1.n
    # entry e = a*r + b of eps is diagonal iff e is a multiple of r + 1
    ones = [env.coords(env.zero if e % (r + 1) else env.one) for e in range(r * r)]
    select = np.eye(r * r * nc, dtype=np.int64)[[e * nc + c for e in range(r * r) for c in range(env.n)]]
    sol = hom_affine(w0, w1, select, [x for cs in ones for x in cs], budget=budget)
    if sol is None:
        return None
    # the K-coordinates of eps, N_i[a][b] in the order (i, a, b)
    starts = [e * nc + env.n + i * n1 for i in range(k) for e in range(r * r)]

    def k_coords(vec):
        return [x for s in starts for x in vec[s : s + n1]]

    def decode(flat):
        blocks = (list(flat[s : s + n1]) for s in range(0, len(flat), n1))
        mats = [[[env1.reduce(next(blocks)) for b in range(r)] for a in range(r)] for i in range(k)]
        return Connection(w, tuple(map(mat, mats)))

    nf = SpanNF(k * r * r * n1, env1.p, env1.m)
    for g in sol[1]:
        nf.insert(k_coords(g))
    particular = decode(nf.reduce(k_coords(sol[0])))
    zero = zero_connection(ctx, w)
    gens = [g for g in map(decode, nf.reduced_basis()) if g != zero]
    for conn in produced_connections(ctx, w, (particular, gens), bound=len(gens)):
        if not horizontality_check(ctx, w, conn).passed:
            raise AssertionError("connection solver produced a non-horizontal connection; solver defect")
    return particular, gens


def produced_connections(ctx: NablaContext, w: Window, solution, bound: int = 8):
    """The explicit finite list a solver result stands for: the particular
    solution plus its shifts by single homogeneous generators (budgeted)."""
    if solution is None:
        return []
    particular, gens = solution
    env1 = ctx.env1
    out = [particular]
    for g in gens[:bound]:
        shifted = tuple(
            mat_add(env1, M, G) for M, G in zip(particular.matrices, g.matrices)
        )
        out.append(Connection(w, shifted))
    return out


@dataclass
class IntegrabilityReport:
    integrable: bool
    curvature_zero: bool
    nilpotence_indices: list
    note: str = ""


def integrability_and_qnilpotence(ctx: NablaContext, w: Window, conn: Connection, bound: int | None = None) -> IntegrabilityReport:
    """G = nabla(nabla) = 0 exactly, and each N_i nilpotent mod p.

    Curvature components K_{ij} = d_i N_j - d_j N_i + N_i N_j - N_j N_i are
    evaluated two degrees down (each d costs one cap digit).  Per the
    divided-power lemma these must hold for every horizontal connection, so
    a failure here is a defect, not a finding.
    """
    if ctx.env.cap < 4:
        raise PDError("curvature needs cap >= 4")
    env1 = ctx.env1
    env2 = PDAlgebra(
        PDPresentation(
            ctx.env.p, ctx.env.m, ctx.env.pres.variables, ctx.env.gens, ctx.env.cap - 2, ctx.env.pres.tau
        )
    )
    diff1 = PDDifferential(env1)

    def to2(x):
        return env1.truncate_to(env2, x)

    k = ctx.diff.k
    r = w.rank
    curv_zero = True
    for i in range(k):
        for j in range(i + 1, k):
            Ni, Nj = conn.matrices[i], conn.matrices[j]
            dNj_i = mat([[to2(diff1.d(x)[i]) for x in row] for row in Nj])
            dNi_j = mat([[to2(diff1.d(x)[j]) for x in row] for row in Ni])
            Ni2 = mat_map(to2, Ni)
            Nj2 = mat_map(to2, Nj)
            comm = mat_sub(env2, mat_mul(env2, Ni2, Nj2), mat_mul(env2, Nj2, Ni2))
            K = mat_add(env2, mat_sub(env2, dNj_i, dNi_j), comm)
            if any(x != env2.zero for row in K for x in row):
                curv_zero = False
    indices = []
    nilpotent_all = True
    if bound is None:
        bound = r * len(env1.basis) + 2
    for Ni in conn.matrices:
        X = Ni
        idx = None
        for s in range(1, bound + 1):
            if all(all(c % env1.p == 0 for c in x) for row in X for x in row):
                idx = s
                break
            X = mat_mul(env1, Ni, X)
        if idx is None:
            nilpotent_all = False
            indices.append(None)
        else:
            indices.append(idx)
    return IntegrabilityReport(curv_zero and nilpotent_all, curv_zero, indices)


# -- the square-zero frame D(1)_2 ---------------------------------------------------


class SquareZeroCarrier:
    """D + Omega with (a,w)(a',w') = (aa', a w' + a' w); K = Omega, K^2 = 0.

    Elements are pairs (env element, tuple of k env1 elements).  The carrier
    implements the full coordinate protocol, so the generic window and hom
    machinery runs over it unchanged.
    """

    def __init__(self, frame: PDFrame, diff: PDDifferential):
        self.base_frame = frame
        self.env = frame.env
        self.diff = diff
        self.env1 = diff.env1
        self.k = diff.k
        self.p = self.env.p
        self.m = self.env.m
        self.mod = self.env.mod
        self.n = self.env.n + self.k * self.env1.n

    @property
    def zero(self):
        return (self.env.zero, (self.env1.zero,) * self.k)

    @property
    def one(self):
        return (self.env.one, (self.env1.zero,) * self.k)

    def add(self, x, y):
        return (
            self.env.add(x[0], y[0]),
            tuple(self.env1.add(a, b) for a, b in zip(x[1], y[1])),
        )

    def neg(self, x):
        return (self.env.neg(x[0]), tuple(self.env1.neg(a) for a in x[1]))

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        a, w1 = x
        b, w2 = y
        abar = self.env.truncate_to(self.env1, a)
        bbar = self.env.truncate_to(self.env1, b)
        return (
            self.env.mul(a, b),
            tuple(
                self.env1.add(self.env1.mul(abar, v), self.env1.mul(bbar, u))
                for u, v in zip(w1, w2)
            ),
        )

    def embed_int(self, c):
        return (self.env.embed_int(c), (self.env1.zero,) * self.k)

    def int_mul(self, c, x):
        return (self.env.int_mul(c, x[0]), tuple(self.env1.int_mul(c, a) for a in x[1]))

    def equal(self, x, y):
        return x == y

    def is_unit(self, x):
        return self.env.is_unit(x[0])

    def inv(self, x):
        a, w = x
        ai = self.env.inv(a)
        ai1 = self.env.truncate_to(self.env1, ai)
        sq = self.env1.mul(ai1, ai1)
        return (ai, tuple(self.env1.neg(self.env1.mul(sq, u)) for u in w))

    # -- coordinates ------------------------------------------------------------

    def coords(self, x):
        out = list(self.env.coords(x[0]))
        for u in x[1]:
            out.extend(self.env1.coords(u))
        return tuple(out)

    def from_coords(self, cs):
        a = self.env.reduce(list(cs[: self.env.n]))
        omega = []
        for i in range(self.k):
            base = self.env.n + i * self.env1.n
            omega.append(self.env1.reduce(list(cs[base : base + self.env1.n])))
        return (a, tuple(omega))

    def coord_count(self):
        return self.n

    def coord_precision(self):
        return self.m

    def size(self) -> int:
        return self.env.size() * self.env1.size() ** self.k

    def _unit_vec(self, i, c=1):
        v = [0] * self.n
        v[i] = c % self.mod
        return self.from_coords(v)

    def module_spanning(self):
        return [self._unit_vec(i) for i in range(self.n)]

    def t_indices(self):
        out = list(self.env.t_indices())
        out += list(range(self.env.n, self.n))  # all Omega coordinates
        return out

    def mu_indices(self):
        return list(self.env.mu_indices())

    def sigma1_cert(self, i):
        """Certified sigma1 of a T-type coordinate basis element."""
        if i < self.env.n:
            return self.coords((self.env.sigma1_cert(i), (self.env1.zero,) * self.k))
        slot = (i - self.env.n) // self.env1.n
        cidx = (i - self.env.n) % self.env1.n
        omega = [self.env1.zero] * self.k
        omega[slot] = self.env1._unit_vec(cidx)
        img = self.diff.dsigma1(tuple(omega))
        return self.coords((self.env.zero, tuple(img)))

    @cached_property
    def relations(self) -> SpanNF:
        """The relation span of the coordinates, built on first use: that of
        env on the D-part, then that of env1 on each Omega slot."""
        nf = SpanNF(self.n, self.p, self.m)
        slots = [(0, self.env)] + [(self.env.n + i * self.env1.n, self.env1) for i in range(self.k)]
        for s, alg in slots:
            for r in alg.relations.basis():
                nf.insert([0] * s + list(r) + [0] * (self.n - s - len(r)))
        return nf


class SquareZeroFrame(Frame):
    """The frame on D(1)_2 with sigma1 = (sigma1, (dsigma)1) on Ibar + K."""

    kind = "squarezero"

    def __init__(self, base: PDFrame, diff: PDDifferential | None = None):
        diff = diff or PDDifferential(base.env)
        carrier = SquareZeroCarrier(base, diff)
        super().__init__(carrier, base.p, base.depth)
        self.base_frame = base
        self.diff = diff
        self.name = f"squarezero({base.name})"
        self.p_elt = carrier.embed_int(base.p)

    def sigma(self, x):
        a, w = x
        return (self.base_frame.sigma(a), tuple(self.diff.dsigma(tuple(w))))

    def ideal_contains(self, x):
        return self.base_frame.ideal_contains(x[0])

    def sigma1(self, x):
        a, w = x
        return (self.base_frame.sigma1(a), tuple(self.diff.dsigma1(tuple(w))))

    def ideal_spanning(self, budget: int = 4096):
        out = [
            (g, (self.diff.env1.zero,) * self.A.k)
            for g in self.base_frame.ideal_spanning(budget)
        ]
        for i in range(self.A.k):
            for j in range(self.diff.env1.n):
                omega = [self.diff.env1.zero] * self.A.k
                omega[i] = self.diff.env1._unit_vec(j)
                out.append((self.base_frame.env.zero, tuple(omega)))
        return out[:budget]

    def sample_elements(self, k: int, seed: int = 0):
        base = self.base_frame.sample_elements(k, seed)
        out = [(a, (self.diff.env1.zero,) * self.A.k) for a in base]
        for i, a in enumerate(base):
            omega = [self.diff.env1.zero] * self.A.k
            omega[i % self.A.k] = self.diff.env1.one
            out.append((a, tuple(omega)))
        return out[: max(k, 4)]

    def eq_mod_p(self, x, y):
        d = self.A.sub(x, y)
        return all(c % self.p == 0 for c in self.A.coords(d))


def square_zero_frame(base: PDFrame, diff: PDDifferential | None = None) -> SquareZeroFrame:
    fr = SquareZeroFrame(base, diff)
    # self-test: sigma1 on K is (dsigma)1 and p*sigma1 = sigma there
    env1 = fr.diff.env1
    for i in range(fr.A.k):
        for j in range(min(env1.n, 8)):
            omega = [env1.zero] * fr.A.k
            omega[i] = env1._unit_vec(j)
            x = (fr.base_frame.env.zero, tuple(omega))
            lhs = fr.sigma1(x)
            want = (fr.base_frame.env.zero, tuple(fr.diff.dsigma1(tuple(omega))))
            if lhs != want:
                raise PDError("sigma1 on K does not match (dsigma)1")
            if fr.A.int_mul(fr.p, lhs) != fr.sigma(x):
                raise PDError("p sigma1 != sigma on K")
    return fr


def pbar0(fr: SquareZeroFrame) -> FrameHom:
    """a -> (a, da): the first structural map, a frame homomorphism."""
    base = fr.base_frame
    diff = fr.diff

    def fn(a):
        return (a, tuple(diff.d(a)))

    return FrameHom(base, fr, fn=fn, name="pbar0", section=lambda x: x[0])


def pbar1(fr: SquareZeroFrame) -> FrameHom:
    """a -> (a, 0): the second structural map."""
    base = fr.base_frame
    z = (fr.diff.env1.zero,) * fr.A.k

    def fn(a):
        return (a, z)

    return FrameHom(base, fr, fn=fn, name="pbar1", section=lambda x: x[0])


def _pullbacks(sz: SquareZeroFrame, w: Window):
    """pbar0^* w and pbar1^* w, the source and target of eps."""
    return base_change(pbar0(sz), w), base_change(pbar1(sz), w)


def connection_to_stratification(ctx: NablaContext, w: Window, conn: Connection):
    """eps(x) = x + nabla(x) as a window isomorphism pbar0^* w -> pbar1^* w.

    Raises when the input is not horizontal (the certificate fails).
    """
    sz = ctx.square_zero
    w0, w1 = _pullbacks(sz, w)
    r = w.rank
    env1 = ctx.env1
    E = []
    for a in range(r):
        row = []
        for b in range(r):
            omega = tuple(conn.matrices[i][a][b] for i in range(ctx.diff.k))
            diag = ctx.env.one if a == b else ctx.env.zero
            row.append((diag, omega))
        E.append(row)
    E = mat(E)
    if not is_window_hom(w0, w1, E):
        raise WindowError("eps fails the window axioms: input connection not horizontal")
    if not is_invertible(sz.A, E):
        raise WindowError("eps is not invertible")
    return E, (w0, w1)


def stratification_to_connection(ctx: NablaContext, w: Window, E) -> Connection:
    """Extract nabla from the K-component of a window isomorphism.

    Requires eps to reduce to the identity along K and to be a window
    isomorphism; the extracted connection is re-certified horizontal.
    """
    w0, w1 = _pullbacks(ctx.square_zero, w)
    r = w.rank
    for a in range(r):
        for b in range(r):
            want = ctx.env.one if a == b else ctx.env.zero
            if E[a][b][0] != want:
                raise WindowError("eps is not filtration-compatible with the diagonal")
    if not is_window_hom(w0, w1, E):
        raise WindowError("eps is not a window homomorphism")
    mats = []
    for i in range(ctx.diff.k):
        mats.append(mat([[E[a][b][1][i] for b in range(r)] for a in range(r)]))
    conn = Connection(w, tuple(mats))
    rep = horizontality_check(ctx, w, conn)
    if not rep.passed:
        raise WindowError("extracted connection fails horizontality")
    return conn
