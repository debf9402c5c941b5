"""Exact linear algebra over Z/p^m: triangular canonical forms.

Z/p^m is local, so a Smith-style diagonalization only ever needs the entry
of minimal p-valuation as pivot.  Everything a module computation needs --
kernels, solving, span membership, quotient structure, unique normal forms
-- reduces to the elimination core `_eliminate` or to the Howell-style row
span `SpanNF`.  A span that is a direct sum over a grading of the columns is
a `GradedSpan`, one `SpanNF` per grade: many small blocks, brought to their
reduced Howell forms in one stacked pass (`extend_stacked`; Howell, "Spans
in the module (Z_m)^s", 1986), diagonalized in one stacked `_eliminate`
(`_smith_forms`) and reduced in one stacked pass (`reduce_stacked`).
`SpanNF.insert` adds one row at a time, for callers that grow a span so.

`_eliminate` is the one elimination loop.  It diagonalizes a stack of N
matrices stored along the last axis of a numpy array.  `batch_kernel` runs
it on the many small systems of the window-hom sweep; `diagonalize`,
`kernel_basis` and `solve` run it on one system (N = 1).  The column
transform V always comes out.  The row transform acts only on an array the
caller passes in: `diagonalize` passes the identity to get U, `solve` its
right-hand side to get U*rhs (`solve_affine` takes the kernel from the
same elimination).  Kernels never build U.

Layout: `_eliminate` holds the systems on the last axis, (r, c, N), so
every step is a contiguous pass over all N systems.  `batch_kernel` keeps
its (N, r, c) interface: a caller that builds its stack system-last (the
lemma sweep does) passes the `transpose(2, 0, 1)` view, whose one copy
into the work dtype then reads memory in order; any other stack is
transposed by that copy.  Its outputs are views of the system-last results,
the generators in the work dtype and the pivot exponents in int64.

Work dtype: every intermediate lies within (p^m - 1)^2 + p^m of zero, so
int16 serves p^m <= 181, int32 p^m <= 46,341 and int64 p^m <= 3,037,000,500.
Beyond that (a PD frame at precision 40, say) the arrays hold Python ints
(dtype object), so the arithmetic stays exact at any modulus; inputs are
reduced as Python ints there too, since numpy's int64 `%` overflows at
such a modulus even when every entry fits int64.  Valuations
and unit inverses come from lookup tables for p^m <= 2^16 and from gcd and
pow above.

The pure-Python scalar elimination that came before lives on in
tests/test_linalg.py as the oracle: `diagonalize`, `kernel_basis`, `solve`
and `batch_kernel` must reproduce its outputs bit for bit.
"""

from __future__ import annotations

import functools

import numpy as np

_TABLE_MAX = 1 << 16  # largest modulus whose valuations and inverses are tabled


def _val(a: int, p: int, m: int) -> int:
    if a == 0:
        return m
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


# -- one system ------------------------------------------------------------


def _one_system(mat, p: int, m: int) -> np.ndarray:
    """`mat` (rows of ints or a 2-d array) as an (r, c, 1) work-dtype stack.

    Entries are reduced mod p^m; an empty `mat` has no columns.
    """
    mod = p ** m
    r = len(mat)
    c = len(mat[0]) if r else 0
    dt = work_dtype(mod)
    if dt is object:
        A = np.array([[x % mod for x in row] for row in mat], dtype=object)
    else:
        try:
            A = np.array(mat, dtype=np.int64)
        except OverflowError:  # entries beyond int64 are reduced in Python first
            A = np.array([[x % mod for x in row] for row in mat], dtype=np.int64)
        if A.size and (A.min() < 0 or A.max() >= mod):
            A %= mod
    return A.astype(dt, order="C").reshape(r, c, 1)  # a slice may be in F order


def diagonalize(mat, p: int, m: int):
    """Return (U, D, V, evals) with U*mat*V = D diagonal, D[k][k] = p^evals[k].

    U and V are invertible over Z/p^m.  evals[k] = m encodes a zero pivot.
    `mat` is a list of lists of ints; inputs are reduced mod p^m.
    """
    A = _one_system(mat, p, m)
    r, c, _ = A.shape
    U = np.eye(r, dtype=A.dtype).reshape(r, r, 1)
    V, evals = _eliminate(A, p, m, U=U)
    evals = evals[: min(r, c), 0].tolist()
    D = [[0] * c for _ in range(r)]
    for k, e in enumerate(evals):
        if e < m:
            D[k][k] = p ** e
    return U[:, :, 0].tolist(), D, V[:, :, 0].tolist(), evals


def kernel_basis(mat, p: int, m: int):
    """Generators of {x : mat*x = 0 mod p^m} as a list of int tuples."""
    A = _one_system(mat, p, m)
    r, c, _ = A.shape
    if c == 0:
        return []
    if r == 0:
        return [tuple(1 if i == j else 0 for i in range(c)) for j in range(c)]
    return _kernel_columns(*_eliminate(A, p, m, kernel=True))


def _kernel_columns(G, evals):
    """The nonzero generators of non-unit pivots, from `_eliminate(kernel=True)`."""
    G, evals = G[:, :, 0], evals[:, 0]
    keep = (evals > 0) & (G != 0).any(axis=0)
    return [tuple(g) for g in G.T[keep].tolist()]


def solve(mat, rhs, p: int, m: int):
    """One solution of mat*x = rhs mod p^m, or None; pair with kernel_basis."""
    return _solve(mat, rhs, p, m, kernel=False)[0]


def solve_affine(mat, rhs, p: int, m: int):
    """(solve(mat, rhs), kernel_basis(mat)) from one elimination.

    The right-hand side rides along as U and never steers the pivoting, so
    the column transform and pivot exponents are those `kernel_basis`
    computes, and so are the generators, bit for bit.
    """
    return _solve(mat, rhs, p, m, kernel=True)


def _solve(mat, rhs, p: int, m: int, kernel: bool):
    mod = p ** m
    A = _one_system(mat, p, m)
    r, c, _ = A.shape
    if r == 0:
        return (), []
    y = _one_system([[b] for b in rhs], p, m)
    V, evals = _eliminate(A, p, m, U=y)
    gens = []
    if kernel and c:
        G = V.copy()
        _scale_to_kernel(G, evals, p, m, mod_reducer(mod, np.empty_like(G)))
        gens = _kernel_columns(G, evals)
    y, evals = y[:, 0, 0].tolist(), evals[:, 0].tolist()
    z = [0] * c
    for i in range(r):
        e = evals[i] if i < c else m
        if e >= m:
            if y[i]:
                return None, gens
            continue
        pe = p ** e
        if y[i] % pe:
            return None, gens
        z[i] = y[i] // pe
    x = np.zeros(c, dtype=A.dtype)
    for j, zj in enumerate(z):
        if zj:
            x = (x + V[:, j, 0] * zj) % mod
    return tuple(x.tolist()), gens


class SpanNF:
    """Howell-style echelon form of a row span over Z/p^m.

    Supports exact span membership and unique normal forms of cosets: after
    `reduce`, the entry at a pivot column with pivot p^e lies in [0, p^e).
    The stored rows are closed under multiplication by p^{m-e}, which is
    what makes membership-by-reduction complete over Z/p^m.

    `reduce`, `reduced_basis()`, `smith()`, `membership_rows()` and
    `p_torsion()` are canonical: they depend only on the span.  `basis()` is
    not: `insert` never reduces a stored row at pivot columns placed after
    it, so the same span inserted in another order can give other rows.
    `extend_stacked` stores the reduced Howell form, so right after it
    `basis()` is `reduced_basis()`; a later `insert` works on it as on any
    other span.
    """

    def __init__(self, ncols: int, p: int, m: int):
        self.ncols = ncols
        self.p = p
        self.m = m
        self.mod = p ** m
        self.rows: dict[int, tuple[int, list[int]]] = {}  # lead -> (e, row)
        self._smith = None  # smith(), until the next insert

    def insert(self, vec) -> None:
        self._smith = None
        vec = [x % self.mod for x in vec]
        queue = [vec]
        while queue:
            v = queue.pop()
            lead = next((i for i, x in enumerate(v) if x), None)
            while lead is not None:
                e = _val(v[lead], self.p, self.m)
                if lead not in self.rows:
                    pe = self.p ** e
                    unit = v[lead] // pe
                    w = pow(unit, -1, self.mod)
                    row = [(w * x) % self.mod for x in v]
                    self.rows[lead] = (e, row)
                    if e > 0:
                        scale = self.p ** (self.m - e)
                        queue.append([(scale * x) % self.mod for x in row])
                    self._interreduce(lead)
                    lead = None
                else:
                    e0, row0 = self.rows[lead]
                    if e >= e0:
                        f = v[lead] // (self.p ** e0)
                        v = [(a - f * b) % self.mod for a, b in zip(v, row0)]
                        lead = next((i for i, x in enumerate(v) if x), None)
                    else:
                        # the new vector has the better pivot; swap them in
                        pe = self.p ** e
                        unit = v[lead] // pe
                        w = pow(unit, -1, self.mod)
                        newrow = [(w * x) % self.mod for x in v]
                        self.rows[lead] = (e, newrow)
                        if e > 0:
                            scale = self.p ** (self.m - e)
                            queue.append([(scale * x) % self.mod for x in newrow])
                        queue.append(row0)
                        self._interreduce(lead)
                        lead = None

    def _interreduce(self, lead: int) -> None:
        """Re-reduce other rows against a freshly (re)placed pivot row.

        A row with lead l2 can only meet the new pivot at a column lead > l2,
        so reduction never disturbs its own lead; rows whose entry at `lead`
        has smaller valuation than the pivot are displaced and re-inserted.
        """
        e, row = self.rows[lead]
        pe = self.p ** e
        displaced = []
        for l2 in list(self.rows):
            if l2 == lead:
                continue
            e2, row2 = self.rows[l2]
            if row2[lead]:
                if _val(row2[lead], self.p, self.m) >= e:
                    f = row2[lead] // pe
                    self.rows[l2] = (
                        e2,
                        [(a - f * b) % self.mod for a, b in zip(row2, row)],
                    )
                else:
                    del self.rows[l2]
                    displaced.append(row2)
        for v in displaced:
            self.insert(v)

    def reduce(self, vec):
        """Canonical representative of vec modulo the span."""
        v = [x % self.mod for x in vec]
        for lead in sorted(self.rows):
            e, row = self.rows[lead]
            if v[lead]:
                q = v[lead] // (self.p ** e)
                if q:
                    v = [(a - q * b) % self.mod for a, b in zip(v, row)]
        return tuple(v)

    def reduce_rows(self, vecs) -> np.ndarray:
        """`reduce` of every row of the integer array `vecs`, by `reduce_stacked`."""
        mod = self.mod
        if exact_dtype(mod**2) is object:  # numpy's int64 % would overflow at this modulus
            X = np.array([[x % mod for x in v] for v in vecs], dtype=object)
        else:
            X = np.asarray(vecs) % mod
        return reduce_stacked([self], np.zeros(len(X), dtype=np.intp), X.reshape(len(X), self.ncols))

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def basis(self):
        return [tuple(row) for _, (e, row) in sorted(self.rows.items())]

    def reduced_basis(self):
        """`basis` with each row reduced at the later pivot columns.

        Entries at a pivot column with pivot p^e land in [0, p^e), so the
        result depends only on the span, not on the insertion order (the
        rows of `basis` do depend on it).
        """
        rows = dict(sorted(self.rows.items()))
        out = {}
        for lead in reversed(rows):
            row = rows[lead][1]
            for l2 in out:
                q = row[l2] // self.p ** rows[l2][0]
                if q:
                    row = [(a - q * b) % self.mod for a, b in zip(row, out[l2])]
            out = {lead: row, **out}
        return [tuple(row) for row in out.values()]

    def pivots(self):
        return {lead: e for lead, (e, row) in self.rows.items()}

    def smith(self):
        """(U, R, V, evals): the Smith form U R V = D of R = `reduced_basis()`.

        `diagonalize` of R (Storjohann-Mulders, "Fast algorithms for linear
        algebra modulo N", 1998), through `_smith_forms`; the empty span is
        one zero row, whose V is the identity.  evals has ncols entries, m
        past the rank, and the quotient (Z/p^m)^ncols / span is the sum of
        the Z/p^(e_j).  Cached until the next `insert`.
        """
        if self._smith is None:
            _smith_forms([self])
        return self._smith

    def membership_rows(self):
        """Rows T with x in the span exactly when T*x = 0 mod p^m.

        From `smith()`: x lies in the row span of R exactly when (x V)_j is
        divisible by p^(e_j) for every j, that is when p^(m - e_j) (x V)_j
        = 0.  T holds the nonzero rows p^(m - e_j) V[:, j], those with
        e_j >= 1, so the empty span gives the identity.
        """
        p, m = self.p, self.m
        _, _, V, evals = self.smith()
        return tuple(
            tuple(p ** (m - e) * row[j] % self.mod for row in V)
            for j, e in enumerate(evals)
            if e > 0
        )

    def p_torsion(self):
        """Generators of the p-torsion of (Z/p^m)^ncols / span beyond p^(m-1).

        From `smith()`: row j of U R is p^(e_j) times row j of V^-1, so
        t_j = (U R)_j / p has p t_j in the span, and for 1 <= e_j < m it
        generates the p-torsion of the factor Z/p^(e_j).  A free factor
        (e_j = m) has only the p^(m-1) multiples, the artifact of working
        mod p^m.  So these t_j, one per factor, generate the kernel of p
        modulo span + p^(m-1)(Z/p^m)^ncols, and none of them lies in it.
        The products are exact (int64, or Python ints past it).  Returned
        in normal form (`reduce`), in the order of the factors.
        """
        p, m, mod = self.p, self.m, self.mod
        U, R, _, evals = self.smith()
        rows = [U[j] for j, e in enumerate(evals) if 0 < e < m]
        if not rows:
            return []
        dt = exact_dtype(len(R) * (mod - 1) ** 2)
        UR = np.array(rows, dtype=dt) @ np.array(R, dtype=dt) % mod
        return [tuple(t) for t in self.reduce_rows(UR // p).tolist()]


class GradedSpan:
    """A row span over Z/p^m that is the direct sum of its graded pieces.

    Each column has a grade.  A span of homogeneous rows (nonzero entries
    of one grade) is the direct sum of its grades' spans, kept as one
    `SpanNF` per grade over that grade's columns in ascending order; a row
    meeting two grades is refused.  A `SpanNF` keeps a homogeneous row in
    its grade, so with the same rows in the same order per grade, `reduce`,
    `basis()`, `reduced_basis()` and `pivots()` are the flat span's, byte
    for byte.  `extend_stacked(blocks, ...)` adds rows in block coordinates
    to many blocks at once.  The Smith form of the sum is the blocks' Smith
    forms, from one `_smith_forms` pass in place of one ncols x ncols
    `diagonalize`; `membership_rows()` and `p_torsion()` are the blocks'
    own, embedded.
    """

    def __init__(self, grades, p: int, m: int):
        self.ncols, self.p, self.m, self.mod = len(grades), p, m, p ** m
        ids: dict = {}
        self.gid = [ids.setdefault(g, len(ids)) for g in grades]  # block of each column
        self.grades = list(ids)
        self.columns: list[list[int]] = [[] for _ in ids]  # global columns of each block
        self.local = []  # place of each column in its block
        for i, g in enumerate(self.gid):
            self.local.append(len(self.columns[g]))
            self.columns[g].append(i)
        self.blocks = [SpanNF(len(cols), p, m) for cols in self.columns]
        self.width = max(map(len, self.columns), default=0)

    def split(self, vec):
        """(block, row in block coordinates) of a nonzero homogeneous row."""
        touched = {self.gid[i] for i, x in enumerate(vec) if x % self.mod}
        if len(touched) != 1:
            raise ValueError(f"row meets the grades {sorted(self.grades[g] for g in touched)}")
        g = touched.pop()
        return g, tuple(vec[i] for i in self.columns[g])

    def insert(self, vec) -> None:
        if any(x % self.mod for x in vec):
            g, row = self.split(vec)
            self.blocks[g].insert(row)

    def reduce(self, vec):
        v = [x % self.mod for x in vec]
        for g in {self.gid[i] for i, x in enumerate(v) if x}:
            if self.blocks[g].rows:
                cols = self.columns[g]
                for i, x in zip(cols, self.blocks[g].reduce([v[i] for i in cols])):
                    v[i] = x
        return tuple(v)

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def _embed(self, g: int, row):
        v = [0] * self.ncols
        for i, x in zip(self.columns[g], row):
            v[i] = x
        return tuple(v)

    def local_basis(self, rows_of=SpanNF.basis):
        """(block, row in block coordinates) for every block's rows, by global lead."""
        rows = [
            (self.columns[g][next(i for i, x in enumerate(row) if x)], g, row)
            for g, blk in enumerate(self.blocks)
            for row in rows_of(blk)
        ]
        return [(g, row) for _, g, row in sorted(rows, key=lambda r: r[0])]

    def basis(self):
        return [self._embed(g, row) for g, row in self.local_basis()]

    def reduced_basis(self):
        return [self._embed(g, row) for g, row in self.local_basis(SpanNF.reduced_basis)]

    def pivots(self):
        return {self.columns[g][at]: e for g, b in enumerate(self.blocks) for at, e in b.pivots().items()}

    def smith(self):
        """Every block's `SpanNF.smith()`; those not cached come from one `_smith_forms`."""
        todo = [b for b in self.blocks if b._smith is None]
        if todo:
            _smith_forms(todo)
        return [b._smith for b in self.blocks]

    def smith_exponents(self):
        """The Smith exponents of the whole span, ascending, m past its rank."""
        return sorted(e for *_, evals in self.smith() for e in evals)

    def membership_rows(self):
        """Rows T with x in the span exactly when T*x = 0 mod p^m: the blocks' own."""
        self.smith()
        return tuple(self._embed(g, t) for g, b in enumerate(self.blocks) for t in b.membership_rows())

    def p_torsion(self):
        """The blocks' `SpanNF.p_torsion()`, embedded, sorted stably by factor order."""
        found = [
            (e, self._embed(g, t))
            for g, (b, (*_, evals)) in enumerate(zip(self.blocks, self.smith()))
            for e, t in zip([e for e in evals if 0 < e < self.m], b.p_torsion())
        ]
        return [t for _, t in sorted(found, key=lambda f: f[0])]


def reduce_stacked(spans, which, X) -> np.ndarray:
    """`reduce` of each row X[k] modulo the SpanNF spans[which[k]], all at once.

    The spans share p and m (the blocks of a `GradedSpan`, say, with X in
    block coordinates).  X has entries in [0, p^m) and the widest span's
    width; a narrower span's rows end in zeros.  Step t applies the t-th
    pivot row of every span, in lead order, to all rows at once, as
    `SpanNF.reduce` does to one row; a span with fewer pivots has a zero
    row there, with divisor p^m.
    """
    p, mod = spans[0].p, spans[0].mod
    dt, w = exact_dtype(mod**2), X.shape[1]
    steps = [
        (g, t, at, p**e, row) for g, s in enumerate(spans) for t, (at, (e, row)) in enumerate(sorted(s.rows.items()))
    ]
    shape = (len(spans), max((t + 1 for _, t, *_ in steps), default=0))
    lead, div, R = np.zeros(shape, dtype=np.intp), np.full(shape, mod, dtype=dt), np.zeros(shape + (w,), dtype=dt)
    if steps:
        g, t, at, pe, rows = zip(*steps)
        lead[g, t], div[g, t] = at, pe
        R[g, t] = np.array([row + [0] * (w - len(row)) for row in rows], dtype=dt)
    X = X.astype(dt)
    at = np.arange(len(X))
    for t in range(shape[1]):
        X -= (X[at, lead[which, t]] // div[which, t])[:, None] * R[which, t]
        X %= mod
    return X


def extend_stacked(spans, which, X) -> None:
    """Add each row X[k] to the SpanNF spans[which[k]], all spans at once.

    X has entries in [0, p^m) and at least the widest receiving span's width
    (a narrower span's rows end in zeros).  Each receiving span gets the
    reduced Howell form (Howell, 1986) of its old and new rows, from one pass
    over their padded stack H, (spans, rows + c, c) in the work dtype of p^m:
    for each column k, in all stacks at once, the first row of minimal
    valuation e leaves H as the pivot row, normalised to p^e at k; k is
    cleared from the other rows; and p^(m-e) times the pivot row, zero at k,
    joins them in a spare row.  Then each pivot row is reduced above the
    later pivots, in ascending order.  So a loaded span's `basis()` is its
    `reduced_basis()`, which depends only on the span.
    """
    if not len(which):
        return
    p, m = spans[0].p, spans[0].m
    mod = p ** m
    touched, at = np.unique(which, return_inverse=True)
    subs = [spans[g] for g in touched]
    old = [s.basis() for s in subs]
    n_old = np.array([len(rows) for rows in old], dtype=np.intp)
    count = np.bincount(at, minlength=len(subs))
    N, r, c = len(subs), int((n_old + count).max()), max(s.ncols for s in subs)
    H = np.zeros((N, r + c, c), dtype=work_dtype(mod))  # row r + k takes p^(m-e) times pivot row k
    for i, rows in enumerate(old):
        if rows:
            H[i, : len(rows), : len(rows[0])] = rows
    order = np.argsort(at, kind="stable")
    H[at[order], n_old[at[order]] + np.arange(len(at)) - np.repeat(np.cumsum(count) - count, count)] = X[order, :c]
    if mod <= _TABLE_MAX:
        val_tab, inv_tab, ppow = tables(p, m)
        val, inv = val_tab.take, inv_tab.take
    else:
        val, inv, ppow = _computed_ops(p, m)
    reduce = mod_reducer(mod, np.empty_like(H))
    every = np.arange(N)
    P, E = np.zeros((N, c, c), dtype=H.dtype), np.full((N, c), m, dtype=np.int64)
    for k in range(c):
        v = val(H[:, :, k])
        i = v.argmin(axis=1)
        e = v[every, i]
        pe = ppow.take(e)
        row = H[every, i, k:]  # a copy
        H[every[e < m], i[e < m]] = 0
        row *= inv(row[:, 0] // pe)[:, None]  # zero where column k has no pivot
        reduce(row)
        blk = H[:, :, k:]
        blk -= (blk[:, :, 0] // pe[:, None])[:, :, None] * row[:, None]
        reduce(blk)
        spare = H[:, r + k, k:]
        np.multiply(row, ppow.take(m - e)[:, None], out=spare)
        reduce(spare)
        P[:, k, k:], E[:, k] = row, e
    for k in range(1, c):
        above = P[:, :k, k:]
        above -= (above[:, :, 0] // ppow.take(E[:, k])[:, None])[:, :, None] * P[:, k, None, k:]
        reduce(above)
    for s, rows, exps in zip(subs, P.tolist(), E.tolist()):
        s.rows = {k: (e, rows[k][: s.ncols]) for k, e in enumerate(exps[: s.ncols]) if e < m}
        s._smith = None


def _smith_forms(spans) -> None:
    """Fill the `smith()` cache of every SpanNF in `spans` (same p and m) at once.

    One `_eliminate` runs over the stack of their reduced bases (one zero row
    for an empty span), each padded with zero rows and columns to the
    largest.  A zero pad only adds exponent m and never moves a pivot, so
    each span gets the U, V and exponents `diagonalize` gives its basis.
    """
    p, m = spans[0].p, spans[0].m
    Rs = [s.reduced_basis() or [(0,) * s.ncols] for s in spans]
    A = np.zeros((len(spans), max(map(len, Rs)), max(s.ncols for s in spans)), dtype=work_dtype(p**m))
    for k, R in enumerate(Rs):
        A[k, : len(R), : len(R[0])] = R
    h = A.shape[1]
    A = A.transpose(1, 2, 0).copy()
    U = np.repeat(np.eye(h, dtype=A.dtype)[:, :, None], len(spans), axis=2)
    V, evals = _eliminate(A, p, m, U=U)
    for k, (s, R) in enumerate(zip(spans, Rs)):
        r, c = len(R), s.ncols
        s._smith = (U[:r, :r, k].tolist(), R, V[:c, :c, k].tolist(), evals[:c, k].tolist())


# -- the elimination core ----------------------------------------------------


_INT_DTYPES = [(dt, int(np.iinfo(dt).max)) for dt in (np.int16, np.int32, np.int64)]


def int_dtype(bound: int):
    """Narrowest of int16/int32/int64 holding every integer of size <= bound."""
    for dt, top in _INT_DTYPES:
        if bound <= top:
            return dt
    raise ValueError(f"{bound} does not fit in int64")


def work_dtype(mod: int):
    """Narrowest dtype holding (mod-1)^2 + mod: int16/int32/int64, else object."""
    bound = (mod - 1) ** 2 + mod
    return object if bound > _INT_DTYPES[-1][1] else int_dtype(bound)


def exact_dtype(bound: int):
    """int64 when it holds every integer of size <= bound, else object (Python ints)."""
    return object if bound > _INT_DTYPES[-1][1] else np.int64


def mod_reducer(mod: int, scratch: np.ndarray):
    """In-place x -> x mod `mod` for arrays in scratch's dtype and no larger.

    Powers of 2 reduce by `& (mod - 1)`.  Other moduli reduce by
    x -= mod * (x // mod), which clobbers `scratch`: unlike np.remainder,
    floor division by a scalar is vectorised.
    """
    if mod & (mod - 1) == 0:

        def reduce(x):
            np.bitwise_and(x, mod - 1, out=x)

    else:

        def reduce(x):
            q = scratch.reshape(-1)[: x.size].reshape(x.shape)
            np.floor_divide(x, mod, out=q)
            np.multiply(q, mod, out=q)
            np.subtract(x, q, out=x)

    return reduce


@functools.lru_cache(maxsize=None)
def tables(p: int, m: int):
    """Lookup tables (val, inv, ppow) for Z/p^m, p^m <= 2^16.

    val[a] = v_p(a) as int8 (m for a = 0); inv[a] = a^-1 for units and 0
    otherwise; ppow[e] = p^e for e = 0..m.  inv and ppow are in the work
    dtype of p^m.
    """
    mod = p ** m
    dt = work_dtype(mod)
    val = np.array([_val(a, p, m) for a in range(mod)], dtype=np.int8)
    inv = np.array([pow(a, -1, mod) if a % p else 0 for a in range(mod)], dtype=dt)
    ppow = np.array([p ** e for e in range(m + 1)], dtype=dt)
    for t in (val, inv, ppow):
        t.flags.writeable = False  # shared by every caller
    return val, inv, ppow


def _computed_ops(p: int, m: int):
    """(val, inv, ppow) as `tables` gives them, computed for moduli too big to table."""
    mod = p ** m
    dt = work_dtype(mod)
    ppow = np.array([p ** e for e in range(m + 1)], dtype=dt)

    def val(x):
        # gcd(x, p^m) = p^v_p(x), and p^m for x = 0
        return np.searchsorted(ppow, np.gcd(x, mod))

    def inv(x):
        flat = [pow(int(a), -1, mod) if a % p else 0 for a in np.ravel(x)]
        return np.array(flat, dtype=dt).reshape(np.shape(x))

    return val, inv, ppow


def _swap_pivots(A, U, V, k, systems, pi, pj):
    """Bring pivot (pi, pj) to (k, k) in the given systems only.

    A row swap touches A's trailing columns and all of U, a column swap A's
    trailing rows and all of V; the rest of A is never read again.  Each
    swap is a pair of gathers and scatters on the flat array, with the
    indices of all moved systems and entries in one (entries, systems) grid.
    """
    moved = pi != k
    if moved.any():
        s, src = systems[moved], pi[moved].astype(np.intp)
        for X, lo in ((A, k), (U, 0)):
            if X is not None:
                _, c, n = X.shape
                at = np.arange(lo, c)[:, None] * n + s
                _swap_flat(X, at + k * c * n, at + src * (c * n))
    moved = pj != k
    if moved.any():
        s, src = systems[moved], pj[moved].astype(np.intp)
        for X, lo in ((A, k), (V, 0)):
            r, c, n = X.shape
            at = np.arange(lo, r)[:, None] * (c * n) + s
            _swap_flat(X, at + k * n, at + src * n)


def _swap_flat(X, a, b):
    """Swap the entries of C-contiguous X at flat indices a and b."""
    assert X.flags.c_contiguous, "the swap must write through a view"
    flat = X.reshape(-1)
    old = flat.take(a)
    flat[a] = flat.take(b)
    flat[b] = old


def _eliminate(A, p: int, m: int, U=None, kernel: bool = False):
    """Diagonalize the systems A[:, :, n] over Z/p^m by minimal-valuation pivoting.

    A: (r, c, N) in the work dtype of p^m with entries in [0, p^m); it is
    overwritten.  Each step takes as pivot the first entry of minimal
    valuation, in row-major order, of the trailing block, as the scalar
    oracle does.  Returns (V, evals): V (c, c, N) the column transform
    (with `kernel`, column j scaled by p^(m - e_j), which makes it a kernel
    generator, 0 for a unit pivot), evals (c, N) the pivot exponents (m for
    zero pivots and columns past min(r, c)).  U, if given, is an (r, q, N)
    array in the same dtype whose rows undergo every row operation: the
    identity becomes the row transform, a right-hand side b becomes U*b.

    Only the trailing block of A is kept up to date: the column operations
    only clear the pivot row, which no later step reads.  Entries stay in
    [0, p^m) between passes.  A pass forms f*b or a - f*b with a, b in
    [0, p^m) and f in [0, p^m], then reduces x to x - p^m * floor(x / p^m)
    in place, so no intermediate exceeds p^m (p^m - 1) < (p^m - 1)^2 + p^m
    in absolute value: the work dtype holds them all.
    """
    mod = p ** m
    r, c, N = A.shape
    dt = A.dtype
    S = r * c
    key_dt = int_dtype((m + 1) * S)
    if mod <= _TABLE_MAX:
        val_tab, inv_tab, ppow = tables(p, m)
        val, inv, keys = val_tab.take, inv_tab.take, (val_tab.astype(key_dt) * S).take
    else:
        val, inv, ppow = _computed_ops(p, m)

        def keys(x):
            return val(x).astype(key_dt) * S

    V = np.zeros((c, c, N), dtype=dt)
    for j in range(c):
        V[j, j] = 1
    evals = np.full((c, N), m, dtype=np.int64)
    q = U.shape[1] if U is not None else 0
    tmp = np.empty((max(r, c), max(c, q), N), dtype=dt)
    reduce = mod_reducer(mod, tmp)  # clobbers tmp

    pos = np.arange(S, dtype=key_dt)[:, None]
    for k in range(min(r, c)):
        h, w = r - k, c - k
        # The pivot is the first entry of minimal valuation in row-major
        # order.  A unit at (k, k) is that entry, so only the systems
        # without one are searched.
        e = val(A[k, k])
        hard = np.flatnonzero(e)
        if hard.size:
            key = keys(A[k:, k:, hard]).reshape(h * w, -1)
            key += pos[: h * w]
            best = np.minimum.reduce(key, axis=0)
            e[hard] = best // S
            at = best % S
            _swap_pivots(A, U, V, k, hard, at // w + k, at % w + k)
        evals[k] = e
        if w == 1 and U is None:
            continue
        # normalise the pivot row by the unit part of its pivot p^e
        pe = ppow.take(e)
        units = inv(A[k, k] // pe)
        row = A[k, k + 1 :]
        np.multiply(row, units, out=row)
        reduce(row)
        # row multipliers: the pivot column is divisible by p^e
        col = A[k + 1 :, k]
        deep = np.flatnonzero(e)
        if deep.size:
            col[:, deep] //= pe[deep]
        if h > 1 and w > 1:
            t = tmp[: h - 1, : w - 1]
            np.multiply(col[:, None], row[None], out=t)
            blk = A[k + 1 :, k + 1 :]
            np.subtract(blk, t, out=blk)
            reduce(blk)
        if U is not None:
            units[e == m] = 1  # a zero pivot leaves the rows alone
            Uk = U[k]
            np.multiply(Uk, units, out=Uk)
            reduce(Uk)
            if h > 1:
                t = tmp[: h - 1, :q]
                np.multiply(col[:, None], Uk[None], out=t)
                blk = U[k + 1 :]
                np.subtract(blk, t, out=blk)
                reduce(blk)
        if w > 1:
            # column multipliers: the pivot row is divisible by p^e too
            g = row.copy()
            if deep.size:
                g[:, deep] //= pe[deep]
            t = tmp[:c, : w - 1]
            np.multiply(V[:, k, None], g[None], out=t)
            blk = V[:, k + 1 :]
            np.subtract(blk, t, out=blk)
            reduce(blk)
    if kernel:
        _scale_to_kernel(V, evals, p, m, reduce)
    return V, evals


def _scale_to_kernel(V, evals, p: int, m: int, reduce):
    """V[:, j] -> p^(m - e_j) V[:, j] in place, 0 for a unit pivot (e_j = 0).

    Each scaled column is a kernel generator of the diagonalized system.
    """
    ppow = np.array([p ** e for e in range(m + 1)], dtype=V.dtype)
    np.multiply(V, ppow.take(m - evals)[None], out=V)
    reduce(V)


def batch_kernel(mats: np.ndarray, p: int, m: int):
    """Kernel generators for a stack of matrices over Z/p^m.

    mats: (N, r, c) integer array; entries outside [0, p^m) are reduced
    first.  Returns (gens, evals): gens is (N, c, c) in the work dtype
    `work_dtype(p^m)`, with gens[n, :, j] a kernel generator (possibly
    zero), and evals (N, c) int64, the pivot exponents (m for free columns).

    Layout: `_eliminate` keeps the systems on the last axis, so each step is
    a few contiguous in-place passes over the trailing blocks of all N
    systems.  The input is copied once, into a C-contiguous (r, c, N)
    array in the work dtype; for an input whose memory is already
    system-last (the `transpose(2, 0, 1)` view of an (r, c, N) array) that
    copy reads memory in order.  Both outputs are transposed views of system-last arrays:
    `gens.transpose(1, 2, 0)` is a C-contiguous (c, c, N) array.
    """
    mod = p ** m
    dt = work_dtype(mod)
    mats = np.asarray(mats)
    if dt is object:  # numpy's int64 % would overflow at this modulus
        mats = mats.astype(object)
    if mats.size and (mats.min() < 0 or mats.max() >= mod):
        mats = mats % mod  # keeps the layout of mats
    A = mats.transpose(1, 2, 0).astype(dt, order="C")  # a copy: _eliminate overwrites A
    gens, evals = _eliminate(A, p, m, kernel=True)
    return gens.transpose(2, 0, 1), evals.T
