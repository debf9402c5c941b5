"""Exact linear algebra over Z/p^m: triangular canonical forms.

Z/p^m is local, so a Smith-style diagonalization only ever needs the entry
of minimal p-valuation as pivot.  Everything a module computation needs --
kernels, solving, span membership, quotient structure, unique normal forms
-- reduces to `diagonalize` or to the Howell-style row span `SpanNF`.

`batch_kernel` is a numpy re-implementation of the same pivoting scheme
over a stack of small matrices, for the pairwise window-hom sweep in
`homsweep`.  It works in the narrowest integer dtype that cannot overflow:
every intermediate lies within (p^m - 1)^2 + p^m of zero, so int16 serves
p^m <= 181, int32 serves p^m <= 46,341 and int64 the rest.  The scalar
routines are its oracle: the tests compare its pivot exponents with
`diagonalize` and its kernel spans with `kernel_basis` on every system
shape the sweep produces.
"""

from __future__ import annotations

import functools

import numpy as np


def _val(a: int, p: int, m: int) -> int:
    if a == 0:
        return m
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def diagonalize(mat, p: int, m: int):
    """Return (U, D, V, evals) with U*mat*V = D diagonal, D[k][k] = p^evals[k].

    U and V are invertible over Z/p^m.  evals[k] = m encodes a zero pivot.
    `mat` is a list of lists of ints; inputs are reduced mod p^m.
    """
    mod = p ** m
    A = [[x % mod for x in row] for row in mat]
    r = len(A)
    c = len(A[0]) if r else 0
    U = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    V = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    steps = min(r, c)
    evals = []
    for k in range(steps):
        # minimal-valuation pivot in the trailing submatrix
        best = (m + 1, k, k)
        for i in range(k, r):
            Ai = A[i]
            for j in range(k, c):
                v = _val(Ai[j], p, m)
                if v < best[0]:
                    best = (v, i, j)
            if best[0] == 0:
                break
        e, pi, pj = best
        if e >= m:
            evals.append(m)
            continue
        if pi != k:
            A[k], A[pi] = A[pi], A[k]
            U[k], U[pi] = U[pi], U[k]
        if pj != k:
            for row in A:
                row[k], row[pj] = row[pj], row[k]
            for row in V:
                row[k], row[pj] = row[pj], row[k]
        pe = p ** e
        unit = A[k][k] // pe
        w = pow(unit, -1, mod)
        A[k] = [(w * x) % mod for x in A[k]]
        U[k] = [(w * x) % mod for x in U[k]]
        for i in range(r):
            if i == k:
                continue
            f = A[i][k] // pe
            if f:
                Ak, Ai, Uk, Ui = A[k], A[i], U[k], U[i]
                for j in range(c):
                    Ai[j] = (Ai[j] - f * Ak[j]) % mod
                for j in range(r):
                    Ui[j] = (Ui[j] - f * Uk[j]) % mod
        for j in range(k + 1, c):
            g = A[k][j] // pe
            if g:
                for i in range(r):
                    A[i][j] = (A[i][j] - g * A[i][k]) % mod
                for i in range(c):
                    V[i][j] = (V[i][j] - g * V[i][k]) % mod
        evals.append(e)
    return U, A, V, evals


def kernel_basis(mat, p: int, m: int):
    """Generators of {x : mat*x = 0 mod p^m} as a list of int tuples."""
    r = len(mat)
    c = len(mat[0]) if r else 0
    if c == 0:
        return []
    if r == 0:
        return [tuple(1 if i == j else 0 for i in range(c)) for j in range(c)]
    mod = p ** m
    _, _, V, evals = diagonalize(mat, p, m)
    gens = []
    for j in range(c):
        e = evals[j] if j < len(evals) else m
        scale = p ** (m - e) if e > 0 else None
        if scale is None:
            continue
        col = tuple((V[i][j] * scale) % mod for i in range(c))
        if any(col):
            gens.append(col)
    return gens


def solve(mat, rhs, p: int, m: int):
    """One solution of mat*x = rhs mod p^m, or None; pair with kernel_basis."""
    mod = p ** m
    r = len(mat)
    c = len(mat[0]) if r else 0
    U, _, V, evals = diagonalize(mat, p, m)
    y = [sum(U[i][k] * rhs[k] for k in range(r)) % mod for i in range(r)]
    z = [0] * c
    for i in range(r):
        e = evals[i] if i < len(evals) else m
        if e >= m:
            if y[i] % mod:
                return None
            continue
        pe = p ** e
        if y[i] % pe:
            return None
        z[i] = y[i] // pe
    x = [sum(V[i][j] * z[j] for j in range(c)) % mod for i in range(c)]
    return tuple(x)


class SpanNF:
    """Howell-style echelon form of a row span over Z/p^m.

    Supports exact span membership and unique normal forms of cosets: after
    `reduce`, the entry at a pivot column with pivot p^e lies in [0, p^e).
    The stored rows are closed under multiplication by p^{m-e}, which is
    what makes membership-by-reduction complete over Z/p^m.

    `reduce` and `reduced_basis()` are canonical: they depend only on the
    span.  `basis()` is not: a stored row is never reduced at pivot columns
    placed after it, so the same span inserted in another order can give
    other rows.
    """

    def __init__(self, ncols: int, p: int, m: int):
        self.ncols = ncols
        self.p = p
        self.m = m
        self.mod = p ** m
        self.rows: dict[int, tuple[int, list[int]]] = {}  # lead -> (e, row)

    def insert(self, vec) -> None:
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


def quotient_factor_orders(rel_rows, ncols: int, p: int, m: int):
    """Cyclic factor orders of (Z/p^m)^ncols / row-span(rel_rows).

    The factor at a relation pivot p^e is Z/p^e; columns without a pivot
    contribute full Z/p^m factors.  Order-1 factors are dropped.
    """
    mod = p ** m
    if not rel_rows:
        return [mod] * ncols
    _, _, _, evals = diagonalize(rel_rows, p, m)
    orders = []
    for j in range(ncols):
        e = evals[j] if j < len(evals) else m
        order = p ** e
        if order > 1:
            orders.append(order)
    return orders


def p_torsion_of_quotient(rel_rows, ncols: int, p: int, m: int):
    """Generators of the p-torsion of (Z/p^m)^ncols / row-span(rel_rows).

    Returns vectors t (reduced to span normal form, nonzero) with p*t in
    the span.  The whole kernel of multiplication-by-p is generated by the
    returned vectors together with the span itself.
    """
    mod = p ** m
    k = len(rel_rows)
    # variables (t, lambda): p*t - lambda*rel = 0
    mat = [[0] * (ncols + k) for _ in range(ncols)]
    for i in range(ncols):
        mat[i][i] = p
        for s in range(k):
            mat[i][ncols + s] = (-rel_rows[s][i]) % mod
    gens = kernel_basis(mat, p, m)
    nf = SpanNF(ncols, p, m)
    for row in rel_rows:
        nf.insert(row)
    out = []
    seen = set()
    for g in gens:
        t = nf.reduce(g[:ncols])
        if any(t) and t not in seen:
            seen.add(t)
            out.append(t)
    return out, nf


# -- batched numpy variants ------------------------------------------------


def int_dtype(bound: int):
    """Narrowest of int16/int32/int64 holding every integer of size <= bound."""
    for dt in (np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dt).max:
            return dt
    raise ValueError(f"{bound} does not fit in int64")


def _work_dtype(mod: int):
    """Narrowest of int16/int32/int64 holding (mod-1)^2 + mod: see `batch_kernel`."""
    return int_dtype((mod - 1) ** 2 + mod)


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
    """Lookup tables (val, inv, ppow) for Z/p^m.

    val[a] = v_p(a) as int8 (m for a = 0); inv[a] = a^-1 for units and 0
    otherwise; ppow[e] = p^e for e = 0..m.  inv and ppow are in the work
    dtype of p^m.
    """
    mod = p ** m
    dt = _work_dtype(mod)
    val = np.array([_val(a, p, m) for a in range(mod)], dtype=np.int8)
    inv = np.array([pow(a, -1, mod) if a % p else 0 for a in range(mod)], dtype=dt)
    ppow = np.array([p ** e for e in range(m + 1)], dtype=dt)
    for t in (val, inv, ppow):
        t.flags.writeable = False  # shared by every caller
    return val, inv, ppow


_BLOCK = 512  # systems per block of a transposing copy; a block fits in cache


def _to_columns(src: np.ndarray, dt) -> np.ndarray:
    """(N, k) -> (k, N) in dtype dt, copied blockwise."""
    n, k = src.shape
    out = np.empty((k, n), dtype=dt)
    for s in range(0, n, _BLOCK):
        out[:, s : s + _BLOCK] = src[s : s + _BLOCK].T
    return out


def _to_rows(src: np.ndarray) -> np.ndarray:
    """(k, N) -> (N, k) int64, copied blockwise."""
    k, n = src.shape
    out = np.empty((n, k), dtype=np.int64)
    for s in range(0, n, _BLOCK):
        out[s : s + _BLOCK] = src[:, s : s + _BLOCK].T
    return out


def _swap_pivots(A, V, k, systems, pi, pj):
    """Bring pivot (pi, pj) to (k, k) in the given systems only.

    A row swap touches A's trailing columns, a column swap A's trailing rows
    and all of V; the rest of A is never read again.
    """
    moved = pi != k
    if moved.any():
        s, src = systems[moved], pi[moved]
        old = A[k, k:, s]
        A[k, k:, s] = A[src, k:, s]
        A[src, k:, s] = old
    moved = pj != k
    if moved.any():
        s, src = systems[moved], pj[moved]
        for X, lo in ((A, k), (V, 0)):
            old = X[lo:, k, s]
            X[lo:, k, s] = X[lo:, src, s]
            X[lo:, src, s] = old


def batch_kernel(mats: np.ndarray, p: int, m: int):
    """Kernel generators for a stack of matrices over Z/p^m.

    mats: (N, r, c) integer array; entries outside [0, p^m) are reduced
    first.  Returns (gens, evals), both int64: gens is (N, c, c) with
    gens[n, :, j] a kernel generator (possibly zero), evals (N, c) the
    pivot exponents (m for free columns).  Same pivoting scheme as
    `diagonalize`, which is the oracle for this function in the tests.

    The systems are stored along the last axis, so each step is a few
    contiguous in-place passes over the trailing blocks of all N systems.
    Only the trailing block of A is kept up to date: the column operations
    `diagonalize` applies to A only clear the pivot row, which no later step
    reads.  Entries stay in [0, p^m) between passes.  A pass forms f*b or
    a - f*b with a, b in [0, p^m) and f in [0, p^m], then reduces x to
    x - p^m * floor(x / p^m) in place, so no intermediate exceeds
    p^m (p^m - 1) < (p^m - 1)^2 + p^m in absolute value.  The work dtype is
    the narrowest that holds (p^m - 1)^2 + p^m: int16 for p^m <= 181, int32
    up to 46,341, int64 beyond.
    """
    val_tab, inv_tab, ppow = tables(p, m)
    mod = p ** m
    mats = np.asarray(mats)
    N, r, c = mats.shape
    if mats.size and (mats.min() < 0 or mats.max() >= mod):
        mats = mats % mod
    A = _to_columns(mats.reshape(N, r * c), inv_tab.dtype).reshape(r, c, N)
    V = np.zeros((c, c, N), dtype=inv_tab.dtype)
    for j in range(c):
        V[j, j] = 1
    evals = np.full((c, N), m, dtype=np.int64)
    tmp = np.empty((max(r, c), c, N), dtype=inv_tab.dtype)
    reduce = mod_reducer(mod, tmp)  # clobbers tmp

    # pivot search key: valuation * S + row-major position in the block
    S = r * c
    key_dt = np.int16 if (m + 1) * S <= np.iinfo(np.int16).max else np.int32
    key_tab = val_tab.astype(key_dt) * S
    pos = np.arange(S, dtype=key_dt)[:, None]
    for k in range(min(r, c)):
        h, w = r - k, c - k
        # The pivot is the first entry of minimal valuation in row-major
        # order.  A unit at (k, k) is that entry, so only the systems
        # without one are searched.
        e = val_tab.take(A[k, k])
        hard = np.flatnonzero(e)
        if hard.size:
            key = key_tab.take(A[k:, k:, hard]).reshape(h * w, -1)
            key += pos[: h * w]
            best = np.minimum.reduce(key, axis=0)
            e[hard] = best // S
            at = best % S
            _swap_pivots(A, V, k, hard, at // w + k, at % w + k)
        evals[k] = e
        if w == 1:
            continue
        # normalise the pivot row by the unit part of its pivot p^e
        pe = ppow.take(e)
        row = A[k, k + 1 :]
        np.multiply(row, inv_tab.take(A[k, k] // pe), out=row)
        reduce(row)
        # row and column multipliers: the trailing block is divisible by p^e
        col = A[k + 1 :, k]
        g = row.copy()
        deep = np.flatnonzero(e)
        if deep.size:
            col[:, deep] //= pe[deep]
            g[:, deep] //= pe[deep]
        if h > 1:
            t = tmp[: h - 1, : w - 1]
            np.multiply(col[:, None], row[None], out=t)
            blk = A[k + 1 :, k + 1 :]
            np.subtract(blk, t, out=blk)
            reduce(blk)
        t = tmp[:c, : w - 1]
        np.multiply(V[:, k, None], g[None], out=t)
        blk = V[:, k + 1 :]
        np.subtract(blk, t, out=blk)
        reduce(blk)
    # gens[:, :, j] = p^(m - e_j) V[:, j], which is 0 for a unit pivot (e_j = 0)
    np.multiply(V, ppow.take(m - evals)[None], out=V)
    reduce(V)
    return _to_rows(V.reshape(c * c, N)).reshape(N, c, c), evals.T.copy()
