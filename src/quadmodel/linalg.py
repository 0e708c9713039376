"""Small dense-matrix numerics and the generic LTI state-space container.

The matrices in this problem are tiny (at most 12x48, or 72x12) with
exact-formula entries, mostly exact zeros. The core (nonzeros, matmul,
expm_rows, char_poly_ints, is_hurwitz_ints) works on nested lists of
Python numbers, skips those zeros and imports no numpy. The functions that take or return
float64 arrays import numpy when first called. Rank is decided by Gaussian
elimination with partial pivoting rather than singular values, and
characteristic polynomials exactly, by the Faddeev-LeVerrier recursion on
Python ints. A general eigensolver is deliberately avoided: the open-loop
models are nilpotent (spectrum identically zero), and a closed loop is
checked chain block by chain block with char_poly_ints + is_hurwitz_ints.
"""

from __future__ import annotations

import math
from itertools import compress

from ._record import Record


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


class NotSquare(ValueError):
    """Operation requires a square matrix."""


class NotNilpotent(ValueError):
    """Matrix has no vanishing power A^k with k <= n; caller must fall back
    to a generic integrator (RK4)."""


def _as_matrix(a) -> np.ndarray:
    import numpy as np
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def _require_square(a) -> np.ndarray:
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    return m


def _zero_tol(a: np.ndarray, rel_tol: float) -> float:
    # Scale by max(1, max|entry|): the 1.0 floor handles the zero matrix
    # without division hazards and keeps absolute meaning at desk scale.
    return rel_tol * max(1.0, float(abs(a).max()) if a.size else 1.0)


def rank(a, rel_tol: float = 1e-9) -> int:
    """Numerical rank by row reduction with partial pivoting.

    A pivot counts iff its magnitude exceeds rel_tol * max(1, max|a|),
    the max taken over the original matrix, which must be finite. The
    pivot of a column is the first row of largest magnitude on or below
    the current one.

    The elimination runs on Python floats and skips every row whose entry
    in the pivot column is exactly zero, and every pivot-row entry that
    is exactly zero: x - 0*y can only change the sign of a zero, so no
    magnitude and no pivot decision changes. For the same reason a column
    of zeros stays zero and never pivots, and zero rows below the last
    nonzero one never move, so both are dropped first. The Kalman
    matrices of the chain models are mostly such zeros.
    """
    import numpy as np
    if rel_tol <= 0.0:
        raise ValueError(f"rel_tol must be > 0, got {rel_tol!r}")
    m = _as_matrix(a)
    if m.size == 0:
        return 0
    if not np.isfinite(m).all():
        raise ValueError("rank needs a finite matrix")
    thresh = _zero_tol(m, rel_tol)
    live = np.flatnonzero(m.any(axis=1))
    if not live.size:
        return 0
    m = m[: live[-1] + 1, m.any(axis=0)]
    rows = m.tolist()
    n_rows, n_cols = m.shape
    r = 0
    for col in range(n_cols):
        if r == n_rows:
            break
        mags = [abs(row[col]) for row in rows[r:]]
        best = max(mags)
        if best <= thresh:
            continue
        piv = r + mags.index(best)
        pivot_row = rows[piv]
        rows[piv] = rows[r]
        rows[r] = pivot_row
        pivot = pivot_row[col]
        nonzero = [j for j in range(col + 1, n_cols) if pivot_row[j] != 0.0]
        for row in rows[r + 1 :]:
            x = row[col]
            if x != 0.0:
                f = x / pivot
                for j in nonzero:
                    row[j] -= f * pivot_row[j]
        r += 1
    return r


def nilpotency_index(a) -> int | None:
    """Smallest k <= n with A^k = 0 (entrywise below 1e-12 * max(1, max|A|)),
    or None when no power up to n vanishes."""
    m = _require_square(a)
    n = m.shape[0]
    if n == 0:
        return 1
    tol = _zero_tol(m, 1e-12)
    power = m
    for k in range(1, n + 1):
        if float(abs(power).max()) <= tol:
            return k
        power = power @ m
    return None


def nonzeros(m, scale: float = 1.0) -> list[list[tuple[int, float]]]:
    """Each row of m as the (column, entry * scale) pairs of its nonzeros."""
    return [[(k, row[k] * scale) for k in compress(range(len(row)), row)] for row in m]


def _row_times(pairs, rows, zero=0.0) -> dict:
    """zero + sum_k v rows[k] over the (k, v) pairs, each row of rows given
    as its (column, entry) pairs, as a dict of the columns that got a product."""
    acc: dict = {}
    for k, v in pairs:
        for c, x in rows[k]:
            acc[c] = acc.get(c, zero) + v * x
    return acc


def matmul(a, b) -> list[list[float]]:
    """a b for nested lists, over the nonzeros of both: an entry is +0.0
    plus its products in order, so a sum of zeros is +0.0, as in BLAS."""
    width, b = range(len(b[0]) if len(b) else 0), nonzeros(b)
    return [[acc.get(c, 0.0) for c in width] for acc in (_row_times(r, b) for r in nonzeros(a))]


def expm_rows(a, b, t: float) -> tuple[list, list]:
    """exp([[A, B], [0, 0]] t) = [[Phi, Gamma], [0, I]] (Van Loan) for nested
    lists A and B, A nilpotent: some A^j, j <= n, is exactly 0, as on every
    chain model. Term j of Phi is T_j = T_(j-1) (A t) / j and of Gamma
    T_(j-1) (B t) / j, on sparse rows: a row's series ends at its first term
    with no nonzero entry, where the powers of A end it, even if its entries
    overflowed to inf on the way."""
    n = len(a)
    at, bt = nonzeros(a, t), nonzeros(b, t)
    phi = [[0.0] * n for _ in range(n)]
    gamma = [[0.0] * len(row) for row in b]
    for i, (p, g) in enumerate(zip(phi, gamma)):  # row i of each term comes from row i
        p[i] = 1.0
        row = {i: 1.0}
        for j in range(1, n + 2):
            for c, v in _row_times(row.items(), bt).items():
                g[c] += v / j
            row = {c: v / j for c, v in _row_times(row.items(), at).items() if v != 0.0}
            if not row:
                break
            for c, v in row.items():
                p[c] += v
        else:
            raise NotNilpotent(f"no power A^j with j <= {n} vanishes; use integrator='rk4'")
    return phi, gamma


def expm_nilpotent(a, t: float) -> np.ndarray:
    """exp(A t) for nilpotent A, the Phi of expm_rows, as a float64 array:
    exact up to rounding, since the series terminates."""
    import numpy as np
    m = _require_square(a)
    return np.array(expm_rows(m.tolist(), [[]] * len(m), t)[0]).reshape(m.shape)


def _as_ints(values) -> tuple[list[int], int]:
    """Integers n_i and the least shift s >= 0 with v_i = n_i / 2^s, for
    finite floats v_i, exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    s = max((d.bit_length() for _, d in ratios), default=1) - 1
    return [n << s - d.bit_length() + 1 for n, d in ratios], s


def char_poly_ints(a) -> tuple[list[int], int]:
    """det(lambda I - 2^s A) = sum C_k lambda^(n-k) for a finite nested-list
    A, as the integers [1, C_1, ..., C_n] and s; c_k = C_k / 2^(s k).
    Faddeev-LeVerrier on sparse rows of the integer matrix 2^s A, where
    C_k = -tr(A M_k) / k divides exactly: nothing rounds or overflows."""
    n, cols = len(a), [list(compress(range(len(row)), row)) for row in a]
    ints, s = _as_ints([row[k] for row, c in zip(a, cols) for k in c])
    ints = iter(ints)
    a = [[(k, next(ints)) for k in c] for c in cols]
    coeffs, am, c = [1], [{} for _ in a], 1
    for k in range(1, n + 1):
        if c:  # M_k = A M_(k-1) + C_(k-1) I, in place
            for i, row in enumerate(am):
                row[i] = row.get(i, 0) + c
        rows = [row.items() for row in am]
        am = [_row_times(pairs, rows, 0) for pairs in a]
        c = -sum(row.get(i, 0) for i, row in enumerate(am)) // k
        coeffs.append(c)
        if not any(am):  # A M_k = 0 and C_k = 0: so are all later ones
            return coeffs + [0] * (n - k), s
    return coeffs, s


def char_poly(a) -> np.ndarray:
    """Monic characteristic polynomial [1, c1, ..., cn] of det(lambda I - A)
    for one finite square matrix, as a float64 array of char_poly_ints
    correctly rounded, +-inf where a coefficient overflows."""
    import numpy as np
    m = _require_square(a)
    if not np.isfinite(m).all():
        raise ValueError("char_poly needs a finite matrix")
    coeffs, s = char_poly_ints(m.tolist())
    out = []
    for k, c in enumerate(coeffs):
        try:
            out.append(c / (1 << s * k) + 0.0)  # map -0.0 to +0.0
        except OverflowError:
            out.append(math.inf if c > 0 else -math.inf)
    return np.array(out)


def is_hurwitz(coeffs) -> bool:
    """True iff every root of the given real polynomial has strictly
    negative real part, decided by the Routh array.

    ``coeffs`` are highest-degree first, finite, leading coefficient
    nonzero. Strict stability holds iff every first-column entry of the
    Routh array is positive, so the table stops at the first entry that is
    not: a zero there (including a whole zero row, roots placed
    symmetrically about the origin) already rules strict stability out,
    and no epsilon substitute is needed.
    The table is exact: one power of two turns the float coefficients into
    integers, and a row is not divided by its pivot, a positive factor
    that keeps the signs. No entry rounds, underflows or overflows, at any
    scale of the roots.
    """
    c = [float(v) for v in coeffs]
    if len(c) < 2:
        raise ValueError("polynomial degree must be >= 1")
    if c[0] == 0.0 or not all(map(math.isfinite, c)):
        raise ValueError("leading coefficient must be nonzero and finite")
    return is_hurwitz_ints(_as_ints(c)[0])


def is_hurwitz_ints(c: list[int]) -> bool:
    """The Routh array of is_hurwitz on integers, leading one nonzero."""
    if c[0] < 0:
        c = [-v for v in c]  # roots are unchanged under scaling
    n = len(c) - 1
    width = n // 2 + 1
    # two rows of the table, each padded to width + 1 with zeros
    prev2 = c[0::2] + [0] * (width + 1 - len(c[0::2]))
    prev = c[1::2] + [0] * (width + 1 - len(c[1::2]))
    for _ in range(2, n + 1):
        pivot = prev[0]
        if not pivot > 0:
            return False
        top = prev2[0]
        row = [pivot * prev2[j + 1] - top * prev[j + 1] for j in range(width)]
        prev2, prev = prev, row + [0]
    return prev[0] > 0


class StateSpaceModel(Record):
    """Continuous-time LTI quadruple dx/dt = A x + B u, y = C x + D u,
    with labelled state, input, and output coordinates.

    Arrays are copied and frozen at construction; dimension consistency
    and label lengths are enforced.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    state_labels: tuple[str, ...]
    input_labels: tuple[str, ...]
    output_labels: tuple[str, ...]

    def __post_init__(self):
        import numpy as np
        for name in ("A", "B", "C", "D"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 2:
                raise DimensionMismatch(f"{name} must be a 2-D matrix")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            vars(self)[name] = arr
        n, p, q = self.A.shape[0], self.B.shape[1], self.C.shape[0]
        if self.A.shape != (n, n):
            raise DimensionMismatch(f"A must be square, got {self.A.shape}")
        if self.B.shape != (n, p):
            raise DimensionMismatch(f"B must be {n}x{p}, got {self.B.shape}")
        if self.C.shape != (q, n):
            raise DimensionMismatch(f"C must be {q}x{n}, got {self.C.shape}")
        if self.D.shape != (q, p):
            raise DimensionMismatch(f"D must be {q}x{p}, got {self.D.shape}")
        for name, count in (("state_labels", n), ("input_labels", p), ("output_labels", q)):
            labels = tuple(str(s) for s in getattr(self, name))
            if len(labels) != count:
                raise DimensionMismatch(f"{name} must have {count} entries, got {len(labels)}")
            vars(self)[name] = labels

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    @property
    def q(self) -> int:
        return self.C.shape[0]

    def deriv(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """State derivative A x + B u."""
        return self.A @ x + self.B @ u

    def output(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Measured output C x + D u."""
        return self.C @ x + self.D @ u
