"""Small dense-matrix numerics and the generic LTI state-space container.

The matrices in this problem are tiny (at most 12x48, or 72x12) with
exact-formula entries, mostly exact zeros. The core (nonzeros, matmul,
expm_rows, and the exact kernel) works on nested lists of Python numbers,
skips those zeros and imports no numpy; functions on float64 arrays import
numpy when first called. The exact kernel decides on the integers 2^s A
(int_rows): ranks by fraction-free elimination (span_add), nilpotency by
powers (_nilpotency_ints), characteristic polynomials (_poly_ints) by a
Hessenberg recurrence (open-loop A, continuous chain blocks) or else
Faddeev-LeVerrier (dense 4x4 sampled blocks), chosen from the nonzero
pattern. The cores take integer rows, so a caller converts a matrix once and
reads every answer from it; char_poly_ints and nilpotency_index wrap them.
No general eigensolver is used: the open-loop models are nilpotent, and a
closed loop is checked chain block by chain block (_poly_ints + is_hurwitz_ints).
The public rank is numerical, with a tolerance; the package does not call it.
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


def _as_matrix(a, square: bool) -> np.ndarray:
    import numpy as np
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    if square and m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    return m


def _finite_rows(a, caller: str) -> list[list[float]]:
    m = _as_matrix(a, square=True)
    if not math.isfinite(abs(m).max(initial=0.0)):  # NaN and inf reach the max
        raise ValueError(f"{caller} needs a finite matrix")
    return m.tolist()


def rank(a, rel_tol: float = 1e-9) -> int:
    """Numerical rank by row reduction with partial pivoting.

    A pivot counts iff its magnitude exceeds rel_tol * max(1, max|a|),
    the max taken over the original matrix, which must be finite. The
    pivot of a column is the first row of largest magnitude on or below
    the current one, and it trades places with the current row.
    """
    import numpy as np
    if rel_tol <= 0.0:
        raise ValueError(f"rel_tol must be > 0, got {rel_tol!r}")
    m = _as_matrix(a, square=False).copy()
    top = float(abs(m).max(initial=0.0))  # NaN and inf reach the max
    if not math.isfinite(top):
        raise ValueError("rank needs a finite matrix")
    thresh = rel_tol * max(1.0, top)
    r = 0
    for col in range(m.shape[1]):
        if r < len(m) and abs(m[r:, col]).max() > thresh:
            piv = r + int(abs(m[r:, col]).argmax())
            m[[r, piv]] = m[[piv, r]]
            m[r + 1:, col:] -= np.outer(m[r + 1:, col] / m[r, col], m[r, col:])
            r += 1
    return r


def nilpotency_index(a) -> int | None:
    """Smallest k <= n with A^k = 0 exactly, or None when no power up to n
    vanishes, for a finite A."""
    return _nilpotency_ints(int_rows(_finite_rows(a, "nilpotency_index"))[0])


def _nilpotency_ints(rows) -> int | None:
    """nilpotency_index from the rows of int_rows: the powers of 2^s A run on ints."""
    power, k = rows, 1
    while any(power) and k < len(rows):  # power = (2^s A)^k
        power, k = [[(c, v) for c, v in row_times(r, rows, 0).items() if v] for r in power], k + 1
    return None if any(power) else k


def nonzeros(m, scale: float = 1.0) -> list[list[tuple[int, float]]]:
    """Each row of m as the (column, entry * scale) pairs of its nonzeros."""
    return [[(k, row[k] * scale) for k in compress(range(len(row)), row)] for row in m]


def row_times(pairs, rows, zero=0.0) -> dict:
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
    return [[acc.get(c, 0.0) for c in width] for acc in (row_times(r, b) for r in nonzeros(a))]


def expm_rows(a, b, t: float) -> tuple[list, list]:
    """exp([[A, B], [0, 0]] t) = [[Phi, Gamma], [0, I]] (Van Loan) for nested
    lists A and B, A nilpotent: some A^j, j <= n, is exactly 0, as on every
    chain model. Term j of Phi is T_j = T_(j-1) (A t) / j and of Gamma
    T_(j-1) (B t) / j, on sparse rows: a row's series ends at its first term
    with no nonzero entry, where the powers of A end it, even if its entries
    overflowed to inf on the way. A step t that is not finite raises ValueError."""
    if not math.isfinite(t):
        raise ValueError(f"the step must be finite, got {t!r}")
    n = len(a)
    at, bt = nonzeros(a, t), nonzeros(b, t)
    phi = [[0.0] * n for _ in range(n)]
    gamma = [[0.0] * len(row) for row in b]
    for i, (p, g) in enumerate(zip(phi, gamma)):  # row i of each term comes from row i
        p[i] = 1.0
        row = {i: 1.0}
        for j in range(1, n + 2):
            for c, v in row_times(row.items(), bt).items():
                g[c] += v / j
            row = {c: v / j for c, v in row_times(row.items(), at).items() if v != 0.0}
            if not row:
                break
            for c, v in row.items():
                p[c] += v
        else:
            raise NotNilpotent(f"no power A^j with j <= {n} vanishes; use integrator='rk4'")
    return phi, gamma


def expm_nilpotent(a, t: float) -> np.ndarray:
    """exp(A t) for a finite nilpotent A, the Phi of expm_rows, as a float64
    array: exact up to rounding, since the series terminates."""
    import numpy as np
    rows = _finite_rows(a, "expm_nilpotent")
    return np.array(expm_rows(rows, [[]] * len(rows), t)[0]).reshape(len(rows), len(rows))


def _as_ints(values) -> tuple[list[int], int]:
    """Integers n_i and the least shift s >= 0 with v_i = n_i / 2^s, for
    finite floats v_i, exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    s = max((d.bit_length() for _, d in ratios), default=1) - 1
    return [n << s - d.bit_length() + 1 for n, d in ratios], s


def int_rows(a) -> tuple[list[list[tuple[int, int]]], int]:
    """The rows of 2^s A as the (column, int) pairs of their nonzeros, for a
    finite nested-list A (else ValueError), with s >= 0 the least shift to integers."""
    try:
        ints, s = _as_ints([x for row in a for x in row if x])
    except (OverflowError, ValueError):  # inf, NaN: no integer ratio
        raise ValueError("the exact kernel needs a finite matrix") from None
    it = iter(ints)  # in the order of the nonzeros, row by row
    return [[(k, next(it)) for k in compress(range(len(row)), row)] for row in a], s


def span_add(basis: list, row) -> bool:
    """Add an integer row, as (column, int) pairs, to basis, the echelon rows
    as (pivot column, {column: int}), unless they span it; True iff added.
    Fraction-free: row <- b_p row - row_p b for each basis row b in order
    zeroes the row at every pivot p; a row that is left is divided by the
    gcd of its entries."""
    row = dict(row)
    for p, b in basis:
        x, y = row.get(p), b[p]
        if x:
            row = {c: y * row.get(c, 0) - x * b.get(c, 0) for c in row.keys() | b.keys()}
    row = {c: v for c, v in row.items() if v}
    if row:
        g = math.gcd(*row.values())
        basis.append((min(row), {c: v // g for c, v in row.items()}))
    return bool(row)


def char_poly_ints(a) -> tuple[list[int], int]:
    """det(lambda I - 2^s A) = sum C_k lambda^(n-k) for a finite nested-list
    A, as the integers [1, C_1, ..., C_n] and s; c_k = C_k / 2^(s k)."""
    rows, s = int_rows(a)
    return _poly_ints(rows), s


def _poly_ints(rows) -> list[int]:
    """[1, C_1, ..., C_n] of char_poly_ints from the rows of int_rows: nothing
    rounds or overflows. If 2^s A or its transpose is upper Hessenberg
    (every open-loop chain A and pole-placed chain block is), the recurrence
    _hessenberg_poly runs, else Faddeev-LeVerrier: C_k = -tr(A M_k) / k."""
    n, u = len(rows), {(i, k): v for i, row in enumerate(rows) for k, v in row}
    if all(i <= k + 1 for i, k in u):  # upper Hessenberg
        return _hessenberg_poly(n, u)
    if all(k <= i + 1 for i, k in u):  # lower: its transpose is
        return _hessenberg_poly(n, {(k, i): v for (i, k), v in u.items()})
    coeffs, am, c = [1], [{} for _ in rows], 1
    for k in range(1, n + 1):
        if c:  # M_k = A M_(k-1) + C_(k-1) I, in place
            for i, row in enumerate(am):
                row[i] = row.get(i, 0) + c
        mk = [row.items() for row in am]
        am = [row_times(pairs, mk, 0) for pairs in rows]
        c = -sum(row.get(i, 0) for i, row in enumerate(am)) // k
        coeffs.append(c)
        if not any(am):  # A M_k = 0 and C_k = 0: so are all later ones
            return coeffs + [0] * (n - k)
    return coeffs


def _hessenberg_poly(n: int, u: dict) -> list[int]:
    """[1, C_1, ..., C_n] of det(lambda I - U) for an n x n upper Hessenberg
    integer matrix U given as {(row, column): nonzero}, division-free
    (Wilkinson, The Algebraic Eigenvalue Problem, ch. 6). With p_k the
    polynomial of the leading k x k block, highest power first, p_0 = 1 and
    p_(k+1) = (lambda - u_kk) p_k - sum_(i<k) u_ik (u_(i+1,i) ... u_(k,k-1)) p_i;
    a sum stops at its first zero subdiagonal factor."""
    polys, sub = [[1]], [u.get((i, i - 1), 0) for i in range(n)]
    for k in range(n):
        p, f = polys[-1] + [0], 1  # lambda p_k, then u_kk p_k with f = 1
        for i in range(k, -1, -1):
            v = u.get((i, k))
            if v:
                for j, c in enumerate(polys[i], k - i + 1):
                    p[j] -= v * f * c
            f *= sub[i]
            if not f:
                break
        polys.append(p)
    return polys[-1]


def char_poly(a) -> np.ndarray:
    """Monic characteristic polynomial [1, c1, ..., cn] of det(lambda I - A)
    for one finite square matrix, as a float64 array of char_poly_ints
    correctly rounded, +-inf where a coefficient overflows."""
    import numpy as np
    return np.array(rounded_poly(*char_poly_ints(_finite_rows(a, "char_poly"))))


def rounded_poly(coeffs: list[int], s: int) -> list[float]:
    """The coefficients C_k / 2^(s k) of char_poly_ints, each correctly
    rounded to float64, +-inf where it overflows."""
    out = []
    for k, c in enumerate(coeffs):
        try:
            out.append(c / (1 << s * k) + 0.0)  # map -0.0 to +0.0
        except OverflowError:
            out.append(math.inf if c > 0 else -math.inf)
    return out


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
    if not all(map(math.isfinite, c)):
        raise ValueError("coefficients must be finite")
    if c[0] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
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
