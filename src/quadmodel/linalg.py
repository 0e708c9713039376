"""Small dense-matrix numerics on nested lists of Python numbers, and the
exact integer kernel: the float core's linear algebra.

The matrices in this problem are tiny (at most 12x48, or 72x12) with
exact-formula entries, mostly exact zeros, which nonzeros, matmul and
expm_rows skip. The exact kernel decides on the integers 2^s A
(int_rows), on the rows that can still change the answer: ranks by
fraction-free elimination against the one basis row keyed by a row's least
column (span_add), nilpotency by powers of the rows that have not vanished
(_nilpotency_ints), characteristic polynomials (_poly_ints) by
Berkowitz's division-free recurrence, for any square matrix. The cores take
integer rows, so a caller converts a matrix once and reads every answer
from it; char_poly_ints wraps them.
No general eigensolver is used: the open-loop models are nilpotent, and a
closed loop is checked chain block by chain block (_poly_ints + is_hurwitz_ints).
"""

from __future__ import annotations

import math
from itertools import compress

from . import _twin


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


class NotSquare(ValueError):
    """Operation requires a square matrix."""


class NotNilpotent(ValueError):
    """Matrix has no vanishing power A^k with k <= n, so the exact
    zero-order-hold series does not terminate."""


def _nilpotency_ints(rows) -> int | None:
    """The smallest k <= n with A^k = 0 exactly, or None when no power up
    to n vanishes, from the rows of int_rows: the powers of 2^s A run on ints.
    A row of a power that vanishes stays zero in every later power, so it is
    dropped, and the powers end when no row is left."""
    power, k = [r for r in rows if r], 1  # the nonzero rows of (2^s A)^k
    while power and k < len(rows):
        power = [[(c, v) for c, v in row_times(r, rows, 0).items() if v] for r in power]
        power, k = [r for r in power if r], k + 1
    return None if power else k


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
            raise NotNilpotent(f"no power A^j with j <= {n} vanishes, so exact ZOH does not apply")
    return phi, gamma


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


def span_add(basis: dict, row) -> bool:
    """Add an integer row, as (column, int) pairs, to basis, a dict from
    each echelon row's pivot, its least column, to the row as {column: int},
    unless they span it; True iff added. Fraction-free: while the row's least
    column p is a pivot, row <- b_p[p] row - row[p] b_p zeroes it and leaves
    only larger columns. A least column that is no pivot makes the row
    independent: it is added, divided by the gcd of its entries."""
    row = {c: v for c, v in row if v}
    while row:
        p = min(row)
        b = basis.get(p)
        if b is None:
            g = math.gcd(*row.values())
            basis[p] = {c: v // g for c, v in row.items()}
            return True
        x, y = row[p], b[p]
        row = {c: v for c in row.keys() | b.keys() if (v := y * row.get(c, 0) - x * b.get(c, 0))}
    return False


def char_poly_ints(a) -> tuple[list[int], int]:
    """det(lambda I - 2^s A) = sum C_k lambda^(n-k) for a finite nested-list
    A, as the integers [1, C_1, ..., C_n] and s; c_k = C_k / 2^(s k)."""
    rows, s = int_rows(a)
    return _poly_ints(rows), s


def _poly_ints(rows) -> list[int]:
    """[1, C_1, ..., C_n] of char_poly_ints from the rows of int_rows, by
    Berkowitz's division-free recurrence (Inform. Process. Lett. 18(3),
    1984), so nothing rounds or overflows. With p_r the polynomial of the
    leading r x r block M, highest power first, p_0 = [1] and p_(r+1) =
    T p_r, T the lower triangular Toeplitz matrix of [1, -a_rr, -R C,
    -R M C, ..., -R M^(r-1) C], where R is row r left of the diagonal and C
    column r above it. R M^k runs on the sparse rows only while it and C
    have a nonzero, and zero terms of T are skipped."""
    cols = [{} for _ in rows]  # each column above the diagonal, built once
    for i, row in enumerate(rows):
        for k, v in row:
            if k > i:
                cols[k][i] = v
    p = [1]
    for r, (row, col) in enumerate(zip(rows, cols)):
        q, a, u = p + [0], 0, {}  # q = lambda p_r
        for k, v in row:
            if k < r:
                u[k] = v
            elif k == r:
                a = v
        if a:
            for j, c in enumerate(p, 1):
                q[j] -= a * c
        d = 2  # u = R M^(d-2), and T's d-th subdiagonal is -u C
        while u and col and d <= r + 1:
            t = -sum(v * u[c] for c, v in col.items() if c in u)
            if t:
                for j, c in enumerate(p[:r + 2 - d], d):
                    q[j] += t * c
            u = {c: v for c, v in row_times(u.items(), rows, 0).items() if c < r and v}
            d += 1
        p = q
    return p


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


def __getattr__(name):  # a numpy twin, in quadmodel.arrays
    return _twin(__name__, name)
