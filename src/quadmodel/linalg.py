"""Small dense-matrix numerics and the generic LTI state-space container.

Everything here works on plain float64 numpy arrays. The matrices in this
problem are tiny (at most 12x48, or 72x12) with exact-formula entries, so
rank is decided by Gaussian elimination with partial pivoting rather than
singular values, run on Python floats because the Kalman matrices are
mostly exact zeros. Characteristic polynomials come from the
Faddeev-LeVerrier recursion, on one matrix or on a stack of equal-size
blocks, and stability is decided by a Routh array. A general eigensolver
is deliberately avoided: the open-loop models are nilpotent (spectrum
identically zero), and a closed loop is checked chain block by chain
block with char_poly + is_hurwitz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Faddeev-LeVerrier is O(n^4) and numerically adequate only at desk scale.
MAX_CHARPOLY_DIM = 16


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


class NotSquare(ValueError):
    """Operation requires a square matrix."""


class NotNilpotent(ValueError):
    """Matrix has no vanishing power A^k with k <= n; caller must fall back
    to a generic integrator (RK4)."""


def _as_matrix(a) -> np.ndarray:
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
    return rel_tol * max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)


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
        if float(np.max(np.abs(power))) <= tol:
            return k
        power = power @ m
    return None


def expm_nilpotent(a, t: float) -> np.ndarray:
    """exp(A t) for nilpotent A: the terminating series sum (A t)^j / j!.

    Exact up to rounding -- no truncation is involved because A^k = 0.
    """
    m = _require_square(a)
    k = nilpotency_index(m)
    if k is None:
        raise NotNilpotent(
            f"no power A^j with j <= {m.shape[0]} vanishes; use an RK4 fallback"
        )
    n = m.shape[0]
    result = np.eye(n)
    term = np.eye(n)
    at = m * t
    for j in range(1, k):
        term = term @ at / j
        result = result + term
    return result


def char_poly(a) -> np.ndarray:
    """Monic characteristic polynomial coefficients [1, c1, ..., cn] of
    det(lambda I - A), by the Faddeev-LeVerrier recursion.

    ``a`` is one n x n matrix, or a stack of k of them (shape k x n x n),
    for which the result is k x (n + 1), one polynomial per block.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim not in (2, 3):
        raise DimensionMismatch(f"expected a matrix or a stack of them, got ndim={m.ndim}")
    n = m.shape[-1]
    if m.shape[-2] != n:
        raise NotSquare(f"expected square matrices, got shape {m.shape}")
    if n > MAX_CHARPOLY_DIM:
        raise NotSquare(
            f"char_poly supports n <= {MAX_CHARPOLY_DIM}, got n={n}"
        )
    coeffs = np.empty(m.shape[:-2] + (n + 1,))
    coeffs[..., 0] = 1.0
    eye = np.eye(n)
    am = np.zeros_like(m)
    c = np.ones(m.shape[:-2] + (1, 1))
    for k in range(1, n + 1):
        am = m @ (am + c * eye)  # A M_k with M_k = A M_{k-1} + c_{k-1} I
        c = am.trace(axis1=-2, axis2=-1)[..., None, None] / -k
        coeffs[..., k] = c[..., 0, 0]
    return coeffs + 0.0  # map -0.0 coefficients to +0.0


def is_hurwitz(coeffs) -> bool:
    """True iff every root of the given real polynomial has strictly
    negative real part, decided by the Routh array.

    ``coeffs`` are highest-degree first, finite, leading coefficient
    nonzero (normalized away internally). Strict stability holds iff
    every first-column entry of the Routh array is positive, so the table
    stops at the first entry that is not: a zero there (including a whole
    zero row, roots placed symmetrically about the origin) already rules
    strict stability out, and no epsilon substitute is needed.
    """
    c = np.asarray(coeffs, dtype=float).ravel().tolist()
    if len(c) < 2:
        raise ValueError("polynomial degree must be >= 1")
    if c[0] == 0.0 or not all(map(math.isfinite, c)):
        raise ValueError("leading coefficient must be nonzero and finite")
    lead = c[0]
    c = [v / lead for v in c]  # roots are unchanged under scaling
    n = len(c) - 1
    width = n // 2 + 1
    # two rows of the table, each padded to width + 1 with zeros
    prev2 = c[0::2] + [0.0] * (width + 1 - len(c[0::2]))
    prev = c[1::2] + [0.0] * (width + 1 - len(c[1::2]))
    for _ in range(2, n + 1):
        pivot = prev[0]
        if not pivot > 0.0:
            return False
        top = prev2[0]
        row = [(pivot * prev2[j + 1] - top * prev[j + 1]) / pivot for j in range(width)]
        prev2, prev = prev, row + [0.0]
    return prev[0] > 0.0


@dataclass(frozen=True)
class StateSpaceModel:
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
        for name in ("A", "B", "C", "D"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 2:
                raise DimensionMismatch(f"{name} must be a 2-D matrix")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
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
            object.__setattr__(self, name, labels)

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
