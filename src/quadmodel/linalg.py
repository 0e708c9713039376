"""Small dense-matrix numerics and the generic LTI state-space container.

Everything here works on plain 2-D float64 numpy arrays. The matrices in
this problem are tiny (at most 12x48) with exact-formula entries, so rank
is decided by Gaussian elimination with partial pivoting rather than
singular values, characteristic polynomials come from the
Faddeev-LeVerrier recursion, and stability is decided by a Routh array.
A general eigensolver is deliberately avoided: the open-loop models are
nilpotent (spectrum identically zero) and closed-loop stability only needs
char_poly + is_hurwitz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Faddeev-LeVerrier is O(n^4) and numerically adequate only at desk scale.
MAX_CHARPOLY_DIM = 16

# Routh-array pivot substitute when a leading entry is exactly zero. Pure
# bookkeeping: it keeps the table well-defined; the zero itself already
# disqualifies strict stability.
_ROUTH_EPS = 1e-30


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
    the max taken over the original matrix.
    """
    if rel_tol <= 0.0:
        raise ValueError(f"rel_tol must be > 0, got {rel_tol!r}")
    m = _as_matrix(a).copy()
    if m.size == 0:
        return 0
    thresh = _zero_tol(m, rel_tol)
    rows, cols = m.shape
    r = 0
    for col in range(cols):
        if r == rows:
            break
        piv = r + int(np.argmax(np.abs(m[r:, col])))
        if abs(m[piv, col]) <= thresh:
            continue
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        factors = m[r + 1 :, col] / m[r, col]
        m[r + 1 :, col:] -= np.outer(factors, m[r, col:])
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
    det(lambda I - A), by the Faddeev-LeVerrier recursion."""
    m = _require_square(a)
    n = m.shape[0]
    if n > MAX_CHARPOLY_DIM:
        raise NotSquare(
            f"char_poly supports n <= {MAX_CHARPOLY_DIM}, got n={n}"
        )
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    am = np.zeros_like(m)
    c = 1.0
    for k in range(1, n + 1):
        work = am + c * np.eye(n)  # M_k = A M_{k-1} + c_{k-1} I
        am = m @ work
        c = -float(np.trace(am)) / k
        coeffs[k] = c
    return coeffs + 0.0  # map -0.0 coefficients to +0.0


def is_hurwitz(coeffs) -> bool:
    """True iff every root of the given real polynomial has strictly
    negative real part, decided by the Routh array.

    ``coeffs`` are highest-degree first, leading coefficient nonzero
    (normalized away internally). A zero leading-column pivot is replaced
    by a tiny epsilon so the table stays computable, but it already rules
    out strict stability; a whole zero row does too (roots placed
    symmetrically about the origin).
    """
    c = np.asarray(coeffs, dtype=float).ravel()
    if c.size < 2:
        raise ValueError("polynomial degree must be >= 1")
    if c[0] == 0.0 or not np.all(np.isfinite(c)):
        raise ValueError("leading coefficient must be nonzero and finite")
    c = c / c[0]  # roots are unchanged under scaling
    n = c.size - 1
    width = n // 2 + 1
    table = np.zeros((n + 1, width + 1))  # one spare column of zeros
    table[0, : len(c[0::2])] = c[0::2]
    table[1, : len(c[1::2])] = c[1::2]
    first_column = [1.0, float(c[1])]
    # epsilon-substituted pivots can push later rows to inf/nan; those rows
    # only arise once strict stability is already ruled out, so the final
    # all-positive check (nan compares False) still decides correctly.
    with np.errstate(all="ignore"):
        for i in range(2, n + 1):
            prev, prev2 = table[i - 1], table[i - 2]
            if not np.any(prev != 0.0):
                return False  # zero row: even polynomial factor
            pivot = prev[0] if prev[0] != 0.0 else _ROUTH_EPS
            table[i, :width] = (
                pivot * prev2[1 : width + 1] - prev2[0] * prev[1 : width + 1]
            ) / pivot
            first_column.append(float(table[i, 0]))
    return all(v > 0.0 for v in first_column)


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
