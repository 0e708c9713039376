"""Controllability, observability, and open-loop stability classification,
each decided exactly for the model as stored, on the integers of linalg's
kernel, at any scale of its entries. analyze_rows converts A to integers
once and reads both ranks, the polynomial and the nilpotency index from
it, without numpy, for the CLI. The functions that take a
StateSpaceModel (analyze wraps analyze_rows) read its arrays, and only
the Kalman matrices build arrays of their own.

Stability is reported as a binary class: strictly stable (Hurwitz) or not.
Separating "marginal" from "unstable" for repeated eigenvalues at the
origin would need Jordan-structure analysis that nothing downstream uses;
the claim that matters is "not asymptotically stable".
"""

from __future__ import annotations

from ._record import Record
from .linalg import (_nilpotency_ints, _poly_ints, int_rows, is_hurwitz_ints, rounded_poly,
                     row_times, span_add)

STRICTLY_STABLE = "strictly_stable"
MARGINAL_OR_UNSTABLE = "marginal_or_unstable"


class AnalysisReport(Record):
    controllability_rank: int
    observability_rank: int
    is_controllable: bool
    is_observable: bool
    open_loop_char_poly: tuple[float, ...]
    stability_class: str
    nilpotency_index: int | None


def controllability_matrix(m: StateSpaceModel) -> np.ndarray:
    """Kalman matrix [B, AB, ..., A^(n-1) B], shape n x (n*p)."""
    import numpy as np
    blocks = [m.B]
    while len(blocks) < m.n:
        blocks.append(m.A @ blocks[-1])
    return np.hstack(blocks)


def observability_matrix(m: StateSpaceModel) -> np.ndarray:
    """Stacked [C; CA; ...; C A^(n-1)], shape (n*q) x n."""
    import numpy as np
    blocks = [m.C]
    while len(blocks) < m.n:
        blocks.append(blocks[-1] @ m.A)
    return np.vstack(blocks)


def _kalman_rank(a, b) -> int:
    """Rank of the span of b, b a, b a^2, ..., exactly, for integer rows as
    int_rows gives them: block k is a positive multiple of (A^k B)^T on the
    rows of (2^s A)^T and of 2^t B^T, and of C A^k on those of 2^s A and 2^t C.
    The span grows block by block up to n, or until a block adds nothing,
    when no later one can either (Kalman)."""
    basis: list = []
    while sum(span_add(basis, row) for row in b) and len(basis) < len(a):
        b = [row_times(row, a, 0).items() for row in b]
    return len(basis)


def controllability_rank(m: StateSpaceModel) -> int:
    return _kalman_rank(int_rows(m.A.T.tolist())[0], int_rows(m.B.T.tolist())[0])


def observability_rank(m: StateSpaceModel) -> int:
    return _kalman_rank(int_rows(m.A.tolist())[0], int_rows(m.C.tolist())[0])


def analyze(m: StateSpaceModel) -> AnalysisReport:
    """Full structural report on one model: analyze_rows of its matrices."""
    return analyze_rows(m.A.tolist(), m.B.tolist(), m.C.tolist())


def analyze_rows(a, b, c) -> AnalysisReport:
    """analyze for A, B and C given as nested lists, without numpy. The rows
    of (2^s A)^T are a sparse transpose of those of 2^s A: s depends only on
    the nonzero values."""
    a, s = int_rows(a)
    at: list = [[] for _ in a]
    for i, row in enumerate(a):
        for k, v in row:
            at[k].append((i, v))
    ctrb = _kalman_rank(at, int_rows(list(zip(*b)))[0])
    obsv = _kalman_rank(a, int_rows(c)[0])
    poly = _poly_ints(a)
    return AnalysisReport(
        controllability_rank=ctrb,
        observability_rank=obsv,
        is_controllable=ctrb == len(a),
        is_observable=obsv == len(a),
        open_loop_char_poly=tuple(rounded_poly(poly, s)),
        stability_class=STRICTLY_STABLE if is_hurwitz_ints(poly) else MARGINAL_OR_UNSTABLE,
        nilpotency_index=_nilpotency_ints(a),
    )
