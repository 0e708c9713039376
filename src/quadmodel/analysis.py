"""Controllability, observability, and open-loop stability classification,
each decided exactly for the model as stored, on the integers of linalg's
kernel, at any scale of its entries.

Stability is reported as a binary class: strictly stable (Hurwitz) or not.
Separating "marginal" from "unstable" for repeated eigenvalues at the
origin would need Jordan-structure analysis that nothing downstream uses;
the claim that matters is "not asymptotically stable".
"""

from __future__ import annotations

from ._record import Record
from .linalg import (StateSpaceModel, char_poly_ints, int_rows, is_hurwitz_ints, nilpotency_index,
                     rounded_poly, row_times, span_add)

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
    """Rank of [B, AB, ..., A^(n-1) B], exactly: block k of (2^s A, 2^t B)
    is a positive multiple of A^k B. The span grows block by block up to n,
    or until a block adds nothing, when no later one can either (Kalman)."""
    at = int_rows(a.T.tolist())[0]
    block = int_rows(b.T.tolist())[0]  # the columns of 2^t B
    basis: list = []
    while sum(span_add(basis, col) for col in block) and len(basis) < len(at):
        block = [row_times(col, at, 0).items() for col in block]
    return len(basis)


def controllability_rank(m: StateSpaceModel) -> int:
    return _kalman_rank(m.A, m.B)


def observability_rank(m: StateSpaceModel) -> int:
    return _kalman_rank(m.A.T, m.C.T)


def analyze(m: StateSpaceModel) -> AnalysisReport:
    """Full structural report on one model."""
    ctrb = controllability_rank(m)
    obsv = observability_rank(m)
    poly = char_poly_ints(m.A.tolist())
    return AnalysisReport(
        controllability_rank=ctrb,
        observability_rank=obsv,
        is_controllable=ctrb == m.n,
        is_observable=obsv == m.n,
        open_loop_char_poly=tuple(rounded_poly(*poly)),
        stability_class=STRICTLY_STABLE if is_hurwitz_ints(poly[0]) else MARGINAL_OR_UNSTABLE,
        nilpotency_index=nilpotency_index(m.A),
    )
