"""Controllability, observability, and open-loop stability classification,
each decided exactly for the model as stored, on the integers of linalg's
kernel, at any scale of its entries. analyze_rows converts A to integers
once and reads both ranks, the polynomial and the nilpotency index from
it, without numpy, for the CLI.

Stability is reported as a binary class: strictly stable (Hurwitz) or not.
Separating "marginal" from "unstable" for repeated eigenvalues at the
origin would need Jordan-structure analysis that nothing downstream uses;
the claim that matters is "not asymptotically stable".
"""

from __future__ import annotations

from . import _twin
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


def _kalman_rank(a, b) -> int:
    """Rank of the span of b, b a, b a^2, ..., exactly, for integer rows as
    int_rows gives them: block k is a positive multiple of (A^k B)^T on the
    rows of (2^s A)^T and of 2^t B^T, and of C A^k on those of 2^s A and 2^t C.
    Only the rows that span_add accepts are carried to the next block: a row
    the span already holds maps into the span of the accepted rows' images
    (Krylov). The span grows until a block adds nothing, when no later one
    can either (Kalman), or until it reaches n."""
    basis: dict = {}
    while b and len(basis) < len(a):
        b = [row_times(row, a, 0).items() for row in b if span_add(basis, row)]
    return len(basis)


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


def __getattr__(name):  # a numpy twin, in quadmodel.arrays
    return _twin(__name__, name)
