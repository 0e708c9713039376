"""Controllability, observability, and open-loop stability classification.

Stability is reported as a binary class: strictly stable (Hurwitz) or not.
Separating "marginal" from "unstable" for repeated eigenvalues at the
origin would need Jordan-structure analysis that nothing downstream uses;
the claim that matters is "not asymptotically stable".
"""

from __future__ import annotations

import numpy as np

from ._record import Record
from .linalg import StateSpaceModel, char_poly, is_hurwitz, nilpotency_index, rank

STRICTLY_STABLE = "strictly_stable"
MARGINAL_OR_UNSTABLE = "marginal_or_unstable"

RANK_REL_TOL = 1e-9


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
    blocks = []
    block = m.B
    for _ in range(m.n):
        blocks.append(block)
        block = m.A @ block
    return np.hstack(blocks)


def observability_matrix(m: StateSpaceModel) -> np.ndarray:
    """Stacked [C; CA; ...; C A^(n-1)], shape (n*q) x n."""
    blocks = []
    block = m.C
    for _ in range(m.n):
        blocks.append(block)
        block = block @ m.A
    return np.vstack(blocks)


def controllability_rank(m: StateSpaceModel) -> int:
    return rank(controllability_matrix(m), RANK_REL_TOL)


def observability_rank(m: StateSpaceModel) -> int:
    return rank(observability_matrix(m), RANK_REL_TOL)


def analyze(m: StateSpaceModel) -> AnalysisReport:
    """Full structural report on one model."""
    ctrb = controllability_rank(m)
    obsv = observability_rank(m)
    poly = char_poly(m.A)
    return AnalysisReport(
        controllability_rank=ctrb,
        observability_rank=obsv,
        is_controllable=ctrb == m.n,
        is_observable=obsv == m.n,
        open_loop_char_poly=tuple(float(c) for c in poly),
        stability_class=STRICTLY_STABLE if is_hurwitz(poly) else MARGINAL_OR_UNSTABLE,
        nilpotency_index=nilpotency_index(m.A),
    )
