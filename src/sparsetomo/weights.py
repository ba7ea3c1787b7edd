"""Weighted norms, weighted sparsity, and best / quasi-best sparse approximation.

All vectors are real (tomography signals are real-valued); weights are >= 1
entrywise.  The quasi-best approximation keeps the maximal prefix of the
non-increasing rearrangement of |x_i| / w_i whose weighted size fits the
budget.  The exact (brute-force) minimizer it is checked against is a test
oracle (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DimensionMismatch(ValueError):
    """Index sets of the operands disagree."""


@dataclass(frozen=True)
class WeightVector:
    """Per-index weights w_i >= 1 over a finite index set."""

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if v.ndim != 1:
            raise ValueError("weights must be one-dimensional")
        if not np.all(np.isfinite(v)):
            raise ValueError("weights must be finite")
        if np.any(v < 1.0):
            raise ValueError("weights must be >= 1")
        object.__setattr__(self, "values", v)

    def __len__(self):
        return len(self.values)

    @classmethod
    def ones(cls, n: int) -> "WeightVector":
        return cls(np.ones(n))


@dataclass(frozen=True)
class SparseApproxResult:
    """A support, its weighted size, and the tail norms outside it."""

    support: tuple[int, ...]
    error_p1: float
    error_p2: float
    weighted_size: float


def _coef(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=float))


def _wvec(w) -> np.ndarray:
    if isinstance(w, WeightVector):
        return w.values
    return WeightVector(np.asarray(w, dtype=float)).values


def weighted_norm(x, w, p: float) -> float:
    """The w-weighted l^p norm (sum_i |x_i|^p w_i^(2-p))^(1/p), 0 < p <= 2.

    For p = 2 the weights drop out and this is the Euclidean norm; for p = 1
    it is sum |x_i| w_i.
    """
    xv, wv = _coef(x), _wvec(w)
    if len(xv) != len(wv):
        raise DimensionMismatch(f"coefficient length {len(xv)} != weight length {len(wv)}")
    if not (0.0 < p <= 2.0):
        raise ValueError(f"p must lie in (0, 2], got {p}")
    return float(np.sum(np.abs(xv) ** p * wv ** (2.0 - p)) ** (1.0 / p))


def weighted_size(indices, w) -> float:
    """Weighted size of a subset: sum of w_i^2 over the subset."""
    wv = _wvec(w)
    idx = np.asarray(sorted(set(int(i) for i in indices)), dtype=int)
    if idx.size == 0:
        return 0.0
    if idx.min() < 0 or idx.max() >= len(wv):
        raise IndexError("subset index out of range")
    return float(np.sum(wv[idx] ** 2))


def _tail_norms(xv, wv, support):
    mask = np.ones(len(xv), dtype=bool)
    if support:
        mask[list(support)] = False
    tail = xv * mask
    e1 = float(np.sum(np.abs(tail) * wv))
    e2 = float(np.sqrt(np.sum(tail * tail)))
    return e1, e2


def _result(xv, wv, support) -> SparseApproxResult:
    support = tuple(sorted(int(i) for i in support))
    e1, e2 = _tail_norms(xv, wv, support)
    return SparseApproxResult(
        support=support,
        error_p1=e1,
        error_p2=e2,
        weighted_size=weighted_size(support, WeightVector(wv)),
    )


def quasi_best_sparse_approx(x, w, s: float, p: float = 1.0) -> SparseApproxResult:
    """Greedy surrogate of the best s-w-sparse approximation.

    Sort |x_i| / w_i non-increasingly (ties broken by ascending index for
    determinism) and keep the longest prefix whose weighted size stays <= s.
    The kept prefix does not depend on p; the error fields report the tail in
    the weighted l1 and plain l2 norms.
    """
    xv, wv = _coef(x), _wvec(w)
    if len(xv) != len(wv):
        raise DimensionMismatch(f"coefficient length {len(xv)} != weight length {len(wv)}")
    if s < 0:
        raise ValueError("sparsity budget must be >= 0")
    if not (0.0 < p <= 2.0):
        raise ValueError(f"p must lie in (0, 2], got {p}")
    ratio = np.abs(xv) / wv
    order = np.lexsort((np.arange(len(xv)), -ratio))
    csum = np.cumsum(wv[order] ** 2)
    keep = int(np.searchsorted(csum, s, side="right"))
    kept = [int(i) for i in order[:keep] if xv[i] != 0.0]  # zeros add nothing
    return _result(xv, wv, kept)


def stechkin_bound(x, w, s: float, p: float, q: float) -> float:
    """Tail bound s^(1/q - 1/p) * ||x||_{p,w} for 0 < p < q <= 2, s > 0.

    Callers may assert that the best (and quasi-best) s-w-sparse tail in the
    weighted l^q norm never exceeds the returned value.
    """
    if not (0.0 < p < q <= 2.0):
        raise ValueError(f"need 0 < p < q <= 2, got p={p}, q={q}")
    if s <= 0:
        raise ValueError("s must be positive")
    return float(s ** (1.0 / q - 1.0 / p) * weighted_norm(x, w, p))
