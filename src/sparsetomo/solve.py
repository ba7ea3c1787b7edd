"""Constrained weighted-l1 reconstruction.

The constrained problem  min ||W^-zeta x||_{1,omega}  s.t.  ||A x - y|| <= eta
is solved after the change of variables x = W^zeta z, which turns the
objective into a plain weighted l1 norm and rescales the columns of A.  One
compression of the column-scaled system gives its singular values and right
singular vectors, the data in the left singular basis and the least-squares
residual that decides feasibility.  ADMM on the split u = z, v = K z (as in
C-SALSA; Afonso, Bioucas-Dias & Figueiredo, IEEE TIP 2011) then solves the
compressed problem: in the singular basis (I + K^T K)^-1 is diagonal, so an
iteration costs two products with the singular vectors.  The penalty is
rho = 10 ||w|| L / ||yt|| on the system normalized by its norm L, which no
rescaling of y, eta or w changes.  Every check_every iterations the duality
gap and feasibility of u certify it.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

from .models import SampledSystem
from .weights import WeightVector

try:    # glibc's; elsewhere the heap stays as the C library's allocator leaves it
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


@dataclass
class SolveConfig:
    zeta: float = 0.0
    eta: float = 0.0
    max_iters: int = 50000
    tol_gap: float = 1e-8
    tol_feas: float = 1e-6
    check_every: int = 50

    def __post_init__(self):
        if self.tol_gap <= 0 or self.tol_feas <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.check_every < 1:
            raise ValueError("check_every must be >= 1")
        if not (0.0 <= self.zeta <= 1.0):
            raise ValueError("zeta must lie in [0, 1]")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")


@dataclass
class SolveResult:
    x_hat: np.ndarray
    objective: float
    residual: float
    iterations: int
    gap: float
    status: str
    trace: list = field(default_factory=list, repr=False)


def _compress(A, y: np.ndarray, col: np.ndarray):
    """(root, V, yt, off) in the solver's variables (x = col * z): the
    nonzero singular values root of the column-scaled A, its right singular
    vectors V (n, len(root)), the data yt in the left singular basis and the
    squared least-squares residual off, so that with K = diag(root) V^T
    ||A (col z) - y||^2 = ||K z - yt||^2 + off for every z.  Tall systems use
    the eigenpairs of A.gram(col, y), which the SampledSystem A streams from
    its runs; short ones take an SVD of their dense rows, so the condition
    number is not squared.  The tall offset is evaluated in the original
    geometry through A.matvec; a norm difference would cancel on consistent
    data.
    """
    m, n = A.shape
    if m <= n:
        U, sv, Vt = np.linalg.svd(A.matrix * col[None, :], full_matrices=False)
        keep = sv > sv[0] * max(m, n) * np.finfo(float).eps
        yt = U[:, keep].T @ y
        return sv[keep], Vt[keep].T, yt, float(np.linalg.norm(y - U[:, keep] @ yt) ** 2)
    _trim_heap()
    H, b = A.gram(col, y)
    _trim_heap()
    evals, V = np.linalg.eigh(H)
    del H
    _trim_heap()
    evals = np.clip(evals, 0.0, None)
    keep = evals > max(evals[-1], 1e-300) * 1e-15
    root = np.sqrt(evals[keep])
    Vk = V[:, keep]
    yt = (Vk.T @ b) / root
    z_ls = Vk @ (yt / root)
    off = float(max(np.linalg.norm(A.matvec(col * z_ls) - y) ** 2
                    - np.linalg.norm(root * (Vk.T @ z_ls) - yt) ** 2, 0.0))
    return root, Vk, yt, off


def _trim_heap():
    """Hands the C heap's free pages back to the system (glibc's malloc_trim;
    elsewhere nothing).  Once glibc's mmap threshold has risen past a
    solve's megabyte arrays, it serves them from its heap, where the freed
    ones stay resident.  _compress trims around its two peaks, the Gram and
    eigh, so a run's peak does not hang on how its arrays fell into the
    heap's holes (it moved by 5-10 MiB from run to run without)."""
    if _malloc_trim is not None:
        _malloc_trim(0)


def _column_scaling(scales, zeta: float, n: int) -> np.ndarray:
    """col = W^zeta, W = diag(2^(j/2)) over the window's scales j."""
    if scales is None:
        if zeta != 0.0:
            raise ValueError("zeta-weighted solve needs a multiscale dictionary")
        return np.ones(n)
    return (2.0 ** (0.5 * np.asarray(scales, float))) ** zeta


def solve_constrained_l1(system, omega: WeightVector, cfg: SolveConfig) -> SolveResult:
    """Solve the constrained problem on a sampled system."""
    scales = system.model.scales()
    sc = None if scales is None else scales[system.positions]
    return solve_constrained_l1_matrix(system, system.y, omega, cfg, scales=sc)


def solve_constrained_l1_matrix(A, y: np.ndarray, omega: WeightVector,
                                cfg: SolveConfig, scales=None) -> SolveResult:
    """ADMM solve of min ||W^-zeta x||_{1,omega} s.t. ||Ax-y|| <= eta.

    A is a SampledSystem or a dense matrix.  `infeasible` when the
    least-squares residual exceeds eta.  Otherwise reports the lowest-gap
    iterate among those feasible within the configured slack, so the recorded
    gap sequence is non-increasing; status is `optimal` once that iterate's
    duality gap clears tol_gap.  The gap bounds the iterate's objective
    against the problem at its own residual radius (at least eta), so it is
    never negative.
    """
    y = np.asarray(y, float)
    if not isinstance(A, SampledSystem):   # a dense A, held as one-row samples
        A = SampledSystem(model=None, positions=np.arange(np.shape(A)[1]),
                          samples=np.zeros(len(y)), q_weights=np.ones(len(y)), y=y,
                          noise_bound=0.0, matrix=np.asarray(A, float))
    n = A.shape[1]
    w = omega.values
    if len(w) != n:
        raise ValueError(f"weight length {len(w)} != {n} columns")
    col = _column_scaling(scales, cfg.zeta, n)   # x = col * z

    root, V, yt, off = _compress(A, y, col)
    ls_res = float(np.sqrt(off))
    if ls_res > cfg.eta * (1.0 + cfg.tol_feas) + 1e-12:
        return SolveResult(x_hat=np.zeros(n), objective=0.0, residual=ls_res,
                           iterations=0, gap=float("inf"), status="infeasible")
    L = float(root.max(initial=0.0))
    if L == 0.0:
        x0 = np.zeros(n)
        return SolveResult(x_hat=x0, objective=0.0, residual=float(np.linalg.norm(y)),
                           iterations=0, gap=0.0, status="optimal")
    eta_c = float(np.sqrt(max(cfg.eta ** 2 - off, 0.0)))
    # ADMM on u = z, v = (K/L) z with scaled duals a, c; K/L = diag(r) V^T
    r, yn, en = root / L, yt / L, eta_c / L
    ny = float(np.linalg.norm(yt))
    rho = 10.0 * float(np.linalg.norm(w)) * L / ny if ny > 0 else 1.0
    thr = w / rho
    u, a, v, c = np.zeros(n), np.zeros(n), np.zeros(len(r)), np.zeros(len(r))
    best = None
    trace = []
    status = "max_iters"
    it = 0
    for it in range(1, cfg.max_iters + 1):
        # z = (I + V diag(r^2) V^T)^-1 (g + V diag(r) (v - c)), g = u - a;
        # g's part outside range(V) passes through unchanged
        g = u - a
        t = V.T @ g
        coef = (t + r * (v - c)) / (1.0 + r * r)
        z = g + V @ (coef - t)
        kz = r * coef                        # (K/L) z
        u = z + a
        u = np.sign(u) * np.maximum(np.abs(u) - thr, 0.0)
        q = kz + c - yn                      # v: kz + c projected on the ball
        nq = float(np.linalg.norm(q))
        v = yn + q * (en / nq if nq > en else 1.0)
        a += z - u
        c += kz - v
        if it % cfg.check_every == 0 or it == cfg.max_iters:
            obj = float(np.sum(np.abs(u) * w))
            rc = float(np.linalg.norm(root * (V.T @ u) - yt))
            res = float(np.sqrt(rc ** 2 + off))
            p = rho / L * c                  # the dual of ||K u - yt|| <= eta_c
            dscale = max(1.0, float(np.max(np.abs(V @ (root * p)) / w)))
            pd = p / dscale
            # the dual at u's own radius: u is feasible there, so weak
            # duality keeps the gap >= 0, and the radius tends to eta_c
            dual = -float(pd @ yt) - max(eta_c, rc) * float(np.linalg.norm(pd))
            gap = obj - dual
            # only feasible iterates can claim the certificate
            feasible = res <= cfg.eta * (1.0 + cfg.tol_feas) + 1e-12
            if feasible and (best is None or gap < best[0]):
                best = (gap, u, obj, res)
            if best is not None:
                trace.append((it, best[3], best[2], best[0]))
                if best[0] <= cfg.tol_gap * max(1.0, best[2]):
                    status = "optimal"
                    break
    if best is None:   # no feasible iterate: report the last one
        best = (float("inf"), u, float(np.sum(np.abs(u) * w)),
                float(np.sqrt(np.linalg.norm(root * (V.T @ u) - yt) ** 2 + off)))
    gap, u_best, obj, res = best
    return SolveResult(x_hat=col * u_best, objective=obj, residual=res,
                       iterations=it, gap=gap, status=status, trace=trace)
