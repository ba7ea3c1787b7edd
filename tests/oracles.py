"""Independent oracles the tests check the package against: an image-domain
Radon transform, a Lagrangian (penalized-path) solver, the fitted tail
decay of a coefficient field and the population Gram from dense rows.  None
of them is on a pipeline's path."""

from __future__ import annotations

import numpy as np

from sparsetomo.solve import SolveResult, _column_scaling
from sparsetomo.wavelets import DictionaryAtlas
from sparsetomo.weights import WeightVector


def radon_image(image: np.ndarray, grid, theta: float, s_grid: np.ndarray,
                step: float | None = None) -> np.ndarray:
    """Line integrals of a pixel image: bilinear interpolation along rotated
    equispaced sample points at step h/2, summed with the step weight."""
    image = np.asarray(image, float)
    h = grid.h
    step = h / 2.0 if step is None else step
    c, s = np.cos(theta), np.sin(theta)
    half = grid.extent[1] * np.sqrt(2.0) + h
    ts = np.arange(-half, half + step, step)
    X = s_grid[:, None] * c - ts[None, :] * s
    Y = s_grid[:, None] * s + ts[None, :] * c
    gx = (X - grid.x0) / h
    gy = (Y - grid.x0) / h
    i0 = np.floor(gx).astype(int)
    j0 = np.floor(gy).astype(int)
    fx = gx - i0
    fy = gy - j0
    n = grid.npts
    valid = (i0 >= 0) & (i0 < n - 1) & (j0 >= 0) & (j0 < n - 1)
    i0c = np.clip(i0, 0, n - 2)
    j0c = np.clip(j0, 0, n - 2)
    v = (image[j0c, i0c] * (1 - fx) * (1 - fy)
         + image[j0c, i0c + 1] * fx * (1 - fy)
         + image[j0c + 1, i0c] * (1 - fx) * fy
         + image[j0c + 1, i0c + 1] * fx * fy)
    v = np.where(valid, v, 0.0)
    return v.sum(axis=1) * step


def solve_penalized_path(system, omega: WeightVector, penalties,
                         zeta: float = 0.0, max_iters: int = 20000, tol: float = 1e-10):
    """Lagrangian sweep min pen * ||W^-zeta x||_{1,omega} + 0.5 ||Ax-y||^2 by
    accelerated iterative soft thresholding, one result per penalty.

    Serves as an independent oracle: residuals decrease along decreasing
    penalties, and the member bracketing a constraint radius should agree
    with the constrained solver's objective."""
    penalties = list(penalties)
    if any(p <= 0 for p in penalties):
        raise ValueError("penalties must be positive")
    if sorted(penalties, reverse=True) != penalties:
        raise ValueError("penalties must be decreasing")
    scales = system.model.scales()
    sc = None if scales is None else scales[system.positions]
    col = _column_scaling(sc, zeta, len(system.positions))
    w = omega.values
    H, b = system.gram(col, system.y)
    L = float(np.linalg.eigvalsh(H).max())
    out = []
    z = np.zeros_like(col)
    for pen in penalties:
        thr = pen * w / L
        v = z.copy()
        t_acc = 1.0
        z_prev = z.copy()
        for it in range(1, max_iters + 1):
            grad = H @ v - b
            zn = v - grad / L
            zn = np.sign(zn) * np.maximum(np.abs(zn) - thr, 0.0)
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc ** 2))
            v = zn + (t_acc - 1.0) / t_new * (zn - z_prev)
            step = float(np.linalg.norm(zn - z_prev))
            z_prev = zn
            t_acc = t_new
            if step <= tol * max(1.0, float(np.linalg.norm(zn))):
                break
        z = z_prev
        x_hat = col * z
        obj = float(np.sum(np.abs(z) * w))
        res = system.residual_norm(col * z)
        out.append(SolveResult(x_hat=x_hat, objective=obj, residual=res,
                               iterations=it, gap=float("nan"), status="optimal"))
    return out


def tail_decay_exponent(atlas: DictionaryAtlas, x) -> float:
    """Fitted slope -a of log2 out-of-window energy against the window scale.

    Windows whose tail holds fewer than three further scales are excluded:
    there the geometric series is visibly truncated and the local slope
    steepens regardless of the underlying decay."""
    x = np.asarray(x, float)
    j_hi = max(atlas.j_max - 3, 0)
    js, ys = [], []
    for j in range(min(j_hi, atlas.j_max - 1) + 1):
        tail = x[atlas.scales > j]
        nrm = float(np.linalg.norm(tail))
        if nrm > 0:
            js.append(float(j))
            ys.append(np.log2(nrm))
    if len(js) < 2:
        return float("nan")
    js = np.asarray(js)
    ys = np.asarray(ys)
    jc = js - js.mean()
    return float(-(jc @ (ys - ys.mean())) / (jc @ jc))


def dense_population_gram(model, positions, n_quad: int) -> np.ndarray:
    """The population Gram sum_t w_t quad_weight R_t R_t^T by quadrature,
    one node's dense rows R_t = model.rows(positions, t) at a time."""
    positions = np.asarray(positions, dtype=int)
    nodes, wts = model.population_nodes(n_quad)
    n = len(positions)
    G = np.zeros((n, n))
    for t, w in zip(nodes, wts):
        R = model.rows(positions, t)
        G += w * model.quad_weight * (R @ R.T)
    return G
