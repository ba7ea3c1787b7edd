"""Independent oracles and checks the tests hold the package against.  None
of them is on a pipeline's path:

- an image-domain Radon transform, a Lagrangian (penalized-path) solver, the
  fitted tail decay of a coefficient field and the population Gram from
  dense rows, also averaged over the square's symmetries, as dense signed
  permutation matrices;
- a grid's extent, an atom's dense image and support box, and a sampling
  density's total mass;
- exact enumerations: the best weighted-sparse approximation and the
  restricted constant over admissible supports, the references of
  quasi_best_sparse_approx and delta_star_montecarlo;
- the certification report's delta* rows on the whole window, and the
  nonzero cut of support runs that scans every run;
- SyntheticDiagonalModel, a model whose population normal matrix is
  exactly diagonal;
- the robust null-space witness search, and the truncation residual with
  its certificate-side bound and the uniform-bound probe it takes;
- the per-atom measurement norms at any parameters (atom_norms), which the
  probe, the coherence law and the norm tests read, and the measurement
  blocks of a coefficient vector at any parameters (measure), which the
  dense assembly and the truncation residual read.

sampled_normal is the one pipeline call among them: the sampled normal
matrix of a sample rule, as run_certification_report hands it to
delta_star_montecarlo, for the restricted-constant tests."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from sparsetomo.certify import (GramCertificate, RipEstimate, _draw_supports, _greedy_support,
                                _support_delta, compute_gram, default_quadrature)
from sparsetomo.experiments import build_model
from sparsetomo.models import (_CHUNK, FourierWaveletModel, MeasurementModel, SampledSystem,
                               _nonzero_span, _population_pass, draw_samples,
                               population_gram_matrix)
from sparsetomo.solve import SolveResult, _column_scaling
from sparsetomo.wavelets import DictionaryAtlas, dilation
from sparsetomo.weights import (DimensionMismatch, SparseApproxResult, WeightVector, _coef,
                                _result, _wvec)

BRUTEFORCE_MAX_INDICES = 20
BRUTEFORCE_MAX_WINDOW = 16
_TRIALS = 256       # witness-search trials per pass over A's chunks


def grid_extent(grid) -> tuple[float, float]:
    """The first and last coordinate of a GridSpec."""
    return (grid.x0, grid.x0 + grid.h * (grid.npts - 1))


def atom_image(atlas, idx) -> np.ndarray:
    """The atom's dense image on the atlas grid: its patch at its offsets."""
    img = np.zeros((atlas.grid.npts, atlas.grid.npts))
    patch, i1, i2 = atlas.atom_patch(idx)
    img[i2:i2 + patch.shape[0], i1:i1 + patch.shape[1]] = patch
    return img


def support_box(atlas, idx):
    """((x_lo, x_hi), (y_lo, y_hi)) of the atom's support."""
    d = dilation(idx.scale)
    T = atlas.filter.support_length
    return ((idx.n1 / d, (idx.n1 + T) / d), (idx.n2 / d, (idx.n2 + T) / d))


def density_integral(model) -> float:
    """The sampling density's total mass: its sum over the bandwidth under
    the Fourier model's counting measure, 1 for the other models, whose
    density is identically 1 against a probability measure."""
    if isinstance(model, FourierWaveletModel):
        return float(np.sum(model.density(model.freqs)))
    return 1.0


def radon_image(image: np.ndarray, grid, theta: float, s_grid: np.ndarray,
                step: float | None = None) -> np.ndarray:
    """Line integrals of a pixel image: bilinear interpolation along rotated
    equispaced sample points at step h/2, summed with the step weight."""
    image = np.asarray(image, float)
    h = grid.h
    step = h / 2.0 if step is None else step
    c, s = np.cos(theta), np.sin(theta)
    half = grid_extent(grid)[1] * np.sqrt(2.0) + h
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


def dense_population_gram(model, positions, nodes, wts) -> np.ndarray:
    """The population Gram sum_t w_t quad_weight R_t R_t^T by the quadrature
    rule (nodes, wts), one node's dense rows R_t = model.rows(positions, t)
    at a time."""
    positions = np.asarray(positions, dtype=int)
    n = len(positions)
    G = np.zeros((n, n))
    for t, w in zip(nodes, wts):
        R = model.rows(positions, t)
        G += w * model.quad_weight * (R @ R.T)
    return G


def signed_permutation_matrix(image, sign) -> np.ndarray:
    """The dense matrix S of a signed permutation (image, sign): S e_i =
    sign_i e_image_i."""
    S = np.zeros((len(image), len(image)))
    S[image, np.arange(len(image))] = sign
    return S


def square_group(model, positions) -> list:
    """The dense matrices of the square's eight symmetries on the window,
    P^k and D P^k for k = 0..3, from model.symmetry's quarter turn P and
    diagonal reflection D."""
    P, D = (signed_permutation_matrix(*g) for g in model.symmetry(positions))
    rot = [np.linalg.matrix_power(P, k) for k in range(4)]
    return rot + [D @ R for R in rot]


def averaged_population_gram(model, positions, nodes, wts) -> np.ndarray:
    """The group average (1/8) sum_g S_g G S_g^T of dense_population_gram
    over the square's symmetries on the window (square_group): the Gram
    that the fan beam's folded population pass takes for G."""
    G = dense_population_gram(model, positions, nodes, wts)
    return sum(S @ G @ S.T for S in square_group(model, positions)) / 8.0


# ---------------------------------------------------------------------------
# weighted sparse approximation


class CapacityError(ValueError):
    """Instance too large for an exponential-cost oracle."""


def best_sparse_approx_bruteforce(x, w, s: float, p: float = 1.0) -> SparseApproxResult:
    """Exact minimizer of the weighted l^p tail over supports with w(S) <= s.

    Exponential enumeration; guarded to index sets of size <= 20.  Only
    supports that cannot be enlarged within the budget need checking, since
    growing a support never increases the tail norm.
    """
    xv, wv = _coef(x), _wvec(w)
    if len(xv) != len(wv):
        raise DimensionMismatch(f"coefficient length {len(xv)} != weight length {len(wv)}")
    if len(xv) > BRUTEFORCE_MAX_INDICES:
        raise CapacityError(f"brute force limited to {BRUTEFORCE_MAX_INDICES} indices")
    if not (0.0 < p <= 2.0):
        raise ValueError(f"p must lie in (0, 2], got {p}")
    n = len(xv)
    wsq = wv ** 2
    contrib = np.abs(xv) ** p * wv ** (2.0 - p)
    total = contrib.sum()
    best_tail = np.inf
    best_support: tuple[int, ...] = ()
    for k in range(0, n + 1):
        found_any = False
        for S in combinations(range(n), k):
            wS = wsq[list(S)].sum() if S else 0.0
            if wS > s:
                continue
            found_any = True
            tail = total - (contrib[list(S)].sum() if S else 0.0)
            if tail < best_tail - 1e-15 * max(1.0, total):
                best_tail = tail
                best_support = S
        if not found_any and k > 0:
            break
    return _result(xv, wv, best_support)


# ---------------------------------------------------------------------------
# synthetic model with an exactly diagonal normal operator


class SyntheticDiagonalModel(MeasurementModel):
    """Abstract dictionary whose forward map acts diagonally: the i-th element
    measures as 2^(-b j_i) sqrt(2) cos((i+1) t), a bounded orthonormal family
    under the uniform angle distribution.  The population normal matrix is
    exactly diag(4^(-b j_i)); sampled systems still fluctuate, which makes the
    model a useful ground truth for restricted-isometry estimators."""

    def __init__(self, scale_list, b: float = 0.5):
        self._scales = np.asarray(scale_list, dtype=int)
        self.smoothing_exponent = float(b)

    def labels(self):
        return list(range(len(self._scales)))

    def scales(self) -> np.ndarray:
        return self._scales

    def population_nodes(self, n: int):
        # exact for these harmonics
        return super().population_nodes(max(n, 2 * (len(self._scales) + 2)))

    def rows(self, positions, t) -> np.ndarray:
        positions = np.asarray(positions, int)
        amp = 2.0 ** (-self.smoothing_exponent * self._scales[positions])
        return (amp * np.sqrt(2.0) * np.cos((positions + 1) * float(t)))[:, None]


# ---------------------------------------------------------------------------
# restricted constants, null-space witnesses and truncation


def sampled_normal(model, positions, samples) -> np.ndarray:
    """(1/m) sum_k f_nu(t_k)^-1 F_tk* F_tk over the window: the population
    pass of the m samples at weights 1/(m f_nu), as run_certification_report
    computes it."""
    samples = np.asarray(samples, float)
    return _population_pass(model, positions, samples,
                            1.0 / (len(samples) * model.density(samples)))[0]


def full_window_delta_rows(cfg, lam_grid=(2.0, 4.0), m_grid=(16, 32), mc_trials=64,
                           seed=0) -> list:
    """The (lambda, m, delta*) rows of run_certification_report, evaluated on
    the whole window: each m's sampled_normal over every atom of the window,
    less cert.normal, at the supports that _draw_supports draws for each
    lambda, one support at a time."""
    model = build_model(cfg.model, order=cfg.wavelet_order, j_max=cfg.j_max,
                        s_step=cfg.s_step)
    scales = model.scales()
    window = (np.arange(model.dictionary_size()) if scales is None
              else np.flatnonzero(scales <= cfg.j0))
    omega = WeightVector(model.natural_weights()[window])
    normal = compute_gram(model, window).normal
    diff = {m: sampled_normal(model, window, draw_samples(model, m, seed=seed + 17 * m)) - normal
            for m in m_grid}
    rows = []
    for lam in lam_grid:
        supports = _draw_supports(omega, lam, mc_trials, seed)
        rows += [(lam, m, max([_support_delta(diff[m], normal, S) for S in supports],
                              default=0.0)) for m in m_grid]
    return rows


def delta_star_bruteforce(sampled: np.ndarray, cert: GramCertificate,
                          omega: WeightVector, lam: float) -> RipEstimate:
    """Exact restricted constant by enumeration of admissible supports.

    For each support S with weighted size <= lam, the extreme generalized
    eigenvalue of the normal-matrix difference against the window Gram gives
    the support's contribution; only supports maximal under the budget can
    attain the overall maximum.
    """
    n = len(omega)
    if n > BRUTEFORCE_MAX_WINDOW:
        raise ValueError(f"brute force limited to windows of {BRUTEFORCE_MAX_WINDOW}")
    wsq = omega.values ** 2
    if sampled.shape != (n, n):
        raise ValueError("weight length does not match window")
    M = sampled - cert.normal
    M = 0.5 * (M + M.T)
    best = 0.0
    count = 0
    for mask in range(1, 1 << n):
        S = [i for i in range(n) if mask >> i & 1]
        wS = wsq[S].sum()
        if wS > lam:
            continue
        # skip if extendable: some superset also fits the budget
        if any((mask >> i & 1) == 0 and wS + wsq[i] <= lam for i in range(n)):
            continue
        count += 1
        best = max(best, _support_delta(M, cert.normal, S))
    return RipEstimate(delta_star=best, trials_or_supports=count)


def nonzero_core(owner, cnt, val):
    """Mask of the cells of each owner's run from its first to its last
    nonzero value, or None when every run already starts and ends on one,
    from a scan of every run's cells: models._nonzero_core as it was before
    it scanned only the runs with a zero end."""
    run = cnt > 0
    stop = np.cumsum(cnt)[run]
    if val[stop - cnt[run]].all() and val[stop - 1].all():
        return None
    first, n = _nonzero_span(owner, val, len(cnt))
    i = np.arange(len(val)) - first[owner]
    return (0 <= i) & (i < n[owner])


def rnsp_witness_search(system: SampledSystem, cert: GramCertificate,
                        omega: WeightVector, s: float, n_trials: int = 10000,
                        seed: int = 0) -> float:
    """Randomized search for violations of the robust null-space inequality,
    with rho = 1/2 and kappa = 3 ||G^-1|| / sqrt(2).

    Returns the worst margin (right side minus left side) over random
    (vector, support) pairs; a nonnegative value means no violation found.
    The trials are drawn one by one; ||Q A x|| is taken for _TRIALS of them
    at a time, one product with each dense chunk of A.
    """
    n = len(system.positions)
    kappa = 3.0 * cert.inv_norm / np.sqrt(2.0)
    rng = np.random.default_rng(seed)
    wsq = omega.values ** 2
    q = np.repeat(system.q_weights, system.block_dim)
    worst = np.inf
    for b0 in range(0, n_trials, _TRIALS):
        X = np.empty((n, min(_TRIALS, n_trials - b0)))
        lhs, tail1 = np.empty(X.shape[1]), np.empty(X.shape[1])
        for j in range(X.shape[1]):
            x = rng.standard_normal(n)
            if rng.random() < 0.5:
                k = rng.integers(1, n + 1)
                x[rng.choice(n, size=n - k, replace=False)] = 0.0
            X[:, j] = x
            mask = np.zeros(n, dtype=bool)
            mask[_greedy_support(rng.permutation(n), wsq, s)] = True
            lhs[j] = np.linalg.norm(x[mask])
            tail1[j] = np.sum(np.abs(x[~mask]) * omega.values[~mask])
        qax = np.zeros(X.shape[1])          # ||Q A x||^2 of each trial
        for rows, block in system.dense_chunks():
            block *= q[rows, None]
            P = block @ X
            qax += np.einsum("ij,ij->j", P, P)
        rhs = 0.5 / np.sqrt(s) * tail1 + kappa * np.sqrt(qax)
        worst = min(worst, float((rhs - lhs).min()))
    return float(worst)


@dataclass
class TruncationReport:
    residual: float        # measured ||Q A P_window^perp x||
    bound: float           # measured-constant side of the comparison
    tail_norm: float       # r = ||P_window^perp x||_2
    tail_opnorm: float     # forward-map operator norm on the stored tail; nan without a cert
    tail_truncated: bool   # the tail only covers scales up to the atlas j_max


def truncation_residual(system: SampledSystem, model, x_full,
                        cert: GramCertificate | None = None,
                        c_uniform: float | None = None) -> TruncationReport:
    """Measured energy the sampled operator picks up from coefficients outside
    the reconstruction window, against the certificate-side bound.

    The out-of-window operator norm is itself truncated at the dictionary's
    finest built scale, which is flagged in the report.
    """
    x_full = np.asarray(x_full, float)
    if len(x_full) != model.dictionary_size():
        raise ValueError(f"x_full has {len(x_full)} coefficients, the dictionary "
                         f"{model.dictionary_size()}")
    tail = np.setdiff1d(np.arange(len(x_full)), system.positions)
    x_tail = x_full[tail]
    r = float(np.linalg.norm(x_tail))
    scale = np.sqrt(model.quad_weight / system.m)
    supp = tail[np.flatnonzero(x_tail)]
    stacked = (system.q_weights * scale)[:, None] * measure(model, supp, x_full[supp],
                                                            system.samples)
    residual = float(np.linalg.norm(stacked))
    tail_opnorm = bound = float("nan")
    if cert is not None:   # the tail Gram only feeds the bound
        tail_opnorm = 0.0
        if len(tail):
            tail_normal = population_gram_matrix(model, tail, default_quadrature(model, tail))
            tail_opnorm = float(np.sqrt(max(np.linalg.eigvalsh(tail_normal).max(), 0.0)))
        cF = c_uniform if c_uniform is not None else uniform_bound_probe(model, system.positions)
        bound = cF * model.c_nu ** -0.5 * (tail_opnorm * cert.inv_norm + 1.0) * r
    return TruncationReport(residual=residual, bound=bound, tail_norm=r,
                            tail_opnorm=tail_opnorm, tail_truncated=True)


def measure(model, positions, x, t) -> np.ndarray:
    """The measurement block sum_i x_i rows_i of coefficients x over
    positions at parameter t, one bincount per group of the model's _runs,
    _CHUNK parameters at a time; for a vector t, one block per row.  The
    oracle of the models' _data: the default's sum over the runs, which
    RadonModel._data forms from lattice deposits instead."""
    positions, x = np.asarray(positions, dtype=int), np.asarray(x, float)
    ts = np.atleast_1d(np.asarray(t, float))
    out = np.zeros((len(ts), model.block_dim))
    for k0 in range(0, len(ts), _CHUNK):
        blk = out[k0:k0 + _CHUNK].reshape(-1)
        for k, atom, col, val in model._runs(positions, ts[k0:k0 + _CHUNK]):
            blk += np.bincount(k * model.block_dim + col, weights=val * x[atom],
                               minlength=len(blk))
    return out if np.ndim(t) else out[0]


def atom_norms(model, positions, t) -> np.ndarray:
    """Per-atom measurement norms at parameter t, from the support runs of
    _CHUNK parameters per _runs call, masked by parameter; for a vector t,
    one row per parameter, each the one-parameter call's bit for bit."""
    positions, ts = np.asarray(positions, dtype=int), np.atleast_1d(np.asarray(t, float))
    n, out = len(positions), np.empty((len(ts), len(positions)))
    for k0 in range(0, len(ts), _CHUNK):
        k, atom, col, val = map(np.concatenate, zip(*model._runs(positions, ts[k0:k0 + _CHUNK])))
        for i in range(min(_CHUNK, len(ts) - k0)):
            out[k0 + i] = model._row_norms(n, atom[k == i], col[k == i], val[k == i])
    return out if np.ndim(t) else out[0]


def uniform_bound_probe(model, positions, n_angles: int = 64, seed: int = 0) -> float:
    """Measured uniform bound: max over random parameters and window atoms of
    the per-atom measurement norm (atom norms are 1)."""
    ts = model.sample(n_angles, np.random.default_rng(seed))
    return float(atom_norms(model, positions, ts).max(initial=0.0))
