"""Numerical certification of the recovery machinery.

Builds the window Gram matrix and its square root, measures coherence and
quasi-diagonalization constants, estimates the restricted-isometry constant
of a sampled system by randomized support search, and evaluates
sample-complexity rules.  The exact enumeration of the restricted constant,
the null-space witness search and the truncation residual are test oracles
(tests/oracles.py); the pipeline's truncation residual is the system's
tail_residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import SampledSystem, _population_pass
# bound here so that perfbench/tracing.py can time it as certify's Gram layer
from .models import population_gram_matrix  # noqa: F401
from .weights import WeightVector


class NumericalConsistencyError(RuntimeError):
    """A certified quantity failed its internal consistency check."""


@dataclass
class GramCertificate:
    """The window Gram square root and the constants measured around it."""

    G: np.ndarray
    normal: np.ndarray               # G^T G, the population normal matrix
    sigma_min: float
    sigma_max: float
    inv_norm: float
    quasi_diag: tuple                # (b, c_hat, C_hat)
    b_fit: float
    coherence_B: float
    d_exponents: np.ndarray          # measured per-scale normalizers d_j
    scale_coherence_max: np.ndarray  # per-scale max_n sup_t ||F_t phi|| / sqrt(f_nu)
    relative_coherence: float
    fbi_flag: bool
    scales: np.ndarray | None
    positions: np.ndarray
    n_quad: int
    sigma_min_shift: float | None = None

    @property
    def smoothing_exponent(self) -> float:
        return self.quasi_diag[0]


def _matrix_sqrt(normal: np.ndarray):
    evals, evecs = np.linalg.eigh(normal)
    if evals.min() < -1e-10:
        raise NumericalConsistencyError(
            f"population normal matrix has eigenvalue {evals.min():.3e} < -1e-10")
    fbi_flag = bool(evals.min() <= 0.0)
    evals = np.clip(evals, 0.0, None)
    G = (evecs * np.sqrt(evals)) @ evecs.T
    return G, evals, fbi_flag


def default_quadrature(model, positions) -> int:
    scales = model.scales()
    if scales is None:
        return model.dictionary_size() + 2
    top = int(scales[np.asarray(positions, int)].max())
    return max(64, 32 * 2 ** top)


def _decay_fit(scales, log2_sq_norms, fallback: float) -> float:
    """Fitted decay exponent of per-atom squared norms against the scale.

    The scaling layer (scale 0) carries a different generator and the finest
    scale is resolution-limited, so the regression runs over the interior
    wavelet scales whenever at least two of them exist."""
    sc = np.asarray(scales, float)
    top = sc.max()
    hi = top - 1 if top >= 3 else top
    mask = (sc >= 1) & (sc <= hi)
    if len(np.unique(sc[mask])) < 2:
        mask = sc >= 1
    if len(np.unique(sc[mask])) < 2:
        return fallback
    x = sc[mask]
    y = np.asarray(log2_sq_norms, float)[mask]
    xc = x - x.mean()
    return float(-0.5 * (xc @ (y - y.mean())) / (xc @ xc))


def _coherence_report(norms, density, sc, b, omega):
    """Per-scale coherence maxima and the measured bound constants, from
    (node, per-atom norms) pairs; a maximum, so the node order is free."""
    n_scales = int(sc.max()) + 1
    per_scale = np.zeros(n_scales)
    for t, nr in norms:
        nr = nr / np.sqrt(density(t))
        for j in range(n_scales):
            sel = sc == j
            if sel.any():
                per_scale[j] = max(per_scale[j], float((nr[sel] / omega[sel]).max()))
    ref = per_scale[per_scale > 0].max()
    with np.errstate(divide="ignore"):
        d = np.where(per_scale > 0, ref / per_scale, 1.0)
    d = np.clip(d, 1.0, 2.0 ** (b * np.arange(n_scales)))
    B = float(max(1.0, (per_scale * d).max()))
    rel = float((B / d * 2.0 ** (b * np.arange(n_scales))).max())
    return per_scale, d, B, rel


def compute_gram(model, positions, n_quad: int | None = None,
                 omega: WeightVector | None = None,
                 check_convergence: bool = False,
                 quasi_diag_probes: int = 200, seed: int = 0) -> GramCertificate:
    """Population Gram square root over a dictionary window, with measured
    coherence and quasi-diagonalization constants.

    The Gram entries are parameter-space quadratures of measurement-space
    inner products; the square root comes from a symmetric eigendecomposition
    with eigenvalues in [-1e-10, 0] clamped to zero (flagging a restricted
    injectivity failure) and anything more negative treated as a quadrature
    inconsistency.

    One pass over the quadrature nodes (models._population_pass) serves
    every consumer: the n_quad Gram, the 2 n_quad Gram of check_convergence,
    and the coherence norms at min(n_quad, 64) nodes, which are the norms of
    the same rows (every model's atom_norms, bit for bit).  The uniform rules
    of the tomographic models are nested (the n-node rule is every other node
    of the 2n-node rule, bit for bit), so the runs at each distinct angle are
    computed once; each Gram takes SampledSystem.gram's hit-row products and
    equals population_gram_matrix under its own rule.
    FourierWaveletModel.population_nodes ignores n, so its doubling check
    compares the same exact quadrature and its shift is 0 by construction.
    """
    positions = np.asarray(positions, dtype=int)
    if n_quad is None:
        n_quad = default_quadrature(model, positions)
    rules = [model.population_nodes(n_quad)]
    if check_convergence:
        rules.insert(0, model.population_nodes(2 * n_quad))
    coh_nodes, _ = model.population_nodes(min(n_quad, 64))
    grams, norms = _population_pass(model, positions, rules, coh_nodes)
    normal = grams[-1]
    G, evals, fbi_flag = _matrix_sqrt(normal)
    sigma_min = float(np.sqrt(evals.min()))
    sigma_max = float(np.sqrt(evals.max()))
    shift = None
    if check_convergence:
        s2 = float(np.sqrt(max(np.linalg.eigvalsh(grams[0]).min(), 0.0)))
        shift = abs(sigma_min - s2) / max(s2, 1e-300)
        if shift > 0.01:
            raise NumericalConsistencyError(
                f"sigma_min moved by {shift:.1%} when doubling the quadrature")
    scales = model.scales()
    b = model.smoothing_exponent
    omega_v = np.ones(len(positions)) if omega is None else omega.values
    sc = np.zeros(len(positions), dtype=int) if scales is None else scales[positions]
    per_scale, d_exp, B, rel = _coherence_report(norms, model.density, sc, b, omega_v)

    # quasi-diagonalization constants: ratios x^T normal x / sum 2^(-2bj) x^2
    wgt = 2.0 ** (-2.0 * b * sc)
    diag = np.diag(normal)
    ratios = list(diag / wgt)
    rng = np.random.default_rng(seed)
    for _ in range(quasi_diag_probes):
        x = rng.standard_normal(len(positions))
        ratios.append(float(x @ normal @ x) / float(wgt @ (x * x)))
    c_hat, C_hat = float(min(ratios)), float(max(ratios))

    # b_fit: per-atom regression of log2 ||F phi||^2 against the scale
    b_fit = b
    if scales is not None and sc.max() > sc.min():
        b_fit = _decay_fit(sc, np.log2(np.maximum(diag, 1e-300)), b)

    inv_norm = float("inf") if sigma_min == 0.0 else 1.0 / sigma_min
    return GramCertificate(
        G=G, normal=normal, sigma_min=sigma_min, sigma_max=sigma_max,
        inv_norm=inv_norm, quasi_diag=(b, c_hat, C_hat), b_fit=b_fit,
        coherence_B=B, d_exponents=d_exp, scale_coherence_max=per_scale,
        relative_coherence=rel, fbi_flag=fbi_flag, scales=scales,
        positions=positions, n_quad=n_quad, sigma_min_shift=shift)


@dataclass
class RipEstimate:
    """Estimated restricted-isometry constant over weighted-sparse vectors."""

    delta_star: float
    trials_or_supports: int

    def __post_init__(self):
        if self.delta_star < 0:
            raise ValueError("delta_star must be >= 0")


def _support_delta(M: np.ndarray, normal: np.ndarray, support):
    """The restricted constant of one support, the largest |eigenvalue| of
    W^-1/2 M_S W^-1/2 with W = normal_S, or of each row of a (k, s) array of
    supports of one size, as an array: the stack takes one eigh and one
    eigvalsh call, and each of its values is the one-support call's bit for
    bit."""
    S = np.asarray(support)
    rows, cols = S[..., :, None], S[..., None, :]
    evals, evecs = np.linalg.eigh(normal[rows, cols])
    evals = np.clip(evals, evals.max(axis=-1, keepdims=True) * 1e-14, None)
    Wih = (evecs / np.sqrt(evals)[..., None, :]) @ np.swapaxes(evecs, -1, -2)
    sym = Wih @ M[rows, cols] @ Wih
    sym = 0.5 * (sym + np.swapaxes(sym, -1, -2))
    delta = np.abs(np.linalg.eigvalsh(sym)).max(axis=-1)
    return float(delta) if S.ndim == 1 else delta


def _greedy_support(order, wsq, budget: float) -> list:
    """Indices taken in `order` while their squared weights fit the budget;
    the walk stops once no weight fits what is left."""
    S = []
    smallest = wsq.min()
    for i in order:
        if budget < smallest:
            break
        if wsq[i] <= budget:
            S.append(int(i))
            budget -= wsq[i]
    return S


def _difference_matrix(system: SampledSystem, cert: GramCertificate) -> np.ndarray:
    M = system.q_normal_matrix() - cert.normal
    return 0.5 * (M + M.T)


def delta_star_montecarlo(system: SampledSystem, cert: GramCertificate,
                          omega: WeightVector, lam: float, trials: int,
                          seed: int = 0) -> RipEstimate:
    """Lower bound on the restricted constant from random admissible supports
    (random greedy filling until the weighted budget is exhausted).  The
    distinct supports are drawn first, then evaluated in one stack per
    support size."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = len(system.positions)
    wsq = omega.values ** 2
    M = _difference_matrix(system, cert)
    rng = np.random.default_rng(seed)
    supports = {}           # each distinct support, in the order first drawn
    for _ in range(trials):
        S = _greedy_support(rng.permutation(n), wsq, lam)
        if S:
            supports.setdefault(frozenset(S), S)
    by_size = {}
    for S in supports.values():
        by_size.setdefault(len(S), []).append(S)
    best = 0.0
    for group in by_size.values():
        best = max(best, *_support_delta(M, cert.normal, np.array(group)).tolist())
    return RipEstimate(delta_star=best, trials_or_supports=trials)


def recovery_rule_m(c0: float, s: int, j0: int, gamma: float = 0.1) -> int:
    """The linear-in-s sample count c0 s max(j0 log^3 s, log(1/gamma))."""
    return int(np.ceil(c0 * s * max(j0 * np.log(s) ** 3, np.log(1.0 / gamma))))


def sample_complexity(cert: GramCertificate, s: float, M: int, gamma: float,
                      variant: str, zeta: float = 1.0, j0: int | None = None,
                      omega: WeightVector | None = None) -> int:
    """Number of samples prescribed by one of the supported sample-count
    rules, with all measured constants taken from the certificate and the
    universal constant set to 1.

    conditioning:        worst-case rule through the window conditioning,
                         tau = B^2 ||G^-1||^4 ||G||^2 s
    relative_coherence:  reweighted rule through the measured per-scale decay,
                         tau = B^2 max(d_j^-2 4^(b j)) 4^((1-zeta) b j0) s
    window:              tomographic shortcut tau = 2^j0 s with the extra
                         window factor in the log term
    sparsity:            fully reweighted tomographic rule, linear in s
    """
    if omega is not None and s < max(2.0, float(np.max(omega.values) ** 2) / 4.0):
        raise ValueError(f"s={s} below max(2, ||omega||_inf^2 / 4)")
    if s < 2 or s > M:
        raise ValueError(f"s={s} outside [2, M={M}]")
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    b = cert.smoothing_exponent
    if j0 is None:
        sc = cert.scales
        j0 = 0 if sc is None else int(sc[cert.positions].max())
    log_gamma = np.log(1.0 / gamma)
    if variant == "conditioning":
        tau = cert.coherence_B ** 2 * cert.inv_norm ** 4 * cert.sigma_max ** 2 * s
        m = tau * max(np.log(tau) ** 3 * np.log(M), log_gamma)
    elif variant == "relative_coherence":
        js = np.arange(len(cert.d_exponents))
        maxfac = float(np.max(cert.d_exponents ** -2.0 * 2.0 ** (2.0 * b * js)))
        tau = cert.coherence_B ** 2 * maxfac * 2.0 ** (2.0 * (1.0 - zeta) * b * j0) * s
        m = tau * max(np.log(tau) ** 3 * np.log(M), log_gamma)
    elif variant == "window":
        tau = 2.0 ** j0 * s
        m = tau * max(j0 * np.log(tau) ** 3, log_gamma)
    elif variant == "sparsity":
        return recovery_rule_m(1.0, s, j0, gamma)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return int(np.ceil(m))
