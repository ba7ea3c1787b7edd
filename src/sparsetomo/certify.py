"""Numerical certification of the recovery machinery.

Builds the window Gram (normal) matrix and reads its conditioning and the
quasi-diagonalization constants off its eigenvalues, measures coherence,
estimates the restricted-isometry constant of a sampled system by randomized
support search, and evaluates sample-complexity rules.  The exact
enumeration of the restricted constant, the null-space witness search and
the truncation residual are test oracles (tests/oracles.py); the pipeline's
truncation residual is the system's tail_residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import _compose, _population_pass
# bound here so that perfbench/tracing.py can time it as certify's Gram layer
from .models import population_gram_matrix  # noqa: F401
from .weights import WeightVector


class NumericalConsistencyError(RuntimeError):
    """A certified quantity failed its internal consistency check."""


@dataclass
class GramCertificate:
    """The window's population normal matrix and the constants read off its
    eigenvalues (compute_gram)."""

    normal: np.ndarray               # the population normal matrix <F phi_i, F phi_j>
    sigma_min: float
    sigma_max: float
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

    @property
    def inv_norm(self) -> float:    # 1 / sigma_min, inf at 0
        return float("inf") if self.sigma_min == 0.0 else 1.0 / self.sigma_min


def _normal_spectrum(normal: np.ndarray, blocks=None):
    """(sigma_min, sigma_max, fbi_flag): eigenvalues in [-1e-10, 0] read as 0
    (a restricted injectivity failure), below -1e-10 as a quadrature error.
    The eigenvalues are _eigvalsh's, by blocks when blocks are given."""
    lo, hi = _eigvalsh(normal, blocks)[[0, -1]]
    if lo < -1e-10:
        raise NumericalConsistencyError(
            f"population normal matrix has eigenvalue {lo:.3e} < -1e-10")
    return float(np.sqrt(max(lo, 0.0))), float(np.sqrt(max(hi, 0.0))), bool(lo <= 0.0)


def _symmetry_blocks(turn, mirror):
    """The symmetry-adapted blocks of the matrices that commute with the
    dihedral group of the square, given by its quarter turn P and its
    reflection D as signed permutations (image, sign) of the n indices
    (FanBeamModel.symmetry's maps): one (rows, scale, terms, multiplicity)
    per block, which _eigvalsh reads.

    The group's eight elements P^k and D P^k act on R^n.  A matrix M that
    commutes with them is block diagonal in a basis adapted to the group's
    irreducible representations (Fassler and Stiefel, Group Theoretical
    Methods and Their Applications, 1992): four one-dimensional ones, chi(P)
    and chi(D) each +-1, and one two-dimensional one, on which P^2 = -1.
    Each basis vector is Q e_t for an index t and an orthogonal projector
    Q = (1/k) sum_g a(g) g that commutes with M (a(g) = +-1 on k of the
    elements, 0 on the others), a signed sum over the orbit of t, so the
    block's entries are e_t^T M Q e_u over the normalizers ||Q e_t||
    ||Q e_u||, gathers of M:
    - a one-dimensional block takes a = chi and one index per orbit (its
      smallest), those with Q e_t != 0;
    - the two-dimensional representation's eigenvalues each appear twice in
      M; its D = +1 half (Q = (1 - P^2)(1 + D) / 4) has each once, and takes
      the smallest index of each orbit and its image under P.
    Those vectors span each block's space, and they are orthogonal when the
    blocks' sizes, the last one counted twice, add up to n (each orbit's
    span holds the two-dimensional representation at most twice, and a pair
    that is not orthogonal is one vector too many); otherwise ValueError.
    Built from the maps in O(n)."""
    n = len(turn[0])
    rot = [(np.arange(n), np.ones(n))]
    for _ in range(3):
        rot.append(_compose(turn, rot[-1]))
    group = rot + [_compose(mirror, g) for g in rot]          # P^k, then D P^k
    smallest = np.flatnonzero(np.min([image for image, _ in group], axis=0) == np.arange(n))
    powers = np.arange(4)
    chars = [np.r_[p ** powers, d * p ** powers] for p in (1, -1) for d in (1, -1)]
    blocks = [_block(group, chi, smallest, 1) for chi in chars]
    blocks.append(_block(group, np.array([1, 0, -1, 0, 1, 0, -1, 0]),
                         np.union1d(smallest, turn[0][smallest]), 2))
    if sum(len(rows) * mult for rows, _, _, mult in blocks) != n:
        raise ValueError("the maps do not act on the indices as the square's symmetries")
    return blocks


def _block(group, a, index, mult):
    """One block of _symmetry_blocks: the basis vectors Q e_t, t of index,
    for Q proportional to sum_g a(g) g, that are not 0; the gathers' column
    maps and signs (each scaled by 1 / ||Q e_u||), the rows' scales, and
    the multiplicity of the block's eigenvalues."""
    q = sum(c * sign[index] * (image[index] == index) for c, (image, sign) in zip(a, group))
    rows = index[q > 0]
    scale = 1.0 / np.sqrt(q[q > 0])
    terms = [(image[rows], c * sign[rows] * scale) for c, (image, sign) in zip(a, group) if c]
    return rows, scale, terms, mult


def _eigvalsh(M, blocks=None) -> np.ndarray:
    """Every eigenvalue of the symmetric M, ascending: np.linalg.eigvalsh's,
    or, for an M that commutes with the square's symmetries, each
    symmetry block's (_symmetry_blocks), as often as the block's
    multiplicity."""
    if blocks is None:
        return np.linalg.eigvalsh(M)
    values = []
    for rows, scale, terms, mult in blocks:
        B = sum(M[np.ix_(rows, cols)] * sign for cols, sign in terms)
        B *= scale[:, None]
        values += [np.linalg.eigvalsh(B)] * mult
    return np.sort(np.concatenate(values))


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


def compute_gram(model, positions, check_convergence: bool = False) -> GramCertificate:
    """Population normal matrix over a dictionary window, with its
    conditioning, measured coherence and quasi-diagonalization constants.

    The Gram entries are quadratures, over default_quadrature's n_quad-node
    rule, of measurement-space inner products.  Every constant is an extreme
    eigenvalue (eigvalsh, no random probes): sigma_min^2 and sigma_max^2 of
    the normal matrix, and (c_hat, C_hat) of normal / outer(d, d) with
    d = 2^(-b scale), c_hat clamped at 0 as sigma_min is.  Where the pass
    folds the rule by the square's symmetry (the maps of its
    models._fold_plan, which the pass returns; the fan beam's), the normal
    matrix, the doubled Gram and, d being constant on each scale, the ratio
    commute with the group, and each of the three reads takes the
    eigenvalues of its symmetry blocks (_symmetry_blocks, built once per
    call from those maps); the normal matrix stays whole, for delta* and
    b_fit.  Other models take eigvalsh of the whole matrix.

    One pass over the n_quad rule (models._population_pass) gives the Gram
    and the norms of its rows at the nodes of the min(n_quad, 64)-node rule
    that it visits; the coherence divides them by sqrt(f_nu) and the natural
    weights.  Their per-scale maxima are those over every node of that rule,
    bit for bit: a node that the fan beam's pass leaves has a visited node's
    rows, signed and permuted within each scale, and an atlas's natural
    weights are all 1.

    check_convergence compares sigma_min with that of the 2 n_quad Gram.
    Where the 2 n_quad rule's even nodes at twice their weights are the
    n_quad rule, bit for bit (the uniform rules of the tomographic models),
    that Gram is (G + G_half) / 2, G_half the pass over its odd nodes at
    twice their weights (the half-step rule), so no node is visited twice.
    Otherwise (Gauss-Legendre rules do not nest, and Fourier's
    population_nodes ignores n, so its shift is 0) the 2 n_quad rule takes
    a pass of its own.
    """
    positions = np.asarray(positions, dtype=int)
    n_quad = default_quadrature(model, positions)
    nodes, wts = model.population_nodes(n_quad)
    coh_nodes, _ = model.population_nodes(min(n_quad, 64))
    normal, norms, maps = _population_pass(model, positions, nodes, wts, coh_nodes)
    blocks = None if maps is None else _symmetry_blocks(*maps)
    sigma_min, sigma_max, fbi_flag = _normal_spectrum(normal, blocks)
    shift = None
    if check_convergence:
        fine, fine_wts = model.population_nodes(2 * n_quad)
        if np.array_equal(fine[::2], nodes) and np.array_equal(2.0 * fine_wts[::2], wts):
            normal2 = _population_pass(model, positions, fine[1::2], 2.0 * fine_wts[1::2])[0]
            normal2 += normal
            normal2 *= 0.5
        else:
            normal2 = _population_pass(model, positions, fine, fine_wts)[0]
        s2 = float(np.sqrt(max(_eigvalsh(normal2, blocks)[0], 0.0)))
        shift = abs(sigma_min - s2) / max(s2, 1e-300)
        if shift > 0.01:
            raise NumericalConsistencyError(
                f"sigma_min moved by {shift:.1%} when doubling the quadrature")
    scales = model.scales()
    b = model.smoothing_exponent
    sc = np.zeros(len(positions), dtype=int) if scales is None else scales[positions]
    per_scale, d_exp, B, rel = _coherence_report(norms, model.density, sc, b,
                                                 model.natural_weights()[positions])

    # quasi-diagonalization constants: the best c, C in
    # c sum 2^(-2bj) x_j^2 <= x^T normal x <= C sum 2^(-2bj) x_j^2
    d = 2.0 ** (-b * sc)
    c_hat, C_hat = _eigvalsh(normal / np.outer(d, d), blocks)[[0, -1]]

    # b_fit: per-atom regression of log2 ||F phi||^2 against the scale
    b_fit = _decay_fit(sc, np.log2(np.maximum(np.diag(normal), 1e-300)), b)

    return GramCertificate(
        normal=normal, sigma_min=sigma_min, sigma_max=sigma_max,
        quasi_diag=(b, float(max(c_hat, 0.0)), float(C_hat)), b_fit=b_fit,
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


def _draw_supports(omega: WeightVector, lam: float, trials: int, seed: int) -> list:
    """The distinct random admissible supports of `trials` greedy fillings
    of the weighted budget lam (_greedy_support over the permutations of
    default_rng(seed)), each in its fill order, in the order first drawn;
    an empty fill adds none."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    wsq = omega.values ** 2
    rng = np.random.default_rng(seed)
    supports = {}
    for _ in range(trials):
        S = _greedy_support(rng.permutation(len(wsq)), wsq, lam)
        if S:
            supports.setdefault(frozenset(S), S)
    return list(supports.values())


def delta_star_montecarlo(sampled: np.ndarray, normal: np.ndarray, supports,
                          trials: int) -> RipEstimate:
    """Lower bound on the restricted constant of `sampled`, the Gram of m
    samples at weights 1/(m f_nu), against the population Gram `normal`:
    the largest constant of the random admissible supports that
    _draw_supports drew in `trials` fillings, evaluated in one stack per
    support size.  The two Grams and the supports may be over any index
    set that holds every support (run_certification_report passes the
    union of the supports' atoms, the supports relabelled onto it), so the
    difference is formed there only.  Every Gram of the pipeline is
    exactly symmetric (models._gram), so their difference is;
    _support_delta symmetrizes each support's matrix all the same.  No
    support gives 0."""
    k = len(normal)
    if (np.shape(sampled) != (k, k) or np.shape(normal) != (k, k)
            or any(not 0 <= i < k for S in supports for i in S)):
        raise ValueError(f"sampled {np.shape(sampled)} and normal {np.shape(normal)} "
                         f"must be square, of one size, and hold every support")
    M = sampled - normal
    by_size = {}
    for S in supports:
        by_size.setdefault(len(S), []).append(S)
    best = 0.0
    for group in by_size.values():
        best = max(best, *_support_delta(M, normal, np.array(group)).tolist())
    return RipEstimate(delta_star=best, trials_or_supports=trials)


def recovery_rule_m(c0: float, s: int, j0: int, gamma: float = 0.1) -> int:
    """The linear-in-s sample count c0 s max(j0 log^3 s, log(1/gamma))."""
    return int(np.ceil(c0 * s * max(j0 * np.log(s) ** 3, np.log(1.0 / gamma))))


def sample_complexity(cert: GramCertificate, s: float, M: int, gamma: float,
                      variant: str, zeta: float = 1.0,
                      omega: WeightVector | None = None) -> int:
    """Number of samples prescribed by one of the supported sample-count
    rules, with all measured constants taken from the certificate, j0 the
    top scale of its window (0 without scales), and the universal constant 1.

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
