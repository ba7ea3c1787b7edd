"""Desk-scale experiment harness: recovery sweeps, scaling-law fits,
sample-rule calibration, and certification reports."""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import io as stio
from .io import SweepRecord
from .certify import compute_gram, delta_star_montecarlo, sample_complexity
from .models import (FanBeamModel, FourierWaveletModel, LegendrePointModel,
                     RadonModel, _population_pass, assemble_system, draw_samples)
from .phantoms import PhantomSpec, make_phantom
from .solve import SolveConfig, solve_constrained_l1
from .wavelets import build_filter, build_atlas, image_norm, synthesis, truncation_positions
from .weights import WeightVector

FIT_MIN_POINTS = 4      # axis values in the narrowest window a scaling fit reads
FIT_R2_TARGET = 0.9     # fit quality a window must reach to pass


@dataclass
class ExperimentConfig:
    model: str = "radon"
    wavelet_order: int = 1
    j0: int = 2
    j_max: int | None = None          # default j0 + 1
    phantom: PhantomSpec = field(default_factory=lambda: PhantomSpec("sparse", s=5))
    betas: tuple = (0.0,)
    ms: tuple | None = None           # explicit m per cell; None -> m_rule
    m_rule: str = "fixed"             # fixed | noise_matched
    m_rule_c0: float = 1.0
    m_rule_p: float | None = None     # compressibility exponent of the matched rule
    m_cap: int = 1024
    m_min: int = 8
    j0_rule: bool = False             # j0 from beta via the noise-matched rule
    j0_cap: int = 4
    j0_offset: int = 0
    gamma: float = 0.1
    zeta: float = 1.0
    seeds: tuple = (0, 1, 2, 3, 4)
    s_step: float | None = None       # default: build_model's, which follows j_max
    out_dir: str | None = None
    solver: SolveConfig = field(default_factory=lambda: SolveConfig(max_iters=30000))

    def __post_init__(self):
        if self.j_max is None:
            self.j_max = self.j0 + 1
        if any(not (0.0 <= b < 1.0) for b in self.betas):
            raise ValueError("beta values must lie in [0, 1)")
        if self.ms is not None and any(m < 1 for m in self.ms):
            raise ValueError("m values must be >= 1")
        if not (1 <= self.m_min <= self.m_cap):
            raise ValueError(f"m_min={self.m_min} and m_cap={self.m_cap} must satisfy "
                             "1 <= m_min <= m_cap")
        if self.j0 < 0:
            raise ValueError("j0 must be >= 0")
        if self.j0 > self.j_max and self.model != "legendre":   # Legendre has no scales
            raise ValueError("j0 must be <= j_max")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")
        if not (0.0 <= self.zeta <= 1.0):
            raise ValueError("zeta must lie in [0, 1]")


def j0_for_beta(beta: float, a: float, cap: int = 4, offset: int = 0) -> int:
    """Window scale balancing the noise and truncation contributions:
    j0 = floor(log2(1/beta) / (a + 1/2)) + offset, capped at desk scale.

    Along this ladder both error contributions scale like the same power of
    the noise level for any fixed offset (the rule's log base is a free
    constant), so the offset only moves the ladder into the affordable scale
    range without touching the exponent under test."""
    if beta <= 0:
        return cap
    j = int(np.floor(np.log2(1.0 / beta) / (a + 0.5))) + offset
    return int(min(max(j, 0), cap))


def noise_matched_m_rule(beta: float, a: float, p: float, c0: float,
                 m_cap: int, m_min: int = 8) -> int:
    """Sample count beta^-(2/(2a+1) + 2a/(p(2a+1))) log^4(1/beta), scaled by a
    calibrated constant and clipped to desk-scale caps."""
    if beta <= 0:
        return m_cap
    expo = 2.0 / (2.0 * a + 1.0) + 2.0 * a / (p * (2.0 * a + 1.0))
    m = c0 * beta ** -expo * np.log(1.0 / beta) ** 4
    return int(np.clip(int(np.floor(m)), m_min, m_cap))


def build_model(kind: str, order: int = 1, j_max: int = 3, s_step: float | None = None):
    """Model factory covering all four measurement families, memoised on the
    argument values the kind reads: calls that agree on them return the same
    (shared, read-only) model.  Legendre reads none of them, Fourier no
    s_step.  The tomographic models carry their atlas as `model.atlas`; their
    detector step s_step defaults to min(1/32, 2^-(j_max + 1)), which keeps
    1/32 up to j_max = 4 and halves with each finer scale after, and the
    fan-beam ray step is s_step / rho.  Fourier takes its default bandwidth
    and Legendre degrees up to 30."""
    if s_step is None:
        s_step = min(1.0 / 32, 2.0 ** -(j_max + 1))
    read = {"legendre": (None, None, None), "fourier": (order, j_max, None)}
    return _build_model(kind, *read.get(kind, (order, j_max, s_step)))


@functools.cache
def _build_model(kind, order, j_max, s_step):
    if kind in ("radon", "fanbeam"):
        atlas = build_atlas(build_filter(order), j_max)
        if kind == "radon":
            return RadonModel(atlas, s_step=s_step)
        return FanBeamModel(atlas, alpha_step=s_step / FanBeamModel.rho)
    if kind == "fourier":
        return FourierWaveletModel(build_filter(order), j_max=j_max)
    if kind == "legendre":
        return LegendrePointModel(max_degree=30)
    raise ValueError(f"unknown model kind {kind!r}")


def _cell_m(cfg: ExperimentConfig, beta: float, idx: int) -> int:
    if cfg.ms is not None:
        return int(cfg.ms[idx % len(cfg.ms)])
    if cfg.m_rule != "noise_matched":
        raise ValueError("explicit ms required unless m_rule is noise_matched")
    a = cfg.phantom.a if cfg.phantom.kind == "tail" else 0.5
    p = cfg.m_rule_p
    if p is None:
        p = a / 2.0 if cfg.phantom.kind == "tail" else 0.5
    return noise_matched_m_rule(beta, a, p, cfg.m_rule_c0, cfg.m_cap, cfg.m_min)


def run_recovery_cell(atlas, model, j0: int, x_full: np.ndarray, beta: float,
                      m: int, seed: int, zeta: float, solver: SolveConfig,
                      record_meta=None) -> SweepRecord:
    """One (beta, m, seed) cell: draw angles, assemble, solve, record."""
    t0 = time.perf_counter()
    window = truncation_positions(atlas, j0)
    samples = draw_samples(model, m, seed=seed * 7919 + 13)
    system = assemble_system(model, window, samples, x_full=x_full, beta=beta,
                             noise_seed=seed * 104729 + 7)
    eta = beta + system.tail_residual
    cfg_solver = replace(solver, zeta=zeta, eta=eta)
    omega = WeightVector.ones(len(window))
    res = solve_constrained_l1(system, omega, cfg_solver)
    diff_full = x_full.copy()
    diff_full[window] -= res.x_hat
    err_l2 = float(np.linalg.norm(diff_full))
    err_img = image_norm(atlas, synthesis(atlas, diff_full))
    meta = record_meta or {}
    return SweepRecord(beta=float(beta), m=int(m), j0=int(j0),
                       s=int(meta.get("s", 0)), err_l2=err_l2, err_img=err_img,
                       residual=res.residual, wall_time=time.perf_counter() - t0,
                       seed=int(seed), status=res.status,
                       iterations=int(res.iterations), gap=float(res.gap), eta=float(eta))


def recovery_cells(cfg: ExperimentConfig) -> list:
    """(beta, j0, model, m) of each noise level of a recovery run, in order.

    Raises ValueError before any cell runs when the configuration cannot
    run one: a non-tomographic model, a beta with no sample count, or an
    s-sparse phantom with more nonzeros than its window has atoms.
    """
    if cfg.model not in ("radon", "fanbeam"):
        raise ValueError(f"sweeps support radon/fanbeam, got {cfg.model!r}")
    cells = []
    for bi, beta in enumerate(cfg.betas):
        a = cfg.phantom.a if cfg.phantom.kind == "tail" else 0.5
        j0 = (j0_for_beta(beta, a, cap=cfg.j0_cap, offset=cfg.j0_offset)
              if cfg.j0_rule else cfg.j0)
        j_max = j0 + 1 if cfg.j0_rule else cfg.j_max
        model = build_model(cfg.model, order=cfg.wavelet_order, j_max=j_max,
                            s_step=cfg.s_step)
        size = len(truncation_positions(model.atlas, j0))
        if cfg.phantom.kind == "sparse" and cfg.phantom.s > size:
            raise ValueError(f"s={cfg.phantom.s} exceeds window size {size}")
        cells.append((beta, j0, model, _cell_m(cfg, beta, bi)))
    return cells


def run_recovery_sweep(cfg: ExperimentConfig):
    """All (beta, m, seed) cells of a configuration, deterministic per seed.

    Infeasible solves are recorded with their status and the sweep continues.
    """
    records = []
    for beta, j0, model, m in recovery_cells(cfg):
        atlas = model.atlas
        _, x_full, meta = make_phantom(atlas, cfg.phantom, j0)
        for seed in cfg.seeds:
            rec = run_recovery_cell(atlas, model, j0, x_full, beta, m, seed,
                                    cfg.zeta, cfg.solver, record_meta=meta)
            records.append(rec)
    if cfg.out_dir:
        stio.write_records_csv(f"{cfg.out_dir}/records.csv", records)
    return records


def fit_scaling(records, x_axis: str):
    """Ordinary least squares on log-log (axis value, median error) pairs.

    Returns (exponent, intercept, r_squared) with the exponent measured as
    d log err / d log axis."""
    if x_axis not in ("beta", "m"):
        raise ValueError("x_axis must be 'beta' or 'm'")
    cells: dict = {}
    for r in records:
        key = getattr(r, x_axis)
        cells.setdefault(key, []).append(r.err_l2)
    xs = np.array(sorted(cells))
    if len(xs) < 4:
        raise ValueError("need at least 4 distinct axis values")
    med = np.array([np.median(cells[x]) for x in xs])
    if np.any(med <= 0) or np.any(xs <= 0):
        raise ValueError("scaling fit needs positive errors and axis values")
    lx = np.log(xs)
    ly = np.log(med)
    lxc = lx - lx.mean()
    slope = float((lxc @ (ly - ly.mean())) / (lxc @ lxc))
    intercept = float(ly.mean() - slope * lx.mean())
    pred = intercept + slope * lx
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def fit_scaling_windowed(records, x_axis: str):
    """Fit over the contiguous axis window where the power law holds best.

    Candidate windows need at least FIT_MIN_POINTS axis values; among those
    reaching the target fit quality the one with the highest quality wins
    (width breaks ties).  A slow crossover into a flattened regime can keep
    the global fit above the quality bar while masking the asymptotic law,
    which is why quality outranks width here.  Returns (exponent, intercept,
    r2, window, flagged); `flagged` marks a fit that missed the target in
    every window (the best one is still reported)."""
    values = sorted(set(getattr(r, x_axis) for r in records))
    if len(values) < FIT_MIN_POINTS:
        raise ValueError("not enough distinct axis values")
    best = None           # (passes_target, r2, width, result, window)
    for lo in range(len(values)):
        for hi in range(lo + FIT_MIN_POINTS, len(values) + 1):
            window = set(values[lo:hi])
            sub = [r for r in records if getattr(r, x_axis) in window]
            res = fit_scaling(sub, x_axis)
            cand = (res[2] >= FIT_R2_TARGET, res[2], hi - lo, res, tuple(sorted(window)))
            if best is None or cand[:3] > best[:3]:
                best = cand
    passes, r2, _, res, window = best
    return res[0], res[1], r2, window, (not passes)


EXACT_TOL = 1e-5        # relative error of an exact recovery


def _exact_recovery_errors(model, j0: int, s: int, m: int, n_seeds: int) -> list:
    """Relative errors of noiseless recovery from m angles on the scale <= j0
    window, one per seed: the seed's s-sparse phantom, solved at beta = 0,
    zeta = 1 and at most 20,000 iterations."""
    errors = []
    for seed in range(n_seeds):
        _, x_full, meta = make_phantom(model.atlas, PhantomSpec("sparse", s=s, seed=seed), j0)
        rec = run_recovery_cell(model.atlas, model, j0, x_full, 0.0, m, seed, 1.0,
                                SolveConfig(max_iters=20000), record_meta=meta)
        errors.append(rec.err_l2 / float(np.linalg.norm(x_full)))
    return errors


def calibrate_recovery_constant(order: int = 1, s: int = 5, j0: int = 2,
                                n_seeds: int = 20) -> float:
    """Calibrate the universal constant of the m >= C0 s j0 log^3 s rule on a
    pilot: bisect, from m = 64 up to 4096, to the smallest sample count where
    every seed's noiseless exactly sparse signal is recovered to relative
    error EXACT_TOL, and freeze the ratio."""
    model = build_model("radon", order=order, j_max=j0 + 1)

    def recovers(m):
        return all(e <= EXACT_TOL for e in _exact_recovery_errors(model, j0, s, m, n_seeds))

    hi = 64
    while not recovers(hi):
        hi *= 2
        if hi > 4096:
            raise RuntimeError("calibration failed to reach the success target")
    lo = max(hi // 2, 1)
    while hi - lo > max(2, hi // 16):
        mid = (lo + hi) // 2
        if recovers(mid):
            hi = mid
        else:
            lo = mid
    return hi / (s * j0 * np.log(s) ** 3)


def run_certification_report(cfg: ExperimentConfig, out_dir: str,
                             lam_grid=(2.0, 4.0), m_grid=(16, 32),
                             mc_trials: int = 64, seed: int = 0):
    """Write the certificate report, the per-scale coherence table, restricted
    constant estimates over a (lambda, m) grid, and the sample-rule table.
    Each m's sampled matrix is the population pass of its samples."""
    model = build_model(cfg.model, order=cfg.wavelet_order, j_max=cfg.j_max,
                        s_step=cfg.s_step)
    scales = model.scales()
    window = (np.arange(model.dictionary_size()) if scales is None
              else np.flatnonzero(scales <= cfg.j0))
    omega = WeightVector(model.natural_weights()[window])
    cert = compute_gram(model, window, check_convergence=True)
    # the samples depend on m only, so one sampled matrix serves every lambda
    delta = {}
    for m in m_grid:
        samples = draw_samples(model, int(m), seed=seed + 17 * int(m))
        sampled = _population_pass(model, window, samples,
                                   1.0 / (m * model.density(samples)))[0]
        for lam in lam_grid:
            delta[lam, m] = delta_star_montecarlo(sampled, cert, omega, lam,
                                                  trials=mc_trials, seed=seed).delta_star
    rows = [(lam, m, delta[lam, m]) for lam in lam_grid for m in m_grid]
    # the rules at the smallest admissible s from min(8, M) up; each reads j0
    # off the certificate's window (0 for a model without scales)
    M = len(window)
    s_ref = max(2, min(8, M), int(np.ceil(np.max(omega.values) ** 2 / 4.0)))
    table = {"s": s_ref}
    for variant in ("conditioning", "relative_coherence", "window", "sparsity"):
        table[variant] = sample_complexity(cert, s_ref, M, cfg.gamma, variant,
                                           zeta=cfg.zeta, omega=omega)
    stio.write_certificate_report(out_dir, cert, delta_rows=rows,
                                  complexity=table)
    return cert, rows, table
