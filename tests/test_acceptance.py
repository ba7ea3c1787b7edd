"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; the heavier criteria
reuse session fixtures so the whole battery stays inside its runtime budget.
"""

import time

import numpy as np
import pytest

import sparsetomo as st
from sparsetomo.certify import _draw_supports, _support_delta, recovery_rule_m
from sparsetomo.experiments import (ExperimentConfig, build_model,
                                    calibrate_recovery_constant, run_recovery_cell)
from sparsetomo.phantoms import make_phantom
from sparsetomo.solve import SolveConfig, solve_constrained_l1_matrix

from oracles import (atom_norms, best_sparse_approx_bruteforce, delta_star_bruteforce,
                     sampled_normal)


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line)
    assert ok, line


@pytest.fixture(scope="module")
def haar5():
    return st.build_atlas(st.build_filter(1), 5)


def test_criterion_01_weighted_sparsity_oracles():
    t0 = time.time()
    rng = np.random.default_rng(42)
    violations = 0
    for _ in range(200):
        n = int(rng.integers(2, 15))
        x = rng.standard_normal(n) * rng.choice([0.1, 1.0, 10.0])
        w = 1.0 + rng.random(n) * 2.0
        s = float(rng.random() * st.weighted_size(range(n), w))
        if s <= 0:
            s = 1.0
        brute1 = best_sparse_approx_bruteforce(x, w, s, 1.0)
        quasi = st.quasi_best_sparse_approx(x, w, s, 1.0)
        if brute1.error_p1 > quasi.error_p1 + 1e-12:
            violations += 1
        brute2 = best_sparse_approx_bruteforce(x, w, s, 2.0)
        bound = st.stechkin_bound(x, w, s, 1.0, 2.0)
        if brute2.error_p2 > bound + 1e-12:
            violations += 1
    dt = time.time() - t0
    report(1, "weighted-sparsity oracle equivalence",
           violations == 0 and dt <= 10.0,
           f"0 required violations, got {violations}; {dt:.1f}s <= 10s")


def test_criterion_02_dictionary_integrity(haar_atlas_j3, haar5):
    t0 = time.time()
    G = st.discrete_gram(haar_atlas_j3)
    tau = 5.0 * haar_atlas_j3.grid.h
    dev = float(np.abs(G - np.eye(len(haar_atlas_j3))).max())
    counts = haar5.scale_counts().astype(float)
    js = np.arange(2.0, 6.0)
    y = np.log2(counts[2:6])
    jc = js - js.mean()
    slope = float((jc @ (y - y.mean())) / (jc @ jc))
    dt = time.time() - t0
    report(2, "dictionary integrity",
           dev <= tau and abs(slope - 2.0) <= 0.3 and dt <= 60.0,
           f"gram dev {dev:.2e} <= {tau:.3f}; count slope {slope:.3f} in 2+-0.3; {dt:.0f}s")


def test_criterion_03_coherence_law(haar5):
    t0 = time.time()
    radon = st.RadonModel(haar5)
    fan = st.FanBeamModel(haar5)
    pos = np.arange(len(haar5))

    def per_scale_slope(model):
        mx = np.zeros(6)
        for k in range(16):
            th = 2 * np.pi * k / 16 + 0.0131
            nr = atom_norms(model, pos, th)
            for j in range(6):
                mx[j] = max(mx[j], float(nr[haar5.scales == j].max()))
        x = np.arange(6.0)
        yl = np.log2(mx)
        xc = x - x.mean()
        return float((xc @ (yl - yl.mean())) / (xc @ xc))

    slope_r = per_scale_slope(radon)
    slope_d = per_scale_slope(fan)

    # norm sandwich between the two transforms on random coarse-scale signals
    a3 = st.build_atlas(st.build_filter(1), 3)
    radon3 = st.RadonModel(a3)
    fan3 = st.FanBeamModel(a3)
    lo = fan3.rho ** -0.5
    hi = (fan3.rho ** 2 - fan3.d ** 2) ** -0.25
    rng = np.random.default_rng(3)
    w1 = st.truncation_positions(a3, 1)
    nth = 32
    ratios = []
    for _ in range(20):
        x = rng.standard_normal(len(w1))
        nR = nD = 0.0
        for k in range(nth):
            t = 2 * np.pi * k / nth
            vR = radon3.rows(w1, t).T @ x
            vD = fan3.rows(w1, t).T @ x
            nR += (vR @ vR) * radon3.quad_weight / nth
            nD += (vD @ vD) * fan3.quad_weight / nth
        ratios.append(float(np.sqrt(nD / nR)))
    sandwich_ok = all(lo * 0.98 <= r <= hi * 1.02 for r in ratios)
    dt = time.time() - t0
    report(3, "tomographic coherence law",
           abs(slope_r + 0.5) <= 0.1 and abs(slope_d + 0.5) <= 0.1
           and sandwich_ok and dt <= 300.0,
           f"radon slope {slope_r:.3f}, fanbeam slope {slope_d:.3f} in -0.5+-0.1; "
           f"sandwich ratios within [{lo:.3f},{hi:.3f}] +-2%; {dt:.0f}s")


def test_criterion_04_quasi_diagonalization(haar_atlas_j3, radon_j3):
    t0 = time.time()
    b_fit = st.compute_gram(radon_j3, np.arange(len(haar_atlas_j3))).b_fit
    consts = []
    for j0 in (1, 2, 3):
        w = st.truncation_positions(haar_atlas_j3, j0)
        cert = st.compute_gram(radon_j3, w)
        consts.append(cert.inv_norm ** 2 * 2.0 ** -j0)
    consts = np.array(consts)
    drift = float(np.abs(consts - consts.mean()).max() / consts.mean())
    dt = time.time() - t0
    report(4, "quasi-diagonalization",
           abs(b_fit - 0.5) <= 0.1 and drift <= 0.25 and dt <= 300.0,
           f"b_fit {b_fit:.3f} in 0.5+-0.1; inv-norm law constants {np.round(consts, 2)} "
           f"drift {drift:.1%} <= 25%; {dt:.0f}s")


def test_criterion_05_restricted_constant_oracles(synthetic_model, synthetic_cert):
    t0 = time.time()
    n = synthetic_model.dictionary_size()
    omega = st.WeightVector.ones(n)

    # population limit: quadrature-node samples reproduce the window Gram
    nodes, _ = synthetic_model.population_nodes(16)
    pop = sampled_normal(synthetic_model, np.arange(n), nodes)
    pop_delta = delta_star_bruteforce(pop, synthetic_cert, omega, 2.0).delta_star

    sampled = sampled_normal(synthetic_model, np.arange(n),
                             st.draw_samples(synthetic_model, 3, seed=1))
    full = delta_star_bruteforce(sampled, synthetic_cert, omega, float(n))
    spec_norm = _support_delta(sampled - synthetic_cert.normal,
                               synthetic_cert.normal, range(n))
    mc = st.delta_star_montecarlo(sampled, synthetic_cert.normal,
                                  _draw_supports(omega, 3.0, 64, 0), trials=64)
    brute = delta_star_bruteforce(sampled, synthetic_cert, omega, 3.0)

    rng = np.random.default_rng(4)
    z = 0.5 + rng.random(n)
    scaled = np.diag(z) @ sampled @ np.diag(z)
    import dataclasses
    cert_scaled = dataclasses.replace(
        synthetic_cert, normal=np.diag(z) @ synthetic_cert.normal @ np.diag(z))
    inv = delta_star_bruteforce(scaled, cert_scaled, omega, 3.0)
    dt = time.time() - t0
    report(5, "restricted-constant oracles",
           pop_delta <= 1e-8
           and abs(full.delta_star - spec_norm) <= 1e-10
           and mc.delta_star <= brute.delta_star + 1e-10
           and abs(inv.delta_star - brute.delta_star) <= 1e-10 * max(1, brute.delta_star)
           and dt <= 120.0,
           f"population {pop_delta:.1e} <= 1e-8; unrestricted == spectral; "
           f"MC {mc.delta_star:.4f} <= brute {brute.delta_star:.4f}; "
           f"diagonal invariance exact; {dt:.0f}s")


def test_criterion_06_exact_recovery():
    t0 = time.time()
    c0 = calibrate_recovery_constant(order=1, s=5, j0=2, n_seeds=20)
    m = recovery_rule_m(c0, 5, 3, gamma=0.1)
    model = build_model("radon", order=1, j_max=4, s_step=1.0 / 32)
    atlas = model.atlas
    good = 0
    worst = 0.0
    for seed in range(20):
        _, x_full, meta = make_phantom(atlas, st.PhantomSpec("sparse", s=5, seed=seed), 3)
        rec = run_recovery_cell(atlas, model, 3, x_full, 0.0, m, seed, 1.0,
                                SolveConfig(max_iters=20000), record_meta=meta)
        rel = rec.err_l2 / float(np.linalg.norm(x_full))
        worst = max(worst, rel)
        good += rel <= 1e-5
    dt = time.time() - t0
    report(6, "noiseless exact recovery",
           good >= 18 and dt <= 600.0,
           f"C0 {c0:.3f}, m {m}; {good}/20 seeds at rel err <= 1e-5 "
           f"(worst {worst:.1e}); {dt:.0f}s")


def test_criterion_07_noise_scaling_exponent():
    t0 = time.time()
    cfg = ExperimentConfig(
        phantom=st.PhantomSpec("tail", a=0.5, seed=0),
        betas=tuple(2.0 ** -k for k in range(2, 8)),
        ms=None, m_rule="noise_matched", m_rule_c0=0.5, m_cap=384, m_min=16,
        j0_rule=True, j0_cap=3, j0_offset=-2, zeta=1.0,
        seeds=(0, 1, 2, 3, 4), s_step=1.0 / 32,
        solver=SolveConfig(max_iters=6000, tol_gap=1e-6))
    records = st.run_recovery_sweep(cfg)
    expo, _, r2, window, flagged = st.fit_scaling_windowed(records, "beta")
    dt = time.time() - t0
    report(7, "noise-scaling exponent",
           abs(expo - 0.5) <= 0.15 and r2 >= 0.9 and not flagged and dt <= 1800.0,
           f"exponent {expo:.3f} in 0.5+-0.15, r2 {r2:.4f} >= 0.9, window "
           f"{[round(np.log2(b)) for b in window]} of 6 cells; {dt:.0f}s")


def test_criterion_08_cartoon_rate():
    t0 = time.time()
    cfg = ExperimentConfig(
        phantom=st.PhantomSpec("cartoon"),
        betas=tuple(2.0 ** -k for k in range(2, 8)),
        ms=None, m_rule="noise_matched", m_rule_c0=1.0, m_rule_p=0.5, m_cap=384, m_min=16,
        j0_rule=True, j0_cap=3, j0_offset=-2, zeta=1.0,
        seeds=(0, 1, 2, 3, 4), s_step=1.0 / 32,
        solver=SolveConfig(max_iters=6000, tol_gap=1e-6))
    records = st.run_recovery_sweep(cfg)
    expo, _, r2, window, flagged = st.fit_scaling_windowed(records, "beta")
    dt = time.time() - t0
    report(8, "piecewise-smooth noise rate",
           abs(expo - 0.5) <= 0.15 and r2 >= 0.9 and not flagged and dt <= 1800.0,
           f"exponent {expo:.3f} in 0.5+-0.15, r2 {r2:.4f} >= 0.9, window "
           f"{[round(np.log2(b)) for b in window]} of 6 cells; {dt:.0f}s")


def test_criterion_09_solver_correctness(haar_atlas_j2, radon_j2):
    from tests.test_solver import grid_search_objective, random_3var_instance
    t0 = time.time()
    bad_obj = 0
    bad_feas = 0
    for seed in range(50):
        A, y, eta = random_3var_instance(seed)
        res = solve_constrained_l1_matrix(A, y, st.WeightVector.ones(3),
                                          st.SolveConfig(eta=eta, tol_gap=1e-7))
        oracle = grid_search_objective(A, y, eta)
        if res.status != "optimal" or abs(res.objective - oracle) > 0.02:
            bad_obj += 1
        if res.status == "optimal" and res.residual > eta * (1 + 1e-6) + 1e-12:
            bad_feas += 1

    # change-of-variables equivalence on a tomographic system
    a = haar_atlas_j2
    w = st.truncation_positions(a, 1)
    rng = np.random.default_rng(0)
    x_full = np.zeros(len(a))
    x_full[rng.choice(w, 4, replace=False)] = rng.choice([-1.0, 1.0], 4)
    system = st.assemble_system(radon_j2, w, st.draw_samples(radon_j2, 24, 1),
                                x_full=x_full)
    omega = st.WeightVector.ones(len(w))
    direct = st.solve_constrained_l1(system, omega,
                                     st.SolveConfig(zeta=1.0, eta=0.0, tol_gap=1e-10))
    col = 2.0 ** (0.5 * radon_j2.scales()[w])
    manual = solve_constrained_l1_matrix(system.matrix * col[None, :], system.y,
                                         omega, st.SolveConfig(eta=0.0, tol_gap=1e-10))
    zeta_gap = abs(direct.objective - manual.objective) / max(1.0, direct.objective)
    dt = time.time() - t0
    report(9, "solver correctness",
           bad_obj == 0 and bad_feas == 0 and zeta_gap <= 1e-8 and dt <= 300.0,
           f"50/50 grid-search matches within 0.02, 0 feasibility breaches, "
           f"reweighting equivalence {zeta_gap:.1e} <= 1e-8; {dt:.0f}s")


def test_criterion_10_auxiliary_models():
    t0 = time.time()
    mo = st.FourierWaveletModel(st.build_filter(1), j_max=4, n_freq=256)
    C = 1.0  # frozen from the measured maximum 0.655 with margin
    worst = 0.0
    for pos in range(mo.dictionary_size()):
        for t in range(1, 257):
            worst = max(worst, np.hypot(*mo.rows([pos], t)[0]) * np.sqrt(t))
    dc = max(np.hypot(*mo.rows([p], 0)[0]) for p in range(mo.dictionary_size()))

    leg = st.LegendrePointModel(max_degree=30)
    ts = np.linspace(-1.0, 1.0, 4001)
    sup = np.abs(leg.evaluate(ts)).max(axis=1)
    bound = np.sqrt(2.0 * np.arange(1, 32) - 1.0)
    leg_ok = bool(np.all(sup <= bound + 1e-12))
    dt = time.time() - t0
    report(10, "auxiliary models",
           worst <= C and dc <= C and leg_ok and dt <= 60.0,
           f"frequency coherence sqrt|t|-scaled max {worst:.3f} <= {C}; "
           f"polynomial sup bounds hold through degree 30; {dt:.0f}s")
