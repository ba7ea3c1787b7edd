import numpy as np
import pytest

import sparsetomo as st
from sparsetomo.experiments import (ExperimentConfig, SweepRecord, build_model,
                                    noise_matched_m_rule, recovery_cells, run_recovery_cell)


def synthetic_records(exponent, betas, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for b in betas:
        for s in range(3):
            err = b ** exponent * np.exp(noise * rng.standard_normal())
            out.append(SweepRecord(beta=b, m=16, j0=2, s=5, err_l2=err,
                                   err_img=err, residual=0.0, wall_time=0.0,
                                   seed=s, status="optimal"))
    return out


def test_fit_scaling_exact_power_law():
    recs = synthetic_records(0.5, [0.5, 0.25, 0.125, 0.0625])
    expo, _, r2 = st.fit_scaling(recs, "beta")
    assert expo == pytest.approx(0.5, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_scaling_needs_axis_spread():
    recs = synthetic_records(0.5, [0.5, 0.25, 0.125])
    with pytest.raises(ValueError):
        st.fit_scaling(recs, "beta")
    with pytest.raises(ValueError):
        st.fit_scaling(recs, "time")


def test_fit_scaling_windowed_drops_flat_regime():
    betas = [2.0 ** -k for k in range(2, 8)]
    rng = np.random.default_rng(0)
    recs = []
    for b in betas:
        clean = b ** 0.5
        for s in range(3):
            # flattened cells carry seed jitter, as real error floors do
            err = clean if clean > 0.2 else 0.2 * float(np.exp(0.05 * rng.standard_normal()))
            recs.append(SweepRecord(beta=b, m=8, j0=2, s=5, err_l2=err,
                                    err_img=err, residual=0.0, wall_time=0.0,
                                    seed=s, status="optimal"))
    expo, _, r2, window, flagged = st.fit_scaling_windowed(recs, "beta")
    full_expo, _, full_r2 = st.fit_scaling(recs, "beta")
    assert not flagged
    assert r2 >= 0.9
    assert len(window) < 6                      # flattened cells were dropped
    assert abs(expo - 0.5) < abs(full_expo - 0.5)  # and the fit improved


def test_j0_rule_base_two():
    assert st.j0_for_beta(2.0 ** -2, a=0.5, cap=6) == 2
    assert st.j0_for_beta(2.0 ** -3, a=0.5, cap=6) == 3
    assert st.j0_for_beta(2.0 ** -7, a=0.5, cap=4) == 4
    assert st.j0_for_beta(0.0, a=0.5, cap=4) == 4


def test_m_rule_caps():
    assert noise_matched_m_rule(2.0 ** -7, 0.5, 0.25, 1.0, m_cap=512) == 512
    assert noise_matched_m_rule(0.9, 0.5, 0.25, 1e-6, m_cap=512, m_min=8) == 8


def test_recovery_rule_m_formula():
    assert st.recovery_rule_m(1.0, 8, 3, gamma=0.1) == 216


def test_sweep_deterministic(tmp_path):
    cfg = ExperimentConfig(
        j0=1, j_max=2, phantom=st.PhantomSpec("sparse", s=2, seed=0),
        betas=(0.0,), ms=(24,), seeds=(0, 1), s_step=1.0 / 16,
        out_dir=str(tmp_path / "a"))
    recs1 = st.run_recovery_sweep(cfg)
    cfg.out_dir = str(tmp_path / "b")
    recs2 = st.run_recovery_sweep(cfg)
    for r1, r2 in zip(recs1, recs2):
        assert r1.err_l2 == r2.err_l2
        assert r1.residual == r2.residual
    rows_a = open(tmp_path / "a" / "records.csv").read()
    rows_b = open(tmp_path / "b" / "records.csv").read()
    # wall-time columns differ; everything else must match byte for byte
    import csv
    for ra, rb in zip(csv.reader(rows_a.splitlines()), csv.reader(rows_b.splitlines())):
        ra.pop(7), rb.pop(7)
        assert ra == rb


def test_sweep_recovers_noiseless_sparse(tmp_path):
    cfg = ExperimentConfig(
        j0=1, j_max=2, phantom=st.PhantomSpec("sparse", s=2, seed=1),
        betas=(0.0,), ms=(32,), seeds=(0, 1, 2), s_step=1.0 / 16)
    recs = st.run_recovery_sweep(cfg)
    assert len(recs) == 3
    for r in recs:
        assert r.status == "optimal"
        assert r.err_l2 <= 1e-5 * np.sqrt(2.0)
        assert abs(r.err_img - r.err_l2) <= 5 * 2.0 ** -5 * r.err_l2 + 1e-12


def test_sweep_record_image_error_isometry(tmp_path):
    cfg = ExperimentConfig(
        j0=1, j_max=2, phantom=st.PhantomSpec("tail", a=0.5, seed=0),
        betas=(0.1,), ms=(16,), seeds=(0,), s_step=1.0 / 16)
    rec = st.run_recovery_sweep(cfg)[0]
    assert rec.err_l2 > 0
    assert abs(rec.err_img - rec.err_l2) <= 5 * 2.0 ** -5 * rec.err_l2


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(betas=(1.5,))
    with pytest.raises(ValueError):
        ExperimentConfig(ms=(0,))
    with pytest.raises(ValueError):
        ExperimentConfig(j0=3, j_max=2)


def test_cell_m_requires_rule_or_values():
    cfg = ExperimentConfig(j0=1, j_max=2, betas=(0.5,), ms=None, m_rule="fixed")
    with pytest.raises(ValueError):
        st.run_recovery_sweep(cfg)


def test_certification_report_deterministic(tmp_path):
    cfg = ExperimentConfig(j0=1, j_max=2, gamma=0.1, zeta=1.0, s_step=1.0 / 16)
    st.run_certification_report(cfg, str(tmp_path / "r1"), lam_grid=(2.0,),
                                m_grid=(8,), mc_trials=16, seed=3)
    st.run_certification_report(cfg, str(tmp_path / "r2"), lam_grid=(2.0,),
                                m_grid=(8,), mc_trials=16, seed=3)
    a = (tmp_path / "r1" / "certificate.txt").read_bytes()
    b = (tmp_path / "r2" / "certificate.txt").read_bytes()
    assert a == b
    cov = (tmp_path / "r1" / "coherence.csv").read_text().splitlines()
    assert cov[0] == "scale,max_norm,d_measured"
    assert len(cov) == 1 + 2  # header + scales 0..1


def test_certification_report_contents(tmp_path):
    cfg = ExperimentConfig(j0=1, j_max=2, s_step=1.0 / 16)
    cert, rows, table = st.run_certification_report(
        cfg, str(tmp_path), lam_grid=(2.0,), m_grid=(8,), mc_trials=8)
    text = (tmp_path / "certificate.txt").read_text()
    assert "sigma_min" in text and "b_fit" in text and "relative_coherence" in text
    assert set(table) == {"s", "conditioning", "relative_coherence", "window", "sparsity"}


def test_certification_report_sample_rules_inside_their_domain(tmp_path):
    # Legendre's natural weights reach ||omega||_inf^2 / 4 = 15.25, so the
    # rules are evaluated at s = 16, the smallest admissible s from 8 up; j0
    # comes from the certificate's window, which has no scales
    cfg = ExperimentConfig(model="legendre")
    cert, _, table = st.run_certification_report(
        cfg, str(tmp_path), lam_grid=(2.0,), m_grid=(8,), mc_trials=4)
    omega = st.WeightVector(build_model("legendre").natural_weights())
    assert np.max(omega.values) ** 2 / 4.0 == pytest.approx(15.25)
    assert table["s"] == 16
    M = len(cert.positions)
    for variant in ("conditioning", "relative_coherence", "window", "sparsity"):
        assert table[variant] == st.sample_complexity(
            cert, 16, M, cfg.gamma, variant, zeta=cfg.zeta, omega=omega)
    assert "sample_complexity_s 16\n" in (tmp_path / "certificate.txt").read_text()


def test_build_model_is_memoised():
    model = build_model("radon", order=1, j_max=2, s_step=1.0 / 16)
    assert build_model("radon", order=1, j_max=2, s_step=1.0 / 16) is model
    # the cache keys on the values, not on how they are spelled
    assert build_model("radon", 1, 2, 1.0 / 16) is model
    assert build_model("radon", j_max=2, s_step=1.0 / 16) is model
    assert build_model("fanbeam", order=1, j_max=2, s_step=1.0 / 16) is not model


def test_build_model_memo_key_drops_ignored_arguments():
    # Legendre reads none of order, j_max and s_step, Fourier no s_step
    model = build_model("legendre", order=1, j_max=3)
    assert build_model("legendre", order=3, j_max=5, s_step=1.0 / 16) is model
    fourier = build_model("fourier", order=2, j_max=2, s_step=1.0 / 16)
    assert build_model("fourier", order=2, j_max=2) is fourier
    assert build_model("fourier", order=2, j_max=3) is not fourier
    assert build_model("fourier", order=1, j_max=2) is not fourier


def test_s_step_follows_j_max():
    # min(1/32, 2^-(j_max + 1)): 1/32 up to j_max = 4, then halving; the
    # fan-beam ray step is s_step / rho
    for j_max in range(1, 5):
        assert build_model("radon", j_max=j_max).s_step == 1.0 / 32
    assert build_model("radon", j_max=4) is build_model("radon", j_max=4, s_step=1.0 / 32)
    assert build_model("radon", j_max=5).s_step == 1.0 / 64
    assert build_model("fanbeam", j_max=5).alpha_step == 1.0 / 192
    assert build_model("fanbeam", j_max=3).alpha_step == 1.0 / 96
    # a config's default is build_model's at each cell's j_max
    cfg = ExperimentConfig(j0=4, j_max=5, ms=(1,))
    assert cfg.s_step is None
    assert [model.s_step for _, _, model, _ in recovery_cells(cfg)] == [1.0 / 64]
    cfg = ExperimentConfig(j0=2, ms=(1,))
    assert [model.s_step for _, _, model, _ in recovery_cells(cfg)] == [1.0 / 32]


def test_measurement_error_in_quasi_diag_band():
    # with the reweighted solver, the measurement-domain error tracks the
    # scale-weighted coefficient error inside the dyadic-equivalence band
    model = build_model("radon", order=1, j_max=2, s_step=1.0 / 16)
    atlas = model.atlas
    window = st.truncation_positions(atlas, 1)
    _, x_full, _ = st.make_phantom(atlas, st.PhantomSpec("sparse", s=4, seed=2), 1)
    samples = st.draw_samples(model, 24, seed=5)
    system = st.assemble_system(model, window, samples, x_full=x_full,
                                beta=0.05, noise_seed=1)
    from sparsetomo.solve import SolveConfig, solve_constrained_l1
    res = solve_constrained_l1(system, st.WeightVector.ones(len(window)),
                               SolveConfig(zeta=1.0, eta=0.05 + system.tail_residual))
    cert = st.compute_gram(model, window)
    b, c_hat, C_hat = cert.quasi_diag
    diff = res.x_hat - x_full[window]
    meas_sq = float(diff @ cert.normal @ diff)
    wdiff_sq = float(np.sum(2.0 ** (-2.0 * b * model.scales()[window]) * diff ** 2))
    assert c_hat * wdiff_sq * 0.99 <= meas_sq <= C_hat * wdiff_sq * 1.01


def test_doubling_samples_improves_median_error():
    model = build_model("radon", order=1, j_max=2, s_step=1.0 / 16)
    atlas = model.atlas
    _, x_full, _ = st.make_phantom(atlas, st.PhantomSpec("tail", a=0.5, seed=0), 1)
    from sparsetomo.solve import SolveConfig
    medians = []
    for m in (8, 16, 32, 64, 128):
        errs = [run_recovery_cell(atlas, model, 1, x_full, 0.1, m, seed, 1.0,
                                  SolveConfig(max_iters=4000, tol_gap=1e-6)).err_l2
                for seed in range(5)]
        medians.append(float(np.median(errs)))
    inversions = sum(1 for i in range(4) if medians[i + 1] > medians[i] + 1e-12)
    assert inversions <= 1
