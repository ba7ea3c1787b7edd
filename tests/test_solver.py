import numpy as np
import pytest

import sparsetomo as st
from sparsetomo.io import write_trace_csv
from sparsetomo.solve import solve_constrained_l1_matrix

from oracles import atom_image, solve_penalized_path


def toy_system(model, m=4, seed=0, x_true=None, beta=0.0):
    n = model.dictionary_size()
    samples = st.draw_samples(model, m, seed)
    x_full = np.zeros(n) if x_true is None else x_true
    return st.assemble_system(model, np.arange(n), samples, x_full=x_full,
                              beta=beta, noise_seed=seed + 1)


def grid_search_objective(A, y, eta, lo=-2.0, hi=2.0, step=0.01):
    """Dense 3D grid search for min ||x||_1 s.t. ||Ax - y|| <= eta.

    One x1 slice of the grid at a time, by increasing |x1|: a point's
    objective is a float sum of non-negative terms, so it is at least its
    |x1|, and the search stops once |x1| reaches the best value found."""
    H = A.T @ A
    b = A.T @ y
    c = float(y @ y)
    g = np.arange(lo, hi + step / 2, step)
    x2 = g[None, :, None]
    x3 = g[None, None, :]
    best = np.inf
    for i in np.argsort(np.abs(g), kind="stable"):
        if abs(g[i]) >= best:
            break
        x1 = g[i:i + 1, None, None]
        res = (H[0, 0] * x1 ** 2 + H[1, 1] * x2 ** 2 + H[2, 2] * x3 ** 2
               + 2 * H[0, 1] * x1 * x2 + 2 * H[0, 2] * x1 * x3 + 2 * H[1, 2] * x2 * x3
               - 2 * (b[0] * x1 + b[1] * x2 + b[2] * x3) + c)
        feas = res <= eta ** 2 + 1e-12
        obj = np.abs(x1) + np.abs(x2) + np.abs(x3)
        obj = np.where(feas, obj, np.inf)
        best = min(best, float(obj.min()))
    return best


def random_3var_instance(seed, rows=4):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, 3))
    x_true = np.zeros(3)
    x_true[rng.integers(0, 3)] = rng.uniform(-1.5, 1.5)
    y = A @ x_true + 0.05 * rng.standard_normal(rows)
    eta = float(np.linalg.norm(A @ x_true - y)) * rng.uniform(1.0, 1.5)
    return A, y, eta


def test_zero_data_gives_zero(synthetic_model):
    system = toy_system(synthetic_model)
    cfg = st.SolveConfig(eta=0.5)
    res = st.solve_constrained_l1(system, st.WeightVector.ones(6), cfg)
    assert res.status == "optimal"
    assert np.all(res.x_hat == 0.0)
    assert res.objective == 0.0


def test_large_eta_gives_zero(synthetic_model):
    rng = np.random.default_rng(0)
    x_true = rng.standard_normal(6)
    system = toy_system(synthetic_model, x_true=x_true)
    eta = float(np.linalg.norm(system.y)) * 1.5
    res = st.solve_constrained_l1(system, st.WeightVector.ones(6),
                                  st.SolveConfig(eta=eta))
    assert res.status == "optimal"
    assert np.abs(res.x_hat).max() <= 1e-9


def test_infeasible_detected():
    # contradictory rows, short (rows <= columns: least-squares branch) and
    # tall (rows > columns: eigendecomposition branch, verdict from the offset)
    cases = {
        "short": (np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), np.array([1.0, -1.0])),
        "tall": (np.array([[1.0, 0.0, 0.0]] * 4), np.array([1.0, -1.0, 1.0, -1.0])),
    }
    for name, (A, y) in cases.items():
        res = solve_constrained_l1_matrix(A, y, st.WeightVector.ones(3),
                                          st.SolveConfig(eta=0.1))
        assert res.status == "infeasible", name
        assert res.residual == pytest.approx(np.sqrt(len(y)), rel=1e-12), name


def test_feasibility_at_optimum(synthetic_model):
    rng = np.random.default_rng(1)
    x_true = np.zeros(6)
    x_true[[1, 4]] = [1.0, -2.0]
    system = toy_system(synthetic_model, m=6, seed=2, x_true=x_true, beta=0.05)
    cfg = st.SolveConfig(eta=0.05)
    res = st.solve_constrained_l1(system, st.WeightVector.ones(6), cfg)
    assert res.status == "optimal"
    assert res.residual <= cfg.eta * (1 + cfg.tol_feas) + 1e-12


def test_matches_grid_search_oracle():
    for seed in range(8):
        A, y, eta = random_3var_instance(seed)
        res = solve_constrained_l1_matrix(A, y, st.WeightVector.ones(3),
                                          st.SolveConfig(eta=eta))
        oracle = grid_search_objective(A, y, eta)
        assert res.status == "optimal"
        assert abs(res.objective - oracle) <= 0.02


def test_monotone_gap_trace():
    A, y, eta = random_3var_instance(3)
    res = solve_constrained_l1_matrix(A, y, st.WeightVector.ones(3),
                                      st.SolveConfig(eta=eta, check_every=10))
    gaps = [g for it, _, _, g in res.trace if it >= 50]
    assert all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))


def test_trace_gaps_nonnegative():
    # the dual is evaluated at the iterate's own residual radius, where the
    # iterate is feasible, so weak duality bounds every reported gap below
    for seed in range(8):
        for rows in (2, 4, 8):
            A, y, eta = random_3var_instance(seed, rows=rows)
            res = solve_constrained_l1_matrix(A, y, st.WeightVector.ones(3),
                                              st.SolveConfig(eta=eta, check_every=10))
            assert res.status == "optimal", (seed, rows)
            assert res.trace and all(g >= 0.0 for _, _, _, g in res.trace), (seed, rows)
            assert res.gap >= 0.0


def test_trace_csv_written(tmp_path):
    A, y, eta = random_3var_instance(5)
    path = tmp_path / "trace.csv"
    res = solve_constrained_l1_matrix(A, y, st.WeightVector.ones(3),
                                      st.SolveConfig(eta=eta))
    write_trace_csv(str(path), res.trace)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,residual,objective,gap"
    assert len(lines) > 1


def test_weighted_objective_respected():
    # heavy weight on one coordinate pushes mass to the cheap ones; the
    # optimum of this ball-constrained instance is known in closed form
    A = np.eye(3)
    y = np.array([1.0, 1.0, 0.0])
    w = st.WeightVector(np.array([10.0, 1.0, 1.0]))
    res = solve_constrained_l1_matrix(A, y, w, st.SolveConfig(eta=1.0))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(11.0 - np.sqrt(101.0), abs=1e-6)


def noisy_window_system(radon_j2, haar_atlas_j2):
    """A tall j_max=2 Radon system over the j0=1 window, 4 atoms of +-1,
    with noise of norm 0.05 per sample."""
    a = haar_atlas_j2
    w = st.truncation_positions(a, 1)
    rng = np.random.default_rng(4)
    x_full = np.zeros(len(a))
    x_full[rng.choice(w, 4, replace=False)] = rng.choice([-1.0, 1.0], 4)
    system = st.assemble_system(radon_j2, w, st.draw_samples(radon_j2, 24, 5),
                                x_full=x_full, beta=0.05, noise_seed=6)
    return system, radon_j2.scales()[w]


def test_scaling_data_and_radius_scales_solution(haar_atlas_j2, radon_j2):
    # the penalty rule and the certificate are free of the data's scale: y
    # and eta times 2^k give the same iterations and status, x_hat times 2^k
    system, sc = noisy_window_system(radon_j2, haar_atlas_j2)
    omega = st.WeightVector.ones(len(sc))
    runs = {}
    for k in (0, 3, 7):
        f = 2.0 ** k
        runs[k] = solve_constrained_l1_matrix(system, f * system.y, omega,
                                              st.SolveConfig(zeta=1.0, eta=f * 0.05), scales=sc)
    base = runs[0]
    assert base.status == "optimal" and base.objective >= 1.0
    for k, res in runs.items():
        assert (res.status, res.iterations) == (base.status, base.iterations), k
        assert np.abs(res.x_hat - 2.0 ** k * base.x_hat).max() <= 1e-9 * 2.0 ** k, k


def test_scaling_weights_leaves_solution(haar_atlas_j2, radon_j2):
    system, sc = noisy_window_system(radon_j2, haar_atlas_j2)
    w = 1.0 + np.arange(len(sc)) % 3
    cfg = st.SolveConfig(zeta=1.0, eta=0.05)
    base = solve_constrained_l1_matrix(system, system.y, st.WeightVector(w), cfg, scales=sc)
    assert base.status == "optimal" and base.objective >= 1.0
    for k in (2, 6):
        res = solve_constrained_l1_matrix(system, system.y, st.WeightVector(2.0 ** k * w),
                                          cfg, scales=sc)
        assert (res.status, res.iterations) == (base.status, base.iterations), k
        assert np.abs(res.x_hat - base.x_hat).max() <= 1e-9, k


def test_short_rank_deficient_system():
    # 5 rows of rank 3 over 12 columns take the SVD compression; the same
    # rows padded with zero rows are tall and take the Gram's eigenpairs
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 12))
    x_true = np.zeros(12)
    x_true[[2, 9]] = [1.0, -0.5]
    e = 0.01 * rng.standard_normal(5)
    y = A @ x_true + e
    cfg = st.SolveConfig(eta=1.2 * float(np.linalg.norm(e)), tol_gap=1e-9)
    res = solve_constrained_l1_matrix(A, y, st.WeightVector.ones(12), cfg)
    assert res.status == "optimal"
    assert res.residual <= cfg.eta * (1 + cfg.tol_feas) + 1e-12
    assert res.residual == pytest.approx(np.linalg.norm(A @ res.x_hat - y), rel=1e-9)
    tall = solve_constrained_l1_matrix(np.vstack([A, np.zeros((8, 12))]), np.r_[y, np.zeros(8)],
                                       st.WeightVector.ones(12), cfg)
    assert tall.status == "optimal"
    assert tall.objective == pytest.approx(res.objective, rel=1e-6)


def test_penalized_path_limits(synthetic_model):
    rng = np.random.default_rng(3)
    x_true = np.zeros(6)
    x_true[[0, 3]] = [1.5, -1.0]
    system = toy_system(synthetic_model, m=8, seed=4, x_true=x_true, beta=0.02)
    pens = [100.0, 1.0, 0.01, 1e-4]
    path = solve_penalized_path(system, st.WeightVector.ones(6), pens)
    assert np.abs(path[0].x_hat).max() <= 1e-12       # huge penalty kills everything
    resids = [r.residual for r in path]
    assert all(resids[i + 1] <= resids[i] + 1e-9 for i in range(len(resids) - 1))
    # tiny penalty approaches the least-squares residual
    zls, *_ = np.linalg.lstsq(system.matrix, system.y, rcond=None)
    assert resids[-1] <= np.linalg.norm(system.matrix @ zls - system.y) + 1e-3


def test_penalized_path_guards(synthetic_model):
    system = toy_system(synthetic_model)
    with pytest.raises(ValueError):
        solve_penalized_path(system, st.WeightVector.ones(6), [1.0, 2.0])
    with pytest.raises(ValueError):
        solve_penalized_path(system, st.WeightVector.ones(6), [1.0, -1.0])


def test_path_brackets_constrained_objective(synthetic_model):
    rng = np.random.default_rng(5)
    x_true = np.zeros(6)
    x_true[[2, 5]] = [1.0, 0.5]
    system = toy_system(synthetic_model, m=8, seed=6, x_true=x_true, beta=0.05)
    eta = 0.08
    res = st.solve_constrained_l1(system, st.WeightVector.ones(6),
                                  st.SolveConfig(eta=eta, tol_gap=1e-10))
    pens = list(10.0 ** np.arange(1.0, -7.0, -0.25))
    path = solve_penalized_path(system, st.WeightVector.ones(6), pens,
                                   max_iters=40000, tol=1e-12)
    resids = np.array([r.residual for r in path])
    objs = np.array([r.objective for r in path])
    k = int(np.argmin(np.abs(resids - eta)))
    assert abs(objs[k] - res.objective) <= 1e-4 * max(1.0, res.objective) + \
        abs(resids[k] - eta) * 10.0  # slope correction for the bracketing gap


def test_zeta_change_of_variables(haar_atlas_j2, radon_j2):
    a = haar_atlas_j2
    w = st.truncation_positions(a, 1)
    rng = np.random.default_rng(0)
    x_full = np.zeros(len(a))
    x_full[rng.choice(w, 4, replace=False)] = rng.choice([-1.0, 1.0], 4)
    samples = st.draw_samples(radon_j2, 24, seed=1)
    system = st.assemble_system(radon_j2, w, samples, x_full=x_full)
    omega = st.WeightVector.ones(len(w))
    cfg = st.SolveConfig(zeta=1.0, eta=0.0, tol_gap=1e-10)
    direct = st.solve_constrained_l1(system, omega, cfg)
    # manual change of variables: scale the columns, solve unweighted, map back
    scales = radon_j2.scales()[w]
    col = 2.0 ** (0.5 * scales)
    manual = solve_constrained_l1_matrix(system.matrix * col[None, :], system.y,
                                         omega, st.SolveConfig(eta=0.0, tol_gap=1e-10))
    assert abs(direct.objective - manual.objective) <= 1e-8 * max(1.0, direct.objective)
    assert np.linalg.norm(direct.x_hat - col * manual.x_hat) <= 1e-6


def test_synthesis_form_equals_analysis_form(haar_atlas_j2, radon_j2):
    # with an exactly orthonormal rasterized dictionary, the coefficients of
    # the reconstructed image reproduce the synthesis-form objective
    a = haar_atlas_j2
    w = st.truncation_positions(a, 1)
    rng = np.random.default_rng(2)
    x_full = np.zeros(len(a))
    x_full[rng.choice(w, 3, replace=False)] = 1.0
    system = st.assemble_system(radon_j2, w, st.draw_samples(radon_j2, 20, 3),
                                x_full=x_full)
    omega = st.WeightVector.ones(len(w))
    res = st.solve_constrained_l1(system, omega, st.SolveConfig(eta=0.0))
    x = np.zeros(len(a))
    x[w] = res.x_hat
    img = st.synthesis(a, x)
    coeffs = st.analysis(a, img)
    analysis_obj = float(np.abs(coeffs[w]).sum())
    assert abs(analysis_obj - res.objective) <= 1e-8 * max(1.0, res.objective)


def test_reconstruct_image_unit_vector(haar_atlas_j2):
    a = haar_atlas_j2
    w = st.truncation_positions(a, 1)
    x = np.zeros(len(a))
    x[w] = np.eye(len(w))[3]        # x_hat of the window, scattered into the atlas
    img = st.synthesis(a, x)
    assert np.array_equal(img, atom_image(a, a.gamma[w[3]]))


def test_reconstruct_image_norm_isometry(haar_atlas_j2):
    a = haar_atlas_j2
    w = st.truncation_positions(a, 1)
    rng = np.random.default_rng(1)
    x = np.zeros(len(a))
    x[w] = rng.standard_normal(len(w))
    img = st.synthesis(a, x)
    from sparsetomo.wavelets import image_norm
    tau = 5 * a.grid.h
    assert abs(image_norm(a, img) - np.linalg.norm(x)) <= tau * np.linalg.norm(x)


def test_solve_config_validation():
    with pytest.raises(ValueError):
        st.SolveConfig(zeta=1.5)
    with pytest.raises(ValueError):
        st.SolveConfig(eta=-1.0)
    with pytest.raises(ValueError):
        st.SolveConfig(tol_gap=0.0)
    with pytest.raises(ValueError):
        st.SolveConfig(max_iters=0)
    with pytest.raises(ValueError):
        st.SolveConfig(check_every=0)
