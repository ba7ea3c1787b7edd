import numpy as np
import pytest

import sparsetomo as st
from sparsetomo import experiments, models
from sparsetomo.certify import (NumericalConsistencyError, _draw_supports, _eigvalsh,
                                _greedy_support, _normal_spectrum, _support_delta,
                                _symmetry_blocks, default_quadrature)
from sparsetomo.experiments import ExperimentConfig, build_model, run_certification_report
from sparsetomo.models import _CHUNK, _population_pass, population_gram_matrix

import oracles
from oracles import (SyntheticDiagonalModel, atom_norms, averaged_population_gram,
                     delta_star_bruteforce, dense_population_gram, full_window_delta_rows,
                     rnsp_witness_search, sampled_normal, truncation_residual)


def all_positions(model):
    return np.arange(model.dictionary_size())


# ---------------------------------------------------------------------------
# Gram certificates


def test_gram_identity_for_isometry():
    model = SyntheticDiagonalModel([0, 0, 0, 0], b=0.0)
    cert = st.compute_gram(model, all_positions(model))
    assert np.abs(cert.normal - np.eye(4)).max() < 1e-10
    assert cert.sigma_min == pytest.approx(1.0, abs=1e-10)
    assert not cert.fbi_flag


def test_gram_diagonal_decay(synthetic_model, synthetic_cert):
    js = synthetic_model.scales()
    expect = np.diag(2.0 ** (-1.0 * js))
    assert np.abs(synthetic_cert.normal - expect).max() < 1e-10
    assert synthetic_cert.sigma_min == pytest.approx(2.0 ** -1.0, abs=1e-10)
    assert synthetic_cert.inv_norm * synthetic_cert.sigma_min == pytest.approx(1.0, abs=1e-12)


def test_gram_diagonal_rescaling_formula(synthetic_model, synthetic_cert):
    # ||(G Z)^-1||^2 = 1 / lambda_min(Z normal Z) equals the worst rescaled
    # dyadic factor, exactly
    js = synthetic_model.scales()
    rng = np.random.default_rng(0)
    z = 0.5 + rng.random(len(js))
    inv2 = 1.0 / np.linalg.eigvalsh(np.diag(z) @ synthetic_cert.normal @ np.diag(z))[0]
    expect = np.max(z ** -2.0 * 2.0 ** (1.0 * js))
    assert inv2 == pytest.approx(expect, rel=1e-10)


def test_gram_symmetry_and_inverse_norm(radon_j2, haar_atlas_j2):
    w = st.truncation_positions(haar_atlas_j2, 1)
    cert = st.compute_gram(radon_j2, w)
    assert np.abs(cert.normal - cert.normal.T).max() < 1e-10
    assert cert.inv_norm * cert.sigma_min == pytest.approx(1.0, abs=1e-12)
    assert cert.quasi_diag[1] <= cert.quasi_diag[2]
    assert not cert.fbi_flag


def test_gram_convergence_check_passes(radon_j2, haar_atlas_j2):
    w = st.truncation_positions(haar_atlas_j2, 1)
    cert = st.compute_gram(radon_j2, w, check_convergence=True)
    assert cert.sigma_min_shift is not None
    assert cert.sigma_min_shift <= 0.01


PASS_MODELS = {
    "radon": st.RadonModel,
    "fanbeam": st.FanBeamModel,
    "fourier": lambda _: st.FourierWaveletModel(st.build_filter(1), j_max=2),
    "legendre": lambda _: st.LegendrePointModel(12),
}


@pytest.mark.parametrize("kind", list(PASS_MODELS))
def test_gram_pass_matches_single_rule_oracles(kind, haar_atlas_j2):
    # the n rule's pass gives the Gram and the coherence norms that its own
    # quadrature gave, bit for bit; the doubling check adds the half-step
    # rule where the rules nest, and each pass hands each of its nodes to
    # the row kernel once, at most _CHUNK nodes per call
    model = PASS_MODELS[kind](haar_atlas_j2)
    w = np.arange(model.dictionary_size())
    calls = []
    runs = model._runs

    def counting_runs(positions, ts):
        assert len(ts) <= _CHUNK
        calls.extend(float(t) for t in ts)
        return runs(positions, ts)

    model._runs = counting_runs
    cert = st.compute_gram(model, w, check_convergence=True)
    del model._runs
    n = cert.n_quad

    assert np.array_equal(cert.normal, population_gram_matrix(model, w, n))
    normal2 = population_gram_matrix(model, w, 2 * n)
    fine, fine_wts = model.population_nodes(2 * n)
    if kind in ("radon", "fanbeam"):
        # the 2n rule's even nodes at twice their weights are the n rule, so
        # its Gram is the mean of the n rule's and the half-step rule's,
        # which is the 2n rule's own up to rounding
        half, _, _ = _population_pass(model, w, fine[1::2], 2.0 * fine_wts[1::2])
        mean = 0.5 * (cert.normal + half)
        assert np.linalg.norm(mean - normal2) <= 1e-15 * np.linalg.norm(normal2)
        normal2 = mean
    # the fan beam's eigenvalues come from the square's symmetry blocks
    blocks = _symmetry_blocks(*model.symmetry(w)) if kind == "fanbeam" else None
    s2 = float(np.sqrt(max(_eigvalsh(normal2, blocks)[0], 0.0)))
    assert cert.sigma_min_shift == abs(cert.sigma_min - s2) / max(s2, 1e-300)

    nodes, _ = model.population_nodes(min(n, 64))
    sc = np.zeros(len(w), int) if model.scales() is None else model.scales()[w]
    nr = np.array([atom_norms(model, w, t) / np.sqrt(model.density(t)) for t in nodes])
    nr /= model.natural_weights()[w]

    def maxima(rows):
        return np.array([rows[:, sc == j].max() for j in range(sc.max() + 1)])

    if kind == "fanbeam":
        # the coherence nodes off the first octant and off the axes take the
        # octant's norms permuted by the square's symmetry, which keeps each
        # scale: the maxima are the visited nodes' bit for bit, and the
        # maxima over every node's own norms up to rounding
        q = len(nodes) // 4
        visited = [k for k in range(len(nodes)) if k <= q // 2 or k % q == 0]
        assert np.array_equal(cert.scale_coherence_max, maxima(nr[visited]))
        full = maxima(nr)
        assert (np.abs(cert.scale_coherence_max - full) <= 1e-14 * full).all()
    else:
        assert np.array_equal(cert.scale_coherence_max, maxima(nr))

    nodes_n = [float(t) for t in model.population_nodes(n)[0]]
    if kind == "radon":     # the n rule, then the half-step rule: the 2n rule's nodes
        assert calls == nodes_n + [float(t) for t in fine[1::2]]
        assert len(set(calls)) == 2 * n
    if kind == "fanbeam":
        # under the square's symmetry the n rule visits its first octant and
        # its axis nodes, the half-step rule its first p nodes: together the
        # 2n rule's first octant and its axis nodes, n = 128: 36 angles
        q = n // 4
        assert calls == nodes_n[1:q // 2 + 1] + nodes_n[::q] + [float(t) for t in fine[1:q:2]]
        assert set(calls) == {float(t) for t in (*fine[:q + 1], *fine[::2 * q])}
        assert len(calls) == len(set(calls)) == 36
    if kind in ("fourier", "legendre"):
        # the rules do not nest: the 2n rule takes a pass of its own
        assert calls == nodes_n + [float(t) for t in fine]
        assert np.array_equal(normal2, population_gram_matrix(model, w, 2 * n))
    if kind == "fourier":   # population_nodes ignores n: the same quadrature
        assert cert.sigma_min_shift == 0.0


@pytest.mark.parametrize("kind", ["fanbeam", "radon"])
def test_gram_doubling_products(kind, monkeypatch, radon_j2):
    # the doubling check's half-step rule shares no node with the n rule, and
    # no rule's products repeat another's: on the certify-fan window two
    # products of the n rule's 20 visited nodes (its sector, diagonal and
    # axis nodes, n = 128) and one of the half-step rule's 16, on the Radon
    # window 8 + 8 products of 16 nodes (7 and 24 when the 2n rule took
    # products of its own)
    if kind == "fanbeam":
        model = build_model("fanbeam", j_max=3)
        w, expect = np.flatnonzero(model.scales() <= 2), 3
    else:
        model, expect = radon_j2, 16
        w = all_positions(model)
    counted = []
    band = models._band

    def counting_band(*args):
        counted.append(1)
        return band(*args)

    monkeypatch.setattr(models, "_band", counting_band)
    st.compute_gram(model, w, check_convergence=True)
    assert len(counted) == expect


@pytest.fixture(scope="module", params=[1, 2, 3])
def fan_symmetric_grams(request):
    # the fan-beam j0 window of a j_max = j0 + 1 model, its symmetry maps and
    # the Grams of its two symmetric rules at default_quadrature's n
    j0 = request.param
    model = build_model("fanbeam", j_max=j0 + 1)
    w = st.truncation_positions(model.atlas, j0)
    n = default_quadrature(model, w)
    fine, fine_wts = model.population_nodes(2 * n)
    G, _, _ = _population_pass(model, w, *model.population_nodes(n))
    half, _, _ = _population_pass(model, w, fine[1::2], 2.0 * fine_wts[1::2])
    return model, w, model.symmetry(w), G, half


def test_fanbeam_symmetric_rule_grams_are_invariant(fan_symmetric_grams):
    # the uniform rule's Gram and the half-step rule's are each folded by the
    # whole group, so the quarter turn and the reflection leave them exactly
    # as they are: (S G S^T)[image_i, image_k] = sign_i sign_k G[i, k]
    _, _, maps, G, half = fan_symmetric_grams
    for M in (G, half):
        for image, sign in maps:
            moved = np.empty_like(M)
            moved[np.ix_(image, image)] = M * np.outer(sign, sign)
            assert np.array_equal(moved, M)


def test_fanbeam_block_eigenvalues_match_eigvalsh(fan_symmetric_grams):
    # every eigenvalue of the three matrices compute_gram reads (the normal
    # matrix, the doubled Gram and normal / outer(d, d)) from the symmetry
    # blocks, each two-dimensional block's twice, equals eigvalsh's of the
    # whole matrix to 1e-14 of the largest
    model, w, maps, G, half = fan_symmetric_grams
    blocks = _symmetry_blocks(*maps)
    assert sum(len(rows) * mult for rows, _, _, mult in blocks) == len(w)
    assert [mult for *_, mult in blocks] == [1, 1, 1, 1, 2]
    d = 2.0 ** (-model.smoothing_exponent * model.scales()[w])
    for M in (G, 0.5 * (G + half), G / np.outer(d, d)):
        full = np.linalg.eigvalsh(M)
        assert np.abs(_eigvalsh(M, blocks) - full).max() <= 1e-14 * full[-1]


def test_symmetry_blocks_reject_an_action_their_bases_do_not_fit():
    # the square's group permuting 4 indices with D P fixing index 0 (P the
    # cycle 0 -> 1 -> 2 -> 3, D swapping 0, 1 and 2, 3): the two-dimensional
    # representation's half gets two vectors that are not orthogonal where
    # it has room for one, and the sizes add up to 6, not 4
    turn, mirror = (np.array([1, 2, 3, 0]), np.ones(4)), (np.array([1, 0, 3, 2]), np.ones(4))
    with pytest.raises(ValueError, match="square's symmetries"):
        _symmetry_blocks(turn, mirror)


def test_fanbeam_half_step_rule_visits_first_octant(haar_atlas_j2):
    # the half-step rule has no node on an axis or a diagonal: every orbit
    # of the square's symmetry has 8 nodes, and its pass visits the first p
    # of its 8p nodes (16 of 128)
    model = st.FanBeamModel(haar_atlas_j2)
    w = all_positions(model)
    fine, fine_wts = model.population_nodes(256)
    nodes, wts = fine[1::2], 2.0 * fine_wts[1::2]
    calls = []
    runs = model._runs

    def counting_runs(positions, ts):
        calls.extend(float(t) for t in ts)
        return runs(positions, ts)

    model._runs = counting_runs
    G, _, _ = _population_pass(model, w, nodes, wts)
    del model._runs
    assert calls == [float(t) for t in nodes[:16]]
    expect = dense_population_gram(model, w, nodes, wts)
    assert np.linalg.norm(G - expect) <= 1e-14 * np.linalg.norm(expect)


def test_certify_fan_window_takes_no_band_product(tmp_path, monkeypatch):
    # on the fan-beam j0 = 2 window (the certify-fan benchmark's) a band
    # product's volume exceeds its share of the dense one's in every pass of
    # the certification report, so the certificate keeps the dense products'
    # bits; the Radon j0 = 3 window's uniform rule takes band products
    plans, band = [], models._band

    def recorded(*args):
        plans.append(band(*args))
        return plans[-1]

    monkeypatch.setattr(models, "_band", recorded)
    cfg = ExperimentConfig(model="fanbeam", j0=2, j_max=3, zeta=1.0, gamma=0.1)
    run_certification_report(cfg, str(tmp_path), seed=0)
    assert plans and all(plan is None for plan in plans)
    plans.clear()
    model = build_model("radon", j_max=4)
    nodes, wts = model.population_nodes(256)
    _population_pass(model, st.truncation_positions(model.atlas, 3), nodes[:_CHUNK],
                     wts[:_CHUNK])
    assert len(plans) == 1 and plans[0] is not None


@pytest.mark.parametrize("kind", list(PASS_MODELS) + ["synthetic"])
def test_every_gram_is_exactly_symmetric(kind, haar_atlas_j2, synthetic_model):
    # each product adds every pair of atoms to one side of the Gram, which
    # the kernel mirrors once, and the fan beam's folds add symmetric
    # matrices: the population normal matrix and the sampled normal matrix
    # equal their transposes bit for bit, so delta*'s difference is
    # symmetric as it stands
    model = synthetic_model if kind == "synthetic" else PASS_MODELS[kind](haar_atlas_j2)
    w = all_positions(model)
    cert = st.compute_gram(model, w)
    sampled = sampled_normal(model, w, st.draw_samples(model, 24, seed=0))
    for G in (cert.normal, sampled):
        assert np.array_equal(G, G.T)


@pytest.mark.parametrize("kind", list(PASS_MODELS) + ["synthetic"])
def test_gram_pass_matches_dense_oracle(kind, haar_atlas_j2, synthetic_model):
    # the hit-row products give the Gram of the dense per-node loop, and the
    # pass's row norms are the dense rows' norms, up to summation order; the
    # fan beam's folded pass gives that Gram's average over the square's
    # symmetries, whose sigma_min moves far less than the doubling shift
    model = synthetic_model if kind == "synthetic" else PASS_MODELS[kind](haar_atlas_j2)
    w = np.arange(model.dictionary_size())
    cert = st.compute_gram(model, w, check_convergence=kind == "fanbeam")
    n = cert.n_quad
    expect = dense_population_gram(model, w, *model.population_nodes(n))
    if kind == "fanbeam":
        plain, expect = expect, averaged_population_gram(model, w, *model.population_nodes(n))
        s_plain, s_avg = (np.sqrt(np.linalg.eigvalsh(G)[0]) for G in (plain, expect))
        assert abs(s_avg - s_plain) / s_plain < cert.sigma_min_shift / 50
    for G in (cert.normal, population_gram_matrix(model, w, n)):
        assert np.linalg.norm(G - expect) <= 1e-14 * np.linalg.norm(expect)
    nodes, _ = model.population_nodes(min(n, 64))
    _, norms, _ = _population_pass(model, w, *model.population_nodes(n), nodes)
    if kind != "fanbeam":   # the fan beam's pass visits one octant and the axes
        assert [t for t, _ in norms] == list(nodes)

    def dense_norms(ts):
        return np.array([np.sqrt((R * R).sum(axis=1) * model.quad_weight)
                         for R in (model.rows(w, t) for t in ts)])

    for ts, got in (([t for t, _ in norms], np.array([nr for _, nr in norms])),
                    (nodes, atom_norms(model, w, nodes))):
        dense = dense_norms(ts)
        assert np.linalg.norm(got - dense) <= 1e-14 * np.linalg.norm(dense)


@pytest.mark.parametrize("case", ["open_window", "n_not_divisible_by_4",
                                  "n_not_divisible_by_8"])
def test_fanbeam_pass_without_quarter_turn_visits_every_node(case, haar_atlas_j2):
    # a window that the square's symmetry leaves, or a rule whose nodes do
    # not fall into octants, takes every node to the row kernel, once; the
    # norms come at the norm nodes the rule visits, and only there
    model = st.FanBeamModel(haar_atlas_j2)
    if case == "open_window":
        w, n = np.flatnonzero(haar_atlas_j2.n1 >= 0), 64
        assert model.symmetry(w) is None
    else:
        w, n = np.arange(len(haar_atlas_j2)), {"n_not_divisible_by_4": 30,
                                               "n_not_divisible_by_8": 36}[case]
        assert model.symmetry(w) is not None
    calls = []
    runs = model._runs

    def counting_runs(positions, ts):
        calls.extend(float(t) for t in ts)
        return runs(positions, ts)

    model._runs = counting_runs
    norm_nodes = model.population_nodes(64)[0]
    G, norms, _ = _population_pass(model, w, *model.population_nodes(n), norm_nodes)
    del model._runs
    assert calls == [float(t) for t in model.population_nodes(n)[0]]
    assert [t for t, _ in norms] == [t for t in calls if t in set(norm_nodes.tolist())]
    assert np.array_equal(G, population_gram_matrix(model, w, n))
    expect = dense_population_gram(model, w, *model.population_nodes(n))
    assert np.linalg.norm(G - expect) <= 1e-14 * np.linalg.norm(expect)
    got = np.array([nr for _, nr in norms])
    dense = np.array([np.sqrt((R * R).sum(axis=1) * model.quad_weight)
                      for R in (model.rows(w, t) for t, _ in norms)])
    assert np.linalg.norm(got - dense) <= 1e-14 * np.linalg.norm(dense)


def test_radon_shared_dilation_coherence_maxima_agree():
    # scale 0's scaling atoms and scale 1's wavelets share dilation 2: read
    # from the same rows, their coherence maxima are the same number
    model = build_model("radon", j_max=2)
    cert = st.compute_gram(model, st.truncation_positions(model.atlas, 1))
    assert cert.scale_coherence_max[0] == cert.scale_coherence_max[1]


def test_quasi_diag_synthetic_exact(synthetic_cert):
    _, c_hat, C_hat = synthetic_cert.quasi_diag
    assert c_hat == pytest.approx(1.0, abs=1e-10)
    assert C_hat == pytest.approx(1.0, abs=1e-10)
    assert synthetic_cert.b_fit == pytest.approx(0.5, abs=1e-10)


# ---------------------------------------------------------------------------
# restricted-isometry constants


def small_sampled(model, m, seed=0):
    """The sampled normal matrix of m random samples over the whole
    dictionary."""
    return sampled_normal(model, all_positions(model), st.draw_samples(model, m, seed))


def test_delta_star_population_limit(synthetic_model, synthetic_cert):
    # sampling at the quadrature nodes reproduces the population normal matrix
    nodes, _ = synthetic_model.population_nodes(16)
    sampled = sampled_normal(synthetic_model, all_positions(synthetic_model), nodes)
    omega = st.WeightVector.ones(6)
    est = delta_star_bruteforce(sampled, synthetic_cert, omega, 2.0)
    assert est.delta_star <= 1e-8


def test_delta_star_bruteforce_matches_random_inner_search(synthetic_model, synthetic_cert):
    sampled = small_sampled(synthetic_model, 2, seed=5)
    omega = st.WeightVector.ones(6)
    lam = 2.0
    est = delta_star_bruteforce(sampled, synthetic_cert, omega, lam)
    # randomized inner oracle: dense sampling of the constraint set
    M = sampled - synthetic_cert.normal
    GG = synthetic_cert.normal
    rng = np.random.default_rng(0)
    best = 0.0
    from itertools import combinations
    for S in combinations(range(6), 2):
        S = list(S)
        for _ in range(10000):
            z = rng.standard_normal(2)
            x = np.zeros(6)
            x[S] = z
            x = x / np.sqrt(x @ GG @ x)
            best = max(best, abs(x @ M @ x))
    assert best <= est.delta_star + 1e-10
    assert est.delta_star <= best + 1e-6 * max(1.0, est.delta_star)


def test_delta_star_unrestricted_is_spectral_norm(synthetic_model, synthetic_cert):
    sampled = small_sampled(synthetic_model, 3, seed=1)
    omega = st.WeightVector.ones(6)
    est = delta_star_bruteforce(sampled, synthetic_cert, omega, 6.0)
    spec = _support_delta(sampled - synthetic_cert.normal, synthetic_cert.normal, range(6))
    assert est.delta_star == pytest.approx(spec, abs=1e-10)


def test_delta_star_monotone_in_budget(synthetic_model, synthetic_cert):
    sampled = small_sampled(synthetic_model, 2, seed=7)
    omega = st.WeightVector.ones(6)
    prev = 0.0
    for lam in (1.0, 2.0, 4.0, 6.0):
        cur = delta_star_bruteforce(sampled, synthetic_cert, omega, lam).delta_star
        assert cur >= prev - 1e-12
        prev = cur


def test_delta_star_montecarlo_bounds_bruteforce(synthetic_model, synthetic_cert):
    sampled = small_sampled(synthetic_model, 2, seed=3)
    omega = st.WeightVector.ones(6)
    brute = delta_star_bruteforce(sampled, synthetic_cert, omega, 3.0)
    mc = st.delta_star_montecarlo(sampled, synthetic_cert.normal,
                                  _draw_supports(omega, 3.0, 50, 0), trials=50)
    assert mc.delta_star <= brute.delta_star + 1e-10
    # exhaustive trials on a tiny instance reach the brute-force value
    mc_full = st.delta_star_montecarlo(sampled, synthetic_cert.normal,
                                       _draw_supports(omega, 3.0, 4000, 1), trials=4000)
    assert mc_full.delta_star == pytest.approx(brute.delta_star, rel=1e-12)


def test_delta_star_montecarlo_peak_memory():
    # the sampled normal matrix is the population pass of the samples' rule,
    # _CHUNK samples per product: the sampled matrix and the estimate never
    # hold the dense A (the pre-streaming code held it twice)
    import tracemalloc
    model = build_model("fanbeam", j_max=2)
    w = st.truncation_positions(model.atlas, 1)
    cert = st.compute_gram(model, w)
    m = 16 * _CHUNK
    samples = st.draw_samples(model, m, seed=1)
    omega = st.WeightVector.ones(len(w))
    tracemalloc.start()
    try:
        sampled = sampled_normal(model, w, samples)
        est = st.delta_star_montecarlo(sampled, cert.normal, _draw_supports(omega, 4.0, 8, 0),
                                       trials=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.delta_star > 0.0
    assert peak <= 0.25 * m * model.block_dim * len(w) * 8


@pytest.mark.parametrize("kind, order, j0", [
    ("fanbeam", 1, 1), ("fanbeam", 1, 2), ("radon", 1, 1), ("radon", 1, 2), ("radon", 2, 1),
    ("radon", 2, 2), ("fourier", 1, 2), ("legendre", 1, 2), ("fanbeam", 1, 3), ("radon", 1, 3)])
def test_report_delta_rows_match_full_window_oracle(kind, order, j0, tmp_path):
    # the report's sample passes run over the union of the drawn supports'
    # atoms only; each delta* row is the full window's, at the same
    # supports, up to the rounding of a product over fewer atoms (the
    # sampled matrix's entries on the union move by at most a few ulps)
    cfg = ExperimentConfig(model=kind, wavelet_order=order, j0=j0, j_max=j0 + 1)
    for seed in (0, 1):
        _, rows, _ = run_certification_report(cfg, str(tmp_path / str(seed)), seed=seed)
        expect = full_window_delta_rows(cfg, seed=seed)
        assert [r[:2] for r in rows] == [r[:2] for r in expect]
        for (_, _, got), (_, _, ref) in zip(rows, expect):
            assert abs(got - ref) <= 1e-14 * ref


def test_report_sample_passes_read_the_supports_atoms(tmp_path, monkeypatch):
    # each m's sample pass receives exactly window[U], U the union of every
    # lambda's supports, and on the certify-fan window U leaves atoms out
    seen, run = [], experiments._population_pass

    def recorded(model, positions, *args):
        seen.append(np.array(positions))
        return run(model, positions, *args)

    monkeypatch.setattr(experiments, "_population_pass", recorded)
    cfg = ExperimentConfig(model="fanbeam", j0=2, j_max=3, zeta=1.0, gamma=0.1)
    cert, _, _ = run_certification_report(cfg, str(tmp_path), seed=0)
    window = cert.positions
    omega = st.WeightVector.ones(len(window))
    union = np.unique([i for lam in (2.0, 4.0) for S in _draw_supports(omega, lam, 64, 0)
                       for i in S])
    assert len(seen) == 2 and len(union) < len(window)
    for positions in seen:
        assert np.array_equal(positions, window[union])


def test_report_lambda_below_every_weight_takes_no_sample_pass(tmp_path, monkeypatch):
    # no weight fits the budget: no support is drawn, so no sample pass
    # runs and delta* is 0
    def refuse(*args):
        raise AssertionError("a sample pass ran")

    monkeypatch.setattr(experiments, "_population_pass", refuse)
    cfg = ExperimentConfig(model="fanbeam", j0=1, j_max=2)
    _, rows, _ = run_certification_report(cfg, str(tmp_path), lam_grid=(0.5,), seed=0)
    assert rows == [(0.5, 16, 0.0), (0.5, 32, 0.0)]


def test_delta_star_montecarlo_rejects_disagreeing_sizes(haar_atlas_j2, radon_j2):
    # the sampled matrix, the population matrix and the supports must be
    # over one index set: matrices of two sizes, or a support past them, is
    # an error, not a number
    w = st.truncation_positions(haar_atlas_j2, 1)
    cert = st.compute_gram(radon_j2, w)
    sampled = sampled_normal(radon_j2, w, st.draw_samples(radon_j2, 8, seed=0))
    supports = _draw_supports(st.WeightVector.ones(len(w)), 2.0, 8, 0)
    top = max(max(S) for S in supports)
    for args in ((sampled[:-1, :-1], cert.normal), (sampled, cert.normal[:-1, :-1]),
                 (sampled[:top, :top], cert.normal[:top, :top])):
        with pytest.raises(ValueError):
            st.delta_star_montecarlo(*args, supports, trials=8)
    assert st.delta_star_montecarlo(sampled, cert.normal, supports, trials=8).delta_star > 0.0


def one_support_delta(M, normal, S):
    """Reference: the restricted constant of one support, one matrix at a
    time."""
    W = normal[np.ix_(S, S)]
    evals, evecs = np.linalg.eigh(W)
    evals = np.clip(evals, evals.max() * 1e-14, None)
    Wih = (evecs / np.sqrt(evals)) @ evecs.T
    sym = Wih @ M[np.ix_(S, S)] @ Wih
    sym = 0.5 * (sym + sym.T)
    return float(np.max(np.abs(np.linalg.eigvalsh(sym))))


def test_support_delta_stack_matches_one_support_calls():
    # the Monte Carlo search evaluates a stack of supports of one size at a
    # time; each value is the one-support computation's, bit for bit
    model = build_model("fanbeam", j_max=2)
    w = st.truncation_positions(model.atlas, 1)
    cert = st.compute_gram(model, w)
    M = sampled_normal(model, w, st.draw_samples(model, 16, seed=1)) - cert.normal
    M = 0.5 * (M + M.T)
    rng = np.random.default_rng(4)
    for size in (1, 2, 4, 7):
        stack = np.array([rng.choice(len(w), size, replace=False) for _ in range(9)])
        one = [one_support_delta(M, cert.normal, list(S)) for S in stack]
        assert np.array_equal(_support_delta(M, cert.normal, stack), one)
        assert [_support_delta(M, cert.normal, list(S)) for S in stack] == one


def test_delta_star_montecarlo_deterministic(synthetic_model, synthetic_cert):
    sampled = small_sampled(synthetic_model, 4, seed=2)
    omega = st.WeightVector.ones(6)
    a = st.delta_star_montecarlo(sampled, synthetic_cert.normal,
                                 _draw_supports(omega, 2.0, 20, 9), trials=20)
    b = st.delta_star_montecarlo(sampled, synthetic_cert.normal,
                                 _draw_supports(omega, 2.0, 20, 9), trials=20)
    assert a.delta_star == b.delta_star


def test_delta_star_diagonal_invariance(synthetic_model, synthetic_cert):
    # rescaling columns of both operators by a positive diagonal leaves the
    # restricted constant unchanged (conjugated eigenproblems)
    sampled = small_sampled(synthetic_model, 3, seed=11)
    omega = st.WeightVector.ones(6)
    base = delta_star_bruteforce(sampled, synthetic_cert, omega, 2.0)
    rng = np.random.default_rng(4)
    z = 0.5 + rng.random(6)
    scaled = np.diag(z) @ sampled @ np.diag(z)
    cert_scaled = st.GramCertificate(
        normal=np.diag(z) @ synthetic_cert.normal @ np.diag(z),
        sigma_min=0.0, sigma_max=0.0, quasi_diag=(0.5, 0, 0),
        b_fit=0.5, coherence_B=1.0, d_exponents=synthetic_cert.d_exponents,
        scale_coherence_max=synthetic_cert.scale_coherence_max,
        relative_coherence=1.0, fbi_flag=False, scales=synthetic_cert.scales,
        positions=synthetic_cert.positions, n_quad=synthetic_cert.n_quad)
    scaled_est = delta_star_bruteforce(scaled, cert_scaled, omega, 2.0)
    assert scaled_est.delta_star == pytest.approx(base.delta_star, rel=1e-10)


def test_delta_star_capacity_guard(haar_atlas_j2, radon_j2):
    w = st.truncation_positions(haar_atlas_j2, 1)  # 64 atoms > 16
    sampled = sampled_normal(radon_j2, w, st.draw_samples(radon_j2, 3, 0))
    cert = st.compute_gram(radon_j2, w)
    with pytest.raises(ValueError):
        delta_star_bruteforce(sampled, cert, st.WeightVector.ones(len(w)), 2.0)


# ---------------------------------------------------------------------------
# sample complexity


def test_sample_complexity_sparsity_rule_formula(synthetic_cert):
    # j0 is the top scale of the certificate's window, 2
    m = st.sample_complexity(synthetic_cert, s=8, M=100, gamma=0.1, variant="sparsity")
    assert m == st.recovery_rule_m(1.0, 8, 2, 0.1)
    assert m == int(np.ceil(8 * max(2 * np.log(8) ** 3, np.log(10.0))))
    assert m == 144


def test_sample_complexity_conditioning_isometry():
    model = SyntheticDiagonalModel([0, 0, 0, 0, 0], b=0.0)
    cert = st.compute_gram(model, np.arange(5))
    assert cert.sigma_min == pytest.approx(1.0, abs=1e-10)
    assert cert.sigma_max == pytest.approx(1.0, abs=1e-10)
    s = 3
    m = st.sample_complexity(cert, s=s, M=5, gamma=0.5, variant="conditioning")
    tau = cert.coherence_B ** 2 * s  # conditioning factors are exactly one
    assert m == int(np.ceil(tau * max(np.log(tau) ** 3 * np.log(5), np.log(2.0))))


def test_sample_complexity_relative_coherence_collapse(synthetic_model, synthetic_cert):
    # measured d factors equal the dyadic decay, so the zeta=1 rule loses the
    # window factor entirely
    s = 4
    m = st.sample_complexity(synthetic_cert, s=s, M=6, gamma=0.1,
                             variant="relative_coherence", zeta=1.0)
    B = synthetic_cert.coherence_B
    js = np.arange(len(synthetic_cert.d_exponents))
    maxfac = np.max(synthetic_cert.d_exponents ** -2.0 * 2.0 ** (2 * 0.5 * js))
    assert maxfac == pytest.approx(1.0, rel=1e-6)
    tau = B ** 2 * s
    assert m == int(np.ceil(tau * max(np.log(tau) ** 3 * np.log(6), np.log(10.0))))


def test_sample_complexity_guards(synthetic_cert):
    with pytest.raises(ValueError):
        st.sample_complexity(synthetic_cert, s=1, M=6, gamma=0.1, variant="sparsity")
    with pytest.raises(ValueError):
        st.sample_complexity(synthetic_cert, s=7, M=6, gamma=0.1, variant="sparsity")
    with pytest.raises(ValueError):
        st.sample_complexity(synthetic_cert, s=3, M=6, gamma=0.1, variant="nope")
    heavy = st.WeightVector(np.array([1.0, 4.0, 1.0, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        st.sample_complexity(synthetic_cert, s=3, M=6, gamma=0.1,
                             variant="sparsity", omega=heavy)


# ---------------------------------------------------------------------------
# truncation and null-space witnesses


def test_truncation_residual_zero_inside_window(haar_atlas_j2, radon_j2):
    a = haar_atlas_j2
    w = st.truncation_positions(a, 1)
    x_full = np.zeros(len(a))
    x_full[w[3]] = 1.0
    system = st.assemble_system(radon_j2, w, st.draw_samples(radon_j2, 4, 0),
                                x_full=x_full)
    rep = truncation_residual(system, radon_j2, x_full)
    assert rep.residual == 0.0
    assert rep.tail_norm == 0.0


def test_truncation_residual_single_tail_atom(haar_atlas_j2, radon_j2):
    a = haar_atlas_j2
    w = st.truncation_positions(a, 1)
    cert = st.compute_gram(radon_j2, w)
    tail_pos = [i for i in range(len(a)) if i not in set(w)][5]
    x_full = np.zeros(len(a))
    x_full[tail_pos] = 0.7
    system = st.assemble_system(radon_j2, w, st.draw_samples(radon_j2, 6, 1),
                                x_full=x_full)
    rep = truncation_residual(system, radon_j2, x_full, cert=cert)
    assert rep.tail_norm == pytest.approx(0.7)
    assert 0.0 < rep.residual <= rep.bound
    assert rep.tail_truncated


def test_truncation_residual_linear_in_tail(haar_atlas_j2, radon_j2):
    a = haar_atlas_j2
    w = st.truncation_positions(a, 1)
    tail_dir = np.zeros(len(a))
    tail_dir[len(a) - 3] = 1.0
    samples = st.draw_samples(radon_j2, 5, 2)
    vals = []
    for r in (0.5, 1.0, 2.0):
        system = st.assemble_system(radon_j2, w, samples, x_full=r * tail_dir)
        rep = truncation_residual(system, radon_j2, r * tail_dir)
        vals.append(rep.residual / r)
    assert np.ptp(vals) < 1e-10


def test_truncation_residual_matches_dense_rows(haar_atlas_j3, radon_j3):
    a = haar_atlas_j3
    w = st.truncation_positions(a, 2)
    _, x_full, _ = st.make_phantom(a, st.PhantomSpec("tail", a=0.5, seed=1), 2)
    tail = np.setdiff1d(np.arange(len(a)), w)
    assert len(tail) > 100
    samples = st.draw_samples(radon_j3, 5, 3)
    system = st.assemble_system(radon_j3, w, samples, x_full=x_full)
    rep = truncation_residual(system, radon_j3, x_full)
    scale = np.sqrt(radon_j3.quad_weight / len(samples))
    dense = np.concatenate([q * scale * (radon_j3.rows(tail, t).T @ x_full[tail])
                            for t, q in zip(samples, system.q_weights)])
    expect = float(np.linalg.norm(dense))
    assert abs(rep.residual - expect) <= 1e-13 * expect


def test_truncation_residual_tail_gram_only_with_cert(haar_atlas_j2, radon_j2, monkeypatch):
    # the out-of-window population Gram feeds only the bound: none is built
    # without a cert, and with one the report is what the Gram gives
    import sparsetomo.certify as certify
    a = haar_atlas_j2
    w = st.truncation_positions(a, 1)
    tail = np.setdiff1d(np.arange(len(a)), w)
    x_full = np.zeros(len(a))
    x_full[tail[5]] = 0.7
    system = st.assemble_system(radon_j2, w, st.draw_samples(radon_j2, 6, 1), x_full=x_full)
    cert = st.compute_gram(radon_j2, w)
    calls = []

    def counted(model, positions, n_quad):
        calls.append(len(positions))
        return population_gram_matrix(model, positions, n_quad)

    monkeypatch.setattr(oracles, "population_gram_matrix", counted)
    bare = truncation_residual(system, radon_j2, x_full)
    assert calls == []
    assert np.isnan(bare.tail_opnorm) and np.isnan(bare.bound)
    rep = truncation_residual(system, radon_j2, x_full, cert=cert, c_uniform=1.5)
    assert calls == [len(tail)]
    G = population_gram_matrix(radon_j2, tail, certify.default_quadrature(radon_j2, tail))
    opnorm = float(np.sqrt(np.linalg.eigvalsh(G).max()))
    assert rep.tail_opnorm == opnorm
    assert (rep.residual, rep.tail_norm) == (bare.residual, bare.tail_norm)
    assert rep.bound == 1.5 * radon_j2.c_nu ** -0.5 * (opnorm * cert.inv_norm + 1.0) * rep.tail_norm


def test_truncation_residual_rejects_x_full_of_window_length(haar_atlas_j2, radon_j2):
    # x_full is indexed by dictionary position, as in assemble_system
    w = np.flatnonzero(radon_j2.scales() == 1)
    system = st.assemble_system(radon_j2, w, st.draw_samples(radon_j2, 3, 0))
    with pytest.raises(ValueError, match="dictionary"):
        truncation_residual(system, radon_j2, np.ones(len(w)))


def dense_rnsp_margin(system, cert, omega, s, rho=0.5, kappa=None, n_trials=10000, seed=0):
    """Reference oracle: rnsp_witness_search as it was when it multiplied by
    the dense density-normalized operator Q A."""
    n = len(system.positions)
    if kappa is None:
        kappa = 3.0 * cert.inv_norm / np.sqrt(2.0)
    rng = np.random.default_rng(seed)
    wsq = omega.values ** 2
    stacked = system.matrix
    qa = (stacked.reshape(system.m, system.block_dim, -1)
          * system.q_weights[:, None, None]).reshape(stacked.shape)
    worst = np.inf
    for _ in range(n_trials):
        x = rng.standard_normal(n)
        if rng.random() < 0.5:
            k = rng.integers(1, n + 1)
            x[rng.choice(n, size=n - k, replace=False)] = 0.0
        mask = np.zeros(n, dtype=bool)
        mask[_greedy_support(rng.permutation(n), wsq, s)] = True
        lhs = float(np.linalg.norm(x[mask]))
        tail1 = float(np.sum(np.abs(x[~mask]) * omega.values[~mask]))
        rhs = rho / np.sqrt(s) * tail1 + kappa * float(np.linalg.norm(qa @ x))
        worst = min(worst, rhs - lhs)
    return float(worst)


def test_rnsp_witness_matches_dense_oracle():
    # Fourier samples have q != 1 and two-row blocks; the margin from the run
    # matvec is the dense product's
    model = st.FourierWaveletModel(st.build_filter(1), j_max=3, n_freq=32)
    positions = np.arange(12)
    cert = st.compute_gram(model, positions)
    system = st.assemble_system(model, positions, st.draw_samples(model, 2 * _CHUNK + 5, 3))
    assert np.ptp(system.q_weights) > 0
    omega = st.WeightVector(model.natural_weights()[positions])
    margin = rnsp_witness_search(system, cert, omega, s=3.0, n_trials=300, seed=2)
    expect = dense_rnsp_margin(system, cert, omega, s=3.0, n_trials=300, seed=2)
    assert abs(margin - expect) <= 1e-12 * abs(expect)


def test_rnsp_witness_no_violation(synthetic_model, synthetic_cert):
    nodes, _ = synthetic_model.population_nodes(64)
    system = st.assemble_system(synthetic_model, all_positions(synthetic_model), nodes)
    omega = st.WeightVector.ones(6)
    margin = rnsp_witness_search(system, synthetic_cert, omega, s=2.0,
                                 n_trials=2000, seed=0)
    assert margin >= 0.0


def test_normal_spectrum_negative_eigenvalue_guard():
    with pytest.raises(NumericalConsistencyError):
        _normal_spectrum(np.diag([1.0, -1e-6]))
    assert _normal_spectrum(np.diag([1.0, -1e-12])) == (0.0, 1.0, True)
    assert _normal_spectrum(np.diag([4.0, 0.25])) == (0.5, 2.0, False)


def test_inv_norm_is_reciprocal_sigma_min(synthetic_cert):
    import dataclasses
    assert synthetic_cert.inv_norm == 1.0 / synthetic_cert.sigma_min
    assert dataclasses.replace(synthetic_cert, sigma_min=0.0).inv_norm == float("inf")


def test_delta_star_mc_trend_with_samples(haar_atlas_j2, radon_j2):
    # more angle samples concentrate the sampled normal matrix: the median
    # restricted-constant estimate is non-increasing in m up to one inversion
    w = st.truncation_positions(haar_atlas_j2, 2)
    cert = st.compute_gram(radon_j2, w)
    omega = st.WeightVector.ones(len(w))
    ms = (8, 16, 32, 64, 128)
    medians = []
    for m in ms:
        vals = []
        for seed in range(5):
            sampled = sampled_normal(radon_j2, w, st.draw_samples(radon_j2, m, seed=seed))
            est = st.delta_star_montecarlo(sampled, cert.normal,
                                           _draw_supports(omega, 4.0, 48, seed), trials=48)
            vals.append(est.delta_star)
        medians.append(float(np.median(vals)))
    inversions = sum(1 for i in range(len(medians) - 1)
                     if medians[i + 1] > medians[i] + 1e-12)
    assert inversions <= 1


def test_radon_diagonal_rescaling_sandwich(haar_atlas_j2, radon_j2):
    # rescaled window conditioning stays inside the measured two-sided
    # dyadic-equivalence band
    w = st.truncation_positions(haar_atlas_j2, 1)
    cert = st.compute_gram(radon_j2, w)
    b, c_hat, C_hat = cert.quasi_diag
    js = radon_j2.scales()[w]
    rng = np.random.default_rng(0)
    for _ in range(3):
        z = 0.5 + rng.random(len(w))
        inv2 = 1.0 / np.linalg.eigvalsh(np.diag(z) @ cert.normal @ np.diag(z))[0]
        ref = float(np.max(z ** -2.0 * 2.0 ** (2.0 * b * js)))
        assert ref / C_hat * 0.99 <= inv2 <= ref / c_hat * 1.01


def test_fanbeam_quasi_diag_band_of_radon():
    # the fan-beam dyadic-equivalence constants sit inside the parallel-beam
    # ones adjusted by the squared norm-sandwich factors
    a = st.build_atlas(st.build_filter(1), 1)
    rad = st.RadonModel(a)
    fan = st.FanBeamModel(a)
    w = np.arange(len(a))
    _, cR, CR = st.compute_gram(rad, w).quasi_diag
    _, cD, CD = st.compute_gram(fan, w).quasi_diag
    lo = 1.0 / fan.rho
    hi = 1.0 / np.sqrt(fan.rho ** 2 - fan.d ** 2)
    assert cD >= cR * lo * 0.98
    assert CD <= CR * hi * 1.02


@pytest.fixture(scope="module")
def fan_window_cert():
    # the certify-fan window: fan beam, j_max = 3, j0 = 2
    model = build_model("fanbeam", j_max=3)
    return model, st.compute_gram(model, st.truncation_positions(model.atlas, 2),
                                  check_convergence=True)


def test_fanbeam_b_fit_matches_smoothing_exponent(fan_window_cert):
    # on the certify-fan window the fitted decay of ||F phi||^2 per scale
    # matches the model's exponent: exact Haar rows read 0.503, rows that
    # smear each jump over one grid step read 0.545
    model, cert = fan_window_cert
    assert abs(cert.b_fit - model.smoothing_exponent) <= 0.02


def test_quasi_diag_constants_are_extreme_eigenvalues(fan_window_cert):
    # c_hat and C_hat are the best constants of
    # c sum 2^(-2bj) x_j^2 <= x^T normal x <= C sum 2^(-2bj) x_j^2, the extreme
    # eigenvalues of normal / outer(d, d) with d = 2^(-b scale); random
    # Rayleigh quotients only reach inside them
    model, cert = fan_window_cert
    b, c_hat, C_hat = cert.quasi_diag
    d = 2.0 ** (-b * model.scales()[cert.positions])
    evals = np.linalg.eigvalsh(cert.normal / np.outer(d, d))
    assert c_hat == pytest.approx(evals[0], rel=1e-12)
    assert C_hat == pytest.approx(evals[-1], rel=1e-12)
    assert 0.0 < c_hat < C_hat
    x = np.random.default_rng(0).standard_normal((50, len(d))) / d
    ratios = np.einsum("ki,ij,kj->k", x, cert.normal, x) / np.sum((x * d) ** 2, axis=1)
    assert c_hat * (1 - 1e-12) <= ratios.min() and ratios.max() <= C_hat * (1 + 1e-12)
