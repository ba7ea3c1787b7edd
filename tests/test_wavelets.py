import numpy as np
import pytest

import sparsetomo as st
from sparsetomo.wavelets import (ConfigurationError, DAUBECHIES_TAPS, _cascade,
                                 dilation)

from oracles import atom_image, support_box


@pytest.mark.parametrize("order", sorted(DAUBECHIES_TAPS))
def test_filter_normalization(order):
    f = st.build_filter(order)
    assert abs(f.low_pass_taps.sum() - np.sqrt(2.0)) < 1e-10


@pytest.mark.parametrize("order", sorted(DAUBECHIES_TAPS))
def test_filter_quadrature_mirror(order):
    f = st.build_filter(order)
    h, g = f.low_pass_taps, f.high_pass_taps
    flip = ((-1.0) ** np.arange(len(h))) * h[::-1]
    assert np.abs(g - flip).max() < 1e-10


@pytest.mark.parametrize("order", sorted(DAUBECHIES_TAPS))
def test_filter_discrete_orthonormality(order):
    h = st.build_filter(order).low_pass_taps
    for m in range(order):
        v = float(np.dot(h[: len(h) - 2 * m], h[2 * m:]))
        assert abs(v - (1.0 if m == 0 else 0.0)) < 1e-10


def test_unsupported_order():
    with pytest.raises(ConfigurationError):
        st.build_filter(0)
    with pytest.raises(ConfigurationError):
        st.build_filter(99)


def test_cascade_refines_consistently():
    f = st.build_filter(3)
    chi5, _ = _cascade(f, 5)
    chi6, _ = _cascade(f, 6)
    assert np.abs(chi6[::2] - chi5).max() < 1e-12


def test_atlas_scale_zero_only_scaling_atoms():
    a = st.build_atlas(st.build_filter(1), 0, grid_resolution=2.0 ** -3)
    assert all(idx.orientation == 0 for idx in a.gamma)
    assert all(idx.scale == 0 for idx in a.gamma)
    assert len(a) > 0


def test_atlas_count_ratios_in_band(haar_atlas_j3):
    counts = haar_atlas_j3.scale_counts()
    for j in range(2, 3):
        ratio = counts[j + 1] / counts[j]
        assert 3.2 <= ratio <= 4.8


def test_atlas_cardinality_slope():
    # index enumeration only; scale populations double-squared per scale
    a = st.build_atlas(st.build_filter(1), 5)
    counts = a.scale_counts().astype(float)
    js = np.arange(2.0, 6.0)
    y = np.log2(counts[2:6])
    jc = js - js.mean()
    slope = float((jc @ (y - y.mean())) / (jc @ jc))
    assert abs(slope - 2.0) <= 0.3


def test_atlas_resolution_guard():
    with pytest.raises(ConfigurationError):
        st.build_atlas(st.build_filter(1), 3, grid_resolution=2.0 ** -4)
    with pytest.raises(ConfigurationError):
        st.build_atlas(st.build_filter(1), 2, grid_resolution=0.3)


def test_atom_membership_touches_disk(haar_atlas_j2):
    for idx in haar_atlas_j2.gamma:
        (x0, x1), (y0, y1) = support_box(haar_atlas_j2, idx)
        dx = x0 if x0 > 0 else (-x1 if x1 < 0 else 0.0)
        dy = y0 if y0 > 0 else (-y1 if y1 < 0 else 0.0)
        assert dx * dx + dy * dy < 1.0


def test_atom_unit_norm_two_resolutions():
    f = st.build_filter(2)
    for h in (2.0 ** -5, 2.0 ** -6):
        a = st.build_atlas(f, 2, grid_resolution=h)
        for idx in (a.gamma[0], a.gamma[50], a.gamma[-1]):
            patch, _, _ = a.atom_patch(idx)
            nrm = h * np.sqrt(np.sum(patch ** 2))
            assert abs(nrm - 1.0) <= 5 * h


def test_atom_support_box_bound(haar_atlas_j3):
    a = haar_atlas_j3
    T = a.filter.support_length
    for idx in (a.gamma[3], a.gamma[100], a.gamma[500]):
        patch, i1, i2 = a.atom_patch(idx)
        side = (max(patch.shape) - 1) * a.grid.h
        assert side <= T * 2.0 ** -idx.scale + 1e-12
        img = atom_image(a, idx)
        ys, xs = np.nonzero(img)
        w = (xs.max() - xs.min()) * a.grid.h
        assert w <= T * 2.0 ** -idx.scale + 1e-12


def test_discrete_gram_identity_haar(haar_atlas_j2):
    G = st.discrete_gram(haar_atlas_j2)
    tau = 5 * haar_atlas_j2.grid.h
    off = G - np.eye(len(haar_atlas_j2))
    assert np.abs(off).max() <= tau


def test_discrete_gram_identity_db2(db2_atlas_j2):
    G = st.discrete_gram(db2_atlas_j2)
    tau = 5 * db2_atlas_j2.grid.h
    n = len(db2_atlas_j2)
    assert np.abs(G - np.eye(n)).max() <= tau
    d = np.diag(G)
    assert d.min() >= 1 - tau and d.max() <= 1 + tau


def test_analysis_recovers_atom_coefficients(haar_atlas_j2):
    a = haar_atlas_j2
    ia, ib = 5, 60
    img = atom_image(a, a.gamma[ia]) + 2.0 * atom_image(a, a.gamma[ib])
    coeffs = st.analysis(a, img)
    tau = 5 * a.grid.h
    expect = np.zeros(len(a))
    expect[ia] = 1.0
    expect[ib] = 2.0
    assert np.abs(coeffs - expect).max() <= tau


def test_analysis_zero_image(haar_atlas_j2):
    img = np.zeros((haar_atlas_j2.grid.npts,) * 2)
    assert np.all(st.analysis(haar_atlas_j2, img) == 0.0)


def test_analysis_shape_guard(haar_atlas_j2):
    with pytest.raises(ValueError):
        st.analysis(haar_atlas_j2, np.zeros((3, 3)))


def test_synthesis_unit_vector_is_atom(haar_atlas_j2):
    a = haar_atlas_j2
    e = np.zeros(len(a))
    e[17] = 1.0
    assert np.array_equal(st.synthesis(a, e), atom_image(a, a.gamma[17]))


def test_synthesis_analysis_adjoint(haar_atlas_j2):
    a = haar_atlas_j2
    rng = np.random.default_rng(0)
    h2 = a.grid.h ** 2
    for _ in range(50):
        x = rng.standard_normal(len(a))
        u = rng.standard_normal((a.grid.npts, a.grid.npts))
        lhs = h2 * np.sum(st.synthesis(a, x) * u)
        rhs = float(x @ st.analysis(a, u))
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(u) * h2 ** 0 + 1e-10


def test_round_trip(haar_atlas_j2):
    a = haar_atlas_j2
    rng = np.random.default_rng(1)
    x = rng.standard_normal(len(a))
    back = st.analysis(a, st.synthesis(a, x))
    tau = 5 * a.grid.h
    assert np.linalg.norm(back - x) <= tau * np.linalg.norm(x)


def test_truncation_set(haar_atlas_j3):
    a = haar_atlas_j3
    assert len(st.truncation_positions(a, a.j_max)) == len(a)
    t0 = st.truncation_positions(a, 0)
    assert all(a.gamma[i].scale == 0 for i in t0)
    n2 = len(st.truncation_positions(a, 2))
    n3 = len(st.truncation_positions(a, 3))
    assert 3.2 <= n3 / n2 <= 4.8
    with pytest.raises(ValueError):
        st.truncation_positions(a, a.j_max + 1)


def test_truncation_positions_match(haar_atlas_j3):
    a = haar_atlas_j3
    pos = st.truncation_positions(a, 1)
    assert [a.gamma[i] for i in pos] == [g for g in a.gamma if g.scale <= 1]


def test_dilation_convention():
    assert dilation(0) == 2
    assert dilation(1) == 2
    assert dilation(4) == 16
