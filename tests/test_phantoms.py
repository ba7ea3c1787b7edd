import numpy as np
import pytest

import sparsetomo as st
from sparsetomo.phantoms import cartoon_phantom

from oracles import tail_decay_exponent


def test_sparse_phantom_zero(haar_atlas_j2):
    img, x, meta = st.make_phantom(haar_atlas_j2, st.PhantomSpec("sparse", s=0), 1)
    assert np.all(x == 0.0)
    assert np.all(img == 0.0)


def test_sparse_phantom_structure(haar_atlas_j3):
    spec = st.PhantomSpec("sparse", s=7, seed=3)
    _, x, meta = st.make_phantom(haar_atlas_j3, spec, 2)
    nz = np.flatnonzero(x)
    assert len(nz) == 7
    assert np.all(np.abs(x[nz]) == 1.0)
    assert np.all(haar_atlas_j3.scales[nz] <= 2)
    assert meta["s"] == 7


def test_sparse_phantom_capacity(haar_atlas_j2):
    with pytest.raises(ValueError):
        st.make_phantom(haar_atlas_j2, st.PhantomSpec("sparse", s=10 ** 6), 1)


def test_sparse_phantom_deterministic(haar_atlas_j2):
    a = st.make_phantom(haar_atlas_j2, st.PhantomSpec("sparse", s=4, seed=9), 1)[1]
    b = st.make_phantom(haar_atlas_j2, st.PhantomSpec("sparse", s=4, seed=9), 1)[1]
    assert np.array_equal(a, b)


def test_tail_phantom_decay_slope():
    a = st.build_atlas(st.build_filter(1), 6)
    _, x, _ = st.make_phantom(a, st.PhantomSpec("tail", a=0.5, seed=1), 3)
    slope = tail_decay_exponent(a, x)
    assert abs(slope - 0.5) <= 0.05


def test_tail_phantom_other_exponent():
    a = st.build_atlas(st.build_filter(1), 6)
    _, x, _ = st.make_phantom(a, st.PhantomSpec("tail", a=1.0, seed=2), 3)
    assert abs(tail_decay_exponent(a, x) - 1.0) <= 0.1


def test_cartoon_inside_disk(haar_atlas_j2):
    img = cartoon_phantom(haar_atlas_j2)
    c = haar_atlas_j2.grid.coords
    X, Y = np.meshgrid(c, c)
    assert np.all(img[X ** 2 + Y ** 2 >= 1.0] == 0.0)
    assert img.max() > 0.5


def test_cartoon_rearrangement_decay():
    a = st.build_atlas(st.build_filter(1), 4)
    _, x, _ = st.make_phantom(a, st.PhantomSpec("cartoon"), 3)
    mags = np.sort(np.abs(x))[::-1]
    i = np.arange(10, 1001)
    lx = np.log(i)
    ly = np.log(np.maximum(mags[9:1000], 1e-300))
    lxc = lx - lx.mean()
    slope = float((lxc @ (ly - ly.mean())) / (lxc @ lxc))
    assert slope <= -0.85


def test_unknown_phantom_kind():
    with pytest.raises(ValueError):
        st.PhantomSpec("blob")
