import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import sparsetomo as st
from sparsetomo.weights import DimensionMismatch

from oracles import CapacityError, best_sparse_approx_bruteforce


def test_weighted_norm_unweighted_l1():
    assert st.weighted_norm([1.0, -2.0, 3.0], [1.0, 1.0, 1.0], 1.0) == pytest.approx(6.0)


def test_weighted_norm_p1_uses_weights():
    assert st.weighted_norm([1.0, 1.0], [2.0, 3.0], 1.0) == pytest.approx(5.0)


def test_weighted_norm_p2_drops_weights():
    assert st.weighted_norm([3.0, 4.0], [7.0, 9.0], 2.0) == pytest.approx(5.0)


def test_weighted_norm_errors():
    with pytest.raises(DimensionMismatch):
        st.weighted_norm([1.0, 2.0], [1.0, 1.0, 1.0], 1.0)
    for bad_p in (0.0, -1.0, 2.5):
        with pytest.raises(ValueError):
            st.weighted_norm([1.0], [1.0], bad_p)


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        st.WeightVector(np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        st.WeightVector(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        st.WeightVector(np.array([1.0, np.nan]))


def test_weighted_size_examples():
    assert st.weighted_size([0, 1], [2.0, 3.0, 5.0]) == pytest.approx(13.0)
    assert st.weighted_size([], [2.0, 3.0]) == 0.0
    assert st.weighted_size([0, 1, 2], [1.0, 1.0, 1.0]) == pytest.approx(3.0)
    with pytest.raises(IndexError):
        st.weighted_size([3], [1.0, 1.0])


def test_weighted_size_sandwich_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = rng.integers(1, 10)
        w = 1.0 + rng.random(n) * 3.0
        k = int(rng.integers(0, n + 1))
        S = list(rng.choice(n, size=k, replace=False))
        ws = st.weighted_size(S, w)
        assert len(S) <= ws + 1e-12
        if S:
            assert ws <= len(S) * max(w[S]) ** 2 + 1e-12


def test_quasi_best_unweighted_keeps_largest():
    r = st.quasi_best_sparse_approx([3.0, 2.0, 1.0, 0.0], np.ones(4), 2.0)
    assert r.support == (0, 1)
    assert r.error_p1 == pytest.approx(1.0)


def test_quasi_best_budget_blocks_heavy_index():
    # the ratio-largest entry has weight 3, squared weight 9 > budget, and the
    # prefix rule then keeps nothing
    r = st.quasi_best_sparse_approx([4.0, 1.0], [3.0, 1.0], 2.0)
    assert r.support == ()
    assert r.error_p1 == pytest.approx(13.0)


def test_quasi_best_zero_vector():
    r = st.quasi_best_sparse_approx(np.zeros(5), np.ones(5), 3.0)
    assert r.support == ()
    assert r.error_p1 == 0.0
    assert r.error_p2 == 0.0


def test_quasi_best_recompute_error_matches():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        x = rng.standard_normal(n)
        w = 1.0 + rng.random(n)
        r = st.quasi_best_sparse_approx(x, w, float(rng.random() * n))
        mask = np.ones(n, bool)
        if r.support:
            mask[list(r.support)] = False
        assert r.error_p1 == pytest.approx(np.sum(np.abs(x[mask]) * w[mask]), rel=1e-12)
        assert r.weighted_size <= float(rng.random() * n) + n  # within budget checked below


def test_brute_force_examples():
    r = best_sparse_approx_bruteforce([4.0, 1.0], [3.0, 1.0], 2.0)
    assert r.support == (1,)
    assert r.error_p1 == pytest.approx(12.0)
    r = best_sparse_approx_bruteforce([3.0, 2.0, 1.0, 0.0], np.ones(4), 2.0)
    assert r.error_p1 == pytest.approx(1.0)
    r = best_sparse_approx_bruteforce([1.0, 1.0, 1.0], np.ones(3), 3.0)
    assert r.error_p1 == pytest.approx(0.0)


def test_brute_force_capacity_guard():
    with pytest.raises(CapacityError):
        best_sparse_approx_bruteforce(np.ones(21), np.ones(21), 2.0)


def test_stechkin_examples():
    b = st.stechkin_bound([1.0, 0.0, 0.0], np.ones(3), 1.0, 1.0, 2.0)
    assert b == pytest.approx(1.0)
    sigma = best_sparse_approx_bruteforce([1.0, 0.0, 0.0], np.ones(3), 1.0, 2.0)
    assert sigma.error_p2 <= b

    b = st.stechkin_bound([1.0] * 4, np.ones(4), 2.0, 1.0, 2.0)
    assert b == pytest.approx(4.0 / np.sqrt(2.0))
    sigma = best_sparse_approx_bruteforce([1.0] * 4, np.ones(4), 2.0, 2.0)
    assert sigma.error_p2 == pytest.approx(np.sqrt(2.0))
    assert sigma.error_p2 <= b


def test_stechkin_domain_error():
    with pytest.raises(ValueError):
        st.stechkin_bound([1.0], [1.0], 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        st.stechkin_bound([1.0], [1.0], 0.0, 1.0, 2.0)


def test_stechkin_random_instances_against_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = 10
        x = rng.standard_normal(n)
        w = 1.0 + rng.random(n)
        bound = st.stechkin_bound(x, w, 4.0, 1.0, 2.0)
        sigma = best_sparse_approx_bruteforce(x, w, 4.0, 2.0)
        assert sigma.error_p2 <= bound + 1e-12


def test_ordering_bruteforce_quasi_fullnorm():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 11))
        x = rng.standard_normal(n)
        w = 1.0 + 2.0 * rng.random(n)
        s = float(rng.random() * st.weighted_size(range(n), w))
        brute = best_sparse_approx_bruteforce(x, w, s, 1.0)
        quasi = st.quasi_best_sparse_approx(x, w, s, 1.0)
        full = st.weighted_norm(x, w, 1.0)
        assert brute.error_p1 <= quasi.error_p1 + 1e-12
        assert quasi.error_p1 <= full + 1e-12
        assert quasi.weighted_size <= s + 1e-12
        assert brute.weighted_size <= s + 1e-12


@given(hs.lists(hs.floats(-100, 100), min_size=1, max_size=12),
       hs.floats(-10, 10))
@settings(max_examples=60, deadline=None)
def test_weighted_norm_scaling(entries, c):
    x = np.asarray(entries)
    w = np.linspace(1.0, 2.0, len(x))
    lhs = st.weighted_norm(c * x, w, 1.0)
    rhs = abs(c) * st.weighted_norm(x, w, 1.0)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@given(hs.lists(hs.floats(-50, 50), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_weighted_norm_p2_is_euclidean(entries):
    x = np.asarray(entries)
    w = np.linspace(1.0, 5.0, len(x))
    assert st.weighted_norm(x, w, 2.0) == pytest.approx(
        float(np.linalg.norm(x)), rel=1e-12, abs=1e-12)


@given(hs.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_quasi_best_monotone_in_budget(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    x = rng.standard_normal(n)
    w = 1.0 + rng.random(n)
    budgets = np.sort(rng.random(3) * n)
    errs = [st.quasi_best_sparse_approx(x, w, s).error_p1 for s in budgets]
    assert all(errs[i] >= errs[i + 1] - 1e-12 for i in range(len(errs) - 1))
