import numpy as np
import pytest
from conftest import fd_gradient
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from cellmat.aggregate import KSAggregator, ks
from cellmat.errors import ConfigError


def test_two_value_reference():
    v = np.array([1.0, 2.0])
    out, w = ks(v, 3.0)
    assert_allclose(out, 2.0 + np.log(1.0 + np.exp(-3.0)) / 3.0)
    assert_allclose(w, np.exp(3.0 * v) / np.exp(3.0 * v).sum())


@given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40),
       st.floats(0.1, 200.0))
def test_bounds_and_weights(vals, zeta_eff):
    v = np.array(vals)
    out, w = ks(v, zeta_eff)
    assert out >= v.max() - 1e-12
    assert out <= v.max() + np.log(v.size) / zeta_eff + 1e-12
    assert_allclose(w.sum(), 1.0, rtol=1e-12)
    assert np.all(w >= 0.0)


def test_weights_are_the_gradient():
    rng = np.random.default_rng(5)
    v = rng.normal(size=8)
    _, w = ks(v, 7.0)
    fd = fd_gradient(lambda x: ks(x, 7.0)[0], v, h=1e-7)
    assert_allclose(w, fd, rtol=1e-5, atol=1e-8)


def test_empty_and_bad_sharpness_raise():
    with pytest.raises(ConfigError):
        ks([], 1.0)
    with pytest.raises(ConfigError):
        ks([1.0], 0.0)
    with pytest.raises(ConfigError):
        KSAggregator(zeta=-1.0, tag="bad")


def test_scale_freezes_between_refreshes():
    agg = KSAggregator(zeta=100.0, tag="vm")
    agg.refresh(0)
    v = np.array([2.0, 5.0])
    # first batch bootstraps its own scale
    out0, _ = agg(v)
    assert agg.scale == pytest.approx(5.0)
    assert_allclose(out0, ks(v, 100.0 / 5.0)[0])

    # seeing larger values mid-iteration must not change the frozen scale
    agg(np.array([50.0]))
    assert agg.scale == pytest.approx(5.0)
    agg.refresh(1)
    assert agg.scale == pytest.approx(50.0)
    out1, _ = agg(v)
    assert_allclose(out1, ks(v, 100.0 / 50.0)[0])


def test_bootstrap_handles_negative_values():
    agg = KSAggregator(zeta=100.0, tag="neg")
    out, w = agg(np.array([-4.0, -2.0]))
    assert agg.scale == pytest.approx(2.0)
    assert out >= -2.0
    assert np.isfinite(w).all()


def test_history_records():
    agg = KSAggregator(zeta=10.0, tag="tau")
    agg.refresh(3)
    agg(np.array([1.0, 4.0]))
    it, tag, count, zeff, vmax, out = agg.history[-1]
    assert (it, tag, count) == (3, "tau", 2)
    assert zeff == pytest.approx(10.0 / agg.scale)
    assert vmax == pytest.approx(4.0)
    assert out >= 4.0
