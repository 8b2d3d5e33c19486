"""Subproblem solver checks on analytic toy problems."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cellmat.design import d4_orbits
from cellmat.errors import ConfigError
from cellmat.mma import MMA


def run(mma, x, f_obj, f_con, iters):
    for _ in range(iters):
        x = mma.update(x, f_obj(x), *f_con(x))
    return x


def test_unconstrained_quadratic():
    target = np.array([0.3, 0.8])

    def obj(x):
        return 2.0 * (x - target)

    def con(x):
        return np.array([-1.0]), np.zeros((1, 2))

    mma = MMA(2, 1, 0.0, 1.0, move=0.1)
    x = run(mma, np.array([0.5, 0.5]), obj, con, 50)
    assert_allclose(x, target, atol=1e-4)


def test_active_linear_constraint_kkt():
    # min sum (x-1)^2  s.t.  mean(x) <= 0.4  ->  x = 0.4, lam = 4.8
    n = 4

    def obj(x):
        return 2.0 * (x - 1.0)

    def con(x):
        return np.array([x.mean() - 0.4]), np.full((1, n), 1.0 / n)

    mma = MMA(n, 1, 0.0, 1.0, move=0.1)
    x = run(mma, np.full(n, 0.9), obj, con, 120)
    assert_allclose(x, 0.4, atol=1e-5)
    kkt = obj(x) + mma.lam[0] * con(x)[1][0]
    assert np.abs(kkt).max() < 1e-6
    assert x.mean() - 0.4 < 1e-9


def test_zero_gradient_keeps_iterate():
    n = 5
    x0 = np.linspace(0.2, 0.8, n)
    mma = MMA(n, 1, 0.0, 1.0, move=0.1)
    x = mma.update(x0, np.zeros(n), np.array([-0.5]), np.zeros((1, n)))
    assert_allclose(x, x0, atol=1e-7)


def test_move_limit_respected():
    n = 6
    rng = np.random.default_rng(0)
    x0 = np.full(n, 0.5)
    mma = MMA(n, 1, 0.0, 1.0, move=0.1)
    x = mma.update(x0, rng.normal(size=n) * 100.0,
                   np.array([-1.0]), np.zeros((1, n)))
    assert np.all(np.abs(x - x0) <= 0.1 + 1e-12)


def test_iterates_stay_in_box():
    n = 8
    rng = np.random.default_rng(3)
    mma = MMA(n, 1, 0.2, 0.9, move=0.1)
    x = np.full(n, 0.5)
    for _ in range(20):
        g = rng.normal(size=n) * 10.0
        x = mma.update(x, g, np.array([x.sum() - 4.0]), np.ones((1, n)))
        assert np.all(x >= 0.2 - 1e-12)
        assert np.all(x <= 0.9 + 1e-12)


def test_deterministic():
    def play():
        mma = MMA(3, 1, 0.0, 1.0, move=0.1)
        x = np.array([0.5, 0.4, 0.6])
        out = []
        for k in range(10):
            x = mma.update(x, np.array([1.0, -2.0, 0.5]) * (k + 1),
                           np.array([x.mean() - 0.5]), np.full((1, 3), 1 / 3))
            out.append(x.copy())
        return np.array(out)

    a, b = play(), play()
    assert np.array_equal(a, b)


def test_infeasible_start_recovers():
    # heavily violated constraint: mean(x) <= 0.2 from x = 0.9
    n = 4

    def obj(x):
        return 2.0 * (x - 1.0)

    def con(x):
        return np.array([x.mean() - 0.2]), np.full((1, n), 1.0 / n)

    mma = MMA(n, 1, 0.0, 1.0, move=0.1)
    x = run(mma, np.full(n, 0.9), obj, con, 150)
    assert x.mean() <= 0.2 + 1e-6
    assert_allclose(x, 0.2, atol=1e-4)


def test_weighted_representatives_reproduce_the_full_space_steps(rng):
    # a D4-symmetric problem on a 16 x 16 grid: its full-space iterates
    # stay symmetric bit for bit, and MMA on the orbit representatives,
    # weighted by the orbit sizes, must take the same steps
    from conftest import exact_d4_field

    n = 16
    orbits = d4_orbits(n)
    target = exact_d4_field(n, rng)
    curv = exact_d4_field(n, rng, 0.5, 2.0)
    area = exact_d4_field(n, rng, 0.5, 1.5)

    def obj(x):
        return 2.0 * curv * (x - target)

    def con(x):
        vals = np.array([x.mean() - 0.35, (area * x * x).mean() - 0.16])
        return vals, np.stack([np.full(x.size, 1.0 / x.size),
                               2.0 * area * x / x.size])

    full = MMA(n * n, 2, 0.0, 1.0, move=0.2)
    reduced = MMA(orbits.reps.size, 2, 0.0, 1.0, move=0.2,
                  weights=orbits.sizes)
    x = exact_d4_field(n, rng, 0.3, 0.9)
    xr = x[orbits.reps]
    for _ in range(10):
        x = full.update(x, obj(x), *con(x))
        xe = xr[orbits.index]
        vals, grads = con(xe)
        xr = reduced.update(xr, obj(xe)[orbits.reps], vals,
                            grads[:, orbits.reps])
        assert np.abs(xr[orbits.index] - x).max() <= 1e-12
    assert_allclose(reduced.lam, full.lam, rtol=1e-10)
    # the problem is not trivial: both constraints bind and x moved
    assert np.all(full.lam > 1e-3)


@pytest.mark.parametrize("weights", [
    np.zeros(4), -np.ones(4), np.array([1.0, np.nan, 1.0, 1.0]),
    np.array([1.0, np.inf, 1.0, 1.0]), np.ones(3), np.ones((4, 1))])
def test_bad_weights_raise(weights):
    with pytest.raises(ConfigError, match="weights"):
        MMA(4, 1, 0.0, 1.0, move=0.1, weights=weights)


def test_a_weight_counts_a_variable_that_many_times():
    # MMA on four variables weighted 1, 1, 1 and 100 takes the steps of
    # MMA on the vector with the last one repeated 100 times.  On this
    # problem the heavy variable lets the weights of the residual norm
    # steer the line searches of the subproblem: without them the steps
    # part from iteration 15 on
    weights = np.array([1, 1, 1, 100])
    index = np.repeat(np.arange(4), weights)

    def problem(x, w, area):
        total = w.sum()
        vals = np.array([(w * x).sum() / total - 0.35,
                         (w * area * x * x).sum() / total - 0.16])
        return vals, np.stack([np.full(x.size, 1.0 / total),
                               2.0 * area * x / total])

    rng = np.random.default_rng(5)
    target, curv = rng.uniform(0.0, 1.0, 4), rng.uniform(0.5, 2.0, 4)
    area = rng.uniform(0.5, 1.5, 4)
    full = MMA(index.size, 2, 0.0, 1.0, move=0.2)
    reduced = MMA(4, 2, 0.0, 1.0, move=0.2, weights=weights)
    x = rng.uniform(0.3, 0.9, 4)
    xf = x[index]
    for _ in range(20):
        xf = full.update(xf, 2.0 * curv[index] * (xf - target[index]),
                         *problem(xf, np.ones(xf.size), area[index]))
        x = reduced.update(x, 2.0 * curv * (x - target),
                           *problem(x, weights, area))
        assert np.abs(x[index] - xf).max() <= 1e-12
