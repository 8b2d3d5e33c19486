"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from tracer import Tracer, classify_k, span_names  # noqa: E402
from worker import repeat_calls  # noqa: E402
from workloads import DEFAULT_SEED, PERTURBATION, d4_average, perturb  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span("outer"):
        clock.t += 1.0
        with tr.span("mid"):
            clock.t += 2.0
            with tr.span("leaf"):
                clock.t += 4.0
            clock.t += 8.0
        with tr.span("leaf"):
            clock.t += 16.0
        clock.t += 32.0
    assert tr.calls == {"outer": 1, "mid": 1, "leaf": 2}
    assert tr.total_s == {"outer": 63.0, "mid": 14.0, "leaf": 20.0}
    assert tr.self_s == {"outer": 33.0, "mid": 10.0, "leaf": 20.0}
    # self times partition the root's duration
    assert sum(tr.self_s.values()) == tr.total_s["outer"]


def test_hidden_time_is_charged_to_no_span():
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span("outer"):
        with tr.span("inner"):
            clock.t += 1.0
        with tr.hidden():
            clock.t += 100.0
        clock.t += 2.0
    assert tr.total_s == {"outer": 3.0, "inner": 1.0}
    assert tr.self_s["outer"] == 2.0


@pytest.mark.parametrize("k, cls", [
    ((0.0, 0.0), "pinned"),
    ((1e-4, 0.0), "near0"),
    ((0.0, -1e-4), "near0"),
    ((math.pi, 0.0), "realphase"),
    ((math.pi, math.pi), "realphase"),
    ((0.0, -math.pi), "realphase"),
    ((math.pi / 2, 0.0), "complex"),
    ((math.pi, 0.1 * math.pi), "complex"),
    ((2e-3, 0.0), "complex"),
])
def test_wavevector_classes(k, cls):
    assert classify_k(k) == cls


def test_span_names_split_band_solves():
    names = span_names()
    assert len(names) == len(set(names))
    assert "bloch.solve_band" not in names
    for cls in ("pinned", "near0", "realphase", "complex"):
        assert f"bloch.solve_band.{cls}" in names
    assert "fem.PinnedSolver.init" in names
    assert "aggregate.KSAggregator.call" in names


def _is_d4_symmetric(grid):
    # the orbit sums add the same values in different orders
    return np.allclose(d4_average(grid), grid, rtol=0.0, atol=1e-15)


def test_perturbed_seed_keeps_d4_symmetry():
    n = 16
    c = (np.arange(n) + 0.5) / n
    on = np.abs(c - 0.5) < 0.15
    base = np.zeros((n, n))
    base[on, :] = 1.0
    base[:, on] = 1.0
    base[3, 5] = base[5, 3] = 0.4      # off-axis feature, still symmetric
    base = d4_average(base)
    assert _is_d4_symmetric(base)
    for seed in (1, 2, 7):
        rho = perturb(base.ravel(), n, seed).reshape(n, n)
        assert _is_d4_symmetric(rho)
        assert np.all((rho >= 0.0) & (rho <= 1.0))
        assert 0.0 < np.abs(rho - base).max() <= PERTURBATION
    assert np.array_equal(perturb(base.ravel(), n, DEFAULT_SEED),
                          base.ravel())
    assert np.array_equal(perturb(base.ravel(), n, 3),
                          perturb(base.ravel(), n, 3))


def test_tracer_wraps_every_binding_and_restores():
    import cellmat.homogenize
    import cellmat.optimize
    import cellmat.pipeline
    from cellmat.design import PDEFilter

    original = cellmat.homogenize.homogenize
    original_apply = PDEFilter.__dict__["apply"]
    tr = Tracer()
    tr.install()
    try:
        wrapped = cellmat.homogenize.homogenize
        assert wrapped is not original
        assert cellmat.optimize.homogenize is wrapped
        assert cellmat.pipeline.homogenize is wrapped
        assert PDEFilter.__dict__["apply"] is not original_apply
    finally:
        tr.uninstall()
    assert cellmat.homogenize.homogenize is original
    assert cellmat.optimize.homogenize is original
    assert cellmat.pipeline.homogenize is original
    assert PDEFilter.__dict__["apply"] is original_apply


def test_traced_sweep_counts_band_classes():
    import cellmat.pipeline

    n = 8
    rho = np.full(n * n, 0.6)
    tr = Tracer()
    tr.install()
    try:
        cellmat.pipeline.evaluate_design(rho, n, 0.044, n_seg=2)
    finally:
        tr.uninstall()
    # n_seg=2: zone center gives 2 offsets + 1 pinned; corners (pi,0),
    # (pi,pi), (0,pi) are real-phase; the 4 edge midpoints are complex
    assert tr.calls["bloch.solve_band.pinned"] == 1
    assert tr.calls["bloch.solve_band.near0"] == 2
    assert tr.calls["bloch.solve_band.realphase"] == 3
    assert tr.calls["bloch.solve_band.complex"] == 4
    assert tr.calls["bloch.bloch_transform"] == 10
    assert tr.calls["fem.PinnedSolver.init"] == 1
    assert tr.lu_nnz and tr.lu_nnz[0] > 0
    metrics = tr.metrics("pipeline.evaluate_design",
                         tr.total_s["pipeline.evaluate_design"])
    assert metrics["bloch.solve_band.fallback_frac"][0] == 0.0
    assert 0.0 < metrics["trace.coverage"][0] <= 1.0


def test_band_solve_warnings_count_as_fallbacks():
    import warnings

    tr = Tracer()

    def fake_solve(k0k, ksk, m, warn):
        if warn:
            warnings.warn("eigensolver converged only 3 of 6 bands",
                          RuntimeWarning)
        return m

    wrapped = tr._solve_band("bloch.solve_band", fake_solve)
    tr._last_k = (math.pi / 2, 0.0)
    with pytest.warns(RuntimeWarning):
        assert wrapped(None, None, 6, True) == 6
    tr._last_k = (math.pi, 0.0)
    assert wrapped(None, None, 6, False) == 6
    assert tr.calls == {"bloch.solve_band.complex": 1,
                        "bloch.solve_band.realphase": 1}
    assert tr.band_fallbacks == 1
    assert tr.metrics("x", 1.0)["bloch.solve_band.fallback_frac"][0] == 0.5


def _fixed_calls(clock, wall):
    def call():
        clock.t += wall
        return wall
    return call


def test_repeat_calls_fills_the_run():
    clock = FakeClock()
    # 3 s calls in a 10 s run: a fourth would end at 12 s
    assert repeat_calls(_fixed_calls(clock, 3.0), 10.0, 1, clock) == [3.0] * 3


def test_repeat_calls_makes_min_calls_past_the_run():
    clock = FakeClock()
    assert repeat_calls(_fixed_calls(clock, 21.0), 20.0, 1, clock) == [21.0]
    assert repeat_calls(_fixed_calls(clock, 21.0), 20.0, 2, clock) == \
        [21.0, 21.0]
