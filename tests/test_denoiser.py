"""Denoiser, correlation map, and schedule tests.

Expected values are produced by Gauss-Hermite quadrature oracles and finite
differences, independent of the closed forms they check.
"""

import math

import numpy as np
import pytest

from wigmatch.denoiser import (build_schedule, growth_ratio_condition,
                               lambda_bound, make_denoiser, reference_k0_bound,
                               phi_map, phi_second_deriv_at_zero,
                               taylor_coefficients)
from wigmatch.errors import ParameterError, ScheduleError

# ---------------------------------------------------------------- oracles

_NODES, _WEIGHTS = np.polynomial.hermite.hermgauss(200)


def gh_expect(fn):
    """E[fn(X)] for X ~ N(0,1) by 200-node Gauss-Hermite quadrature."""
    x = math.sqrt(2.0) * _NODES
    w = _WEIGHTS / math.sqrt(math.pi)
    return float(w @ fn(x))


def gh_expect_2d(fn, u):
    """E[fn(X, Y)] for standard bivariate normals with correlation u."""
    x1 = math.sqrt(2.0) * _NODES
    w = _WEIGHTS / math.sqrt(math.pi)
    xx, yy = np.meshgrid(x1, x1, indexing="ij")
    y = u * xx + math.sqrt(max(0.0, 1.0 - u * u)) * yy
    vals = fn(xx, y)
    return float(w @ vals @ w)


# ------------------------------------------------------------- denoiser


def test_mean_zero_and_unit_variance_by_quadrature():
    d = make_denoiser(1.0)
    assert abs(gh_expect(d)) < 1e-10
    assert abs(gh_expect(lambda x: d(x) ** 2) - 1.0) < 1e-10


def test_a1_closed_form():
    d = make_denoiser(1.0)
    a1_expected = ((1.0 + math.exp(-2.0)) / 2.0 - math.exp(-1.0)) ** -0.5
    assert d.a1 == pytest.approx(a1_expected, abs=1e-15)
    assert d.a1 == pytest.approx(2.2372529142129274, abs=1e-12)


@pytest.mark.parametrize("b", [0.5, 1.0, 1.7])
def test_normalisation_across_b(b):
    d = make_denoiser(b)
    assert abs(gh_expect(d)) < 1e-10
    assert abs(gh_expect(lambda x: d(x) ** 2) - 1.0) < 1e-10


def test_sup_bounds_on_grid():
    d = make_denoiser(1.0)
    x = np.linspace(-50.0, 50.0, 20001)
    assert np.abs(d(x)).max() <= 100.0
    # varphi' = -a1 b sin(b x) and varphi'' = -a1 b^2 cos(b x)
    assert np.abs(-d.a1 * d.b * np.sin(d.b * x)).max() <= 100.0
    assert np.abs(-d.a1 * d.b ** 2 * np.cos(d.b * x)).max() <= 100.0
    assert d.sup_bound() <= 100.0


def old_series(d, x):
    """The general cosine series sum_i a_i cos(b_i x) that Denoiser once was,
    with its terms (a0, 0) and (a1, b)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for a_i, b_i in ((d.a0, 0.0), (d.a1, d.b)):
        out += a_i * np.cos(b_i * x)
    return out


@pytest.mark.parametrize("b", [0.5, 1.0, 1.7])
def test_denoiser_matches_the_cosine_series(b):
    d = make_denoiser(b)
    x = np.linspace(-50.0, 50.0, 20001)
    assert d(x).tobytes() == old_series(d, x).tobytes()


def test_extreme_b_rejected():
    # small b blows up the normalisation, large b the second derivative
    with pytest.raises(ParameterError):
        make_denoiser(0.05)
    with pytest.raises(ParameterError):
        make_denoiser(12.0)
    with pytest.raises(ParameterError):
        make_denoiser(-1.0)


# ------------------------------------------------------ correlation map


def test_phi_endpoints():
    d = make_denoiser(1.0)
    assert phi_map(d, 0.0) == 0.0
    assert phi_map(d, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_phi_matches_2d_quadrature_on_grid():
    d = make_denoiser(1.0)
    for u in np.arange(-1.0, 1.0001, 0.1):
        oracle = gh_expect_2d(lambda x, y: d(x) * d(y), float(u))
        assert phi_map(d, float(u)) == pytest.approx(oracle, abs=1e-8)


def test_phi_at_0p4_value():
    # frozen from the 2-D quadrature oracle at b = 1
    d = make_denoiser(1.0)
    oracle = gh_expect_2d(lambda x, y: d(x) * d(y), 0.4)
    assert phi_map(d, 0.4) == pytest.approx(oracle, abs=1e-10)
    assert phi_map(d, 0.4) == pytest.approx(0.14928238394292154, abs=1e-12)


def test_phi_domain_check():
    d = make_denoiser(1.0)
    with pytest.raises(ParameterError):
        phi_map(d, 1.5)


def test_phi_even_and_increasing():
    d = make_denoiser(1.0)
    us = np.linspace(0.0, 1.0, 101)
    vals = phi_map(d, us)
    assert np.all(np.diff(vals) > 0)
    assert np.allclose(phi_map(d, -us), vals, atol=1e-15)


def test_phi_quadratic_bound_small_u():
    d = make_denoiser(1.0)
    pp = phi_second_deriv_at_zero(d)
    us = np.linspace(-0.5, 0.5, 201)
    assert np.all(phi_map(d, us) <= pp * us ** 2 + 1e-9)


def test_phi_second_derivative_against_finite_differences():
    for b in (0.8, 1.0, 1.3):
        d = make_denoiser(b)
        h = 1e-4
        fd = (phi_map(d, h) - 2.0 * phi_map(d, 0.0) + phi_map(d, -h)) / (h * h)
        analytic = phi_second_deriv_at_zero(d)
        assert analytic == pytest.approx(fd, rel=1e-6)
        assert analytic > 0


def test_phi_second_derivative_scaling():
    d1 = make_denoiser(1.0)
    d2 = make_denoiser(2.0)
    ratio = phi_second_deriv_at_zero(d2) / phi_second_deriv_at_zero(d1)
    expected = 16.0 * math.exp(-3.0) * (d2.a1 / d1.a1) ** 2
    assert ratio == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------------- Taylor


def test_taylor_low_order_vanishes():
    d = make_denoiser(1.0)
    c = taylor_coefficients(d)
    assert c[0] == 0.0
    assert c[1] == 0.0
    assert np.all(c[3::2] == 0.0)


def test_taylor_matches_quadrature_fit():
    # c2 from the oracle: phi(u) / u^2 -> c2 as u -> 0
    d = make_denoiser(1.0)
    c = taylor_coefficients(d)
    u = 1e-3
    oracle = gh_expect_2d(lambda x, y: d(x) * d(y), u) / (u * u)
    assert c[2] == pytest.approx(oracle, rel=1e-5)
    assert c[2] == pytest.approx(phi_second_deriv_at_zero(d) / 2.0, rel=1e-14)


def test_taylor_sums_to_phi():
    d = make_denoiser(1.0)
    c = taylor_coefficients(d)
    for u in (0.3, 0.9, -0.7):
        series = sum(c[m] * u ** m for m in range(41))
        assert series == pytest.approx(phi_map(d, u), abs=1e-14)


def test_lambda_dominates_coefficients():
    d = make_denoiser(1.0)
    lam = lambda_bound(d)
    c = taylor_coefficients(d)
    for m in range(2, 41):
        assert abs(c[m]) <= lam * 2.0 ** m + 1e-300
    assert lam == pytest.approx(c[2] / 4.0, rel=1e-12)  # max attained at m=2 for b=1


# ------------------------------------------------------------ schedule


def test_schedule_eps0_definition():
    sched = build_schedule(0.8, 1000, 24)
    d = make_denoiser(1.0)
    assert sched.eps0 == pytest.approx(phi_map(d, 0.4), abs=1e-15)


def test_schedule_growth_arithmetic():
    sched = build_schedule(0.8, 1000, 24, gamma=1.0 / 6.0, min_rounds=2)
    assert sched.ks == (24, 96, 1536)
    assert all(b > a for a, b in zip(sched.ks, sched.ks[1:]))
    assert all(0.0 < e < 1.0 for e in sched.epss)


def test_schedule_t_star_at_desk_scale():
    # (log 1000)^1.1 ~ 8.38 < 24, so the natural stopping index is 0
    sched = build_schedule(0.8, 1000, 24, min_rounds=2)
    assert math.log(1000) ** 1.1 == pytest.approx(8.3805, abs=1e-3)
    assert sched.t_star == 0
    assert sched.rounds == 2  # min_rounds extends the sizing


def test_schedule_t_star_above_zero_for_small_k0():
    sched = build_schedule(0.8, 10 ** 9, 24, gamma=1.0 / 6.0, min_rounds=0)
    # (log 1e9)^1.1 ~ 28.5 > 24, so one round is needed
    assert sched.t_star == 1
    assert sched.ks[sched.t_star] >= math.log(10 ** 9) ** 1.1
    assert sched.ks[sched.t_star - 1] < math.log(10 ** 9) ** 1.1


def test_schedule_rejects_bad_k0_and_gamma():
    with pytest.raises(ScheduleError):
        build_schedule(0.8, 1000, 6)
    with pytest.raises(ScheduleError):
        build_schedule(0.8, 1000, 24, gamma=1.0 / 48.0)  # K1 = 12 < 24


def test_asymptotic_constants_mode_refuses_to_run():
    d = make_denoiser(1.0)
    bound = reference_k0_bound(0.8, d)
    assert bound > 1e30
    with pytest.raises(ParameterError, match="asymptotic"):
        build_schedule(0.8, 1000, 24, mode="asymptotic")


def test_signal_growth_factor_recorded():
    sched = build_schedule(0.8, 1000, 24)
    # K0 eps0^2 gamma (phi''(0) rho^2/16)^2 is far below 1 at desk scale
    assert 0.0 < sched.signal_growth_factor < 1.0
    assert sched.eq25_ratio == pytest.approx(
        growth_ratio_condition(0.8, make_denoiser(1.0), 24), rel=1e-12)


def test_schedule_deterministic():
    s1 = build_schedule(0.9, 500, 24, min_rounds=3)
    s2 = build_schedule(0.9, 500, 24, min_rounds=3)
    assert s1 == s2
