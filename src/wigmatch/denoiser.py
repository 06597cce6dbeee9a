"""Cosine denoiser, its correlation map, and the round-size schedule.

The denoiser is the two-term cosine series at frequency b = DENOISER_B = 1

    varphi(x) = a1 * (cos(b x) - exp(-b^2 / 2))

normalised so that E[varphi(X)] = 0 and E[varphi(X)^2] = 1 for X ~ N(0,1).
For standard bivariate normals (X, Y) with correlation u the correlation
map has the closed form

    phi(u) = E[varphi(X) varphi(Y)] = a1^2 exp(-b^2) (cosh(b^2 u) - 1),

an even analytic function with phi(0) = phi'(0) = 0 and phi(1) = 1.  Its
Taylor coefficients are c_m = a1^2 exp(-b^2) b^(2m) / m! for even m >= 2 and
zero otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ScheduleError

DENOISER_B = 1.0  # the denoiser frequency b
TAYLOR_TERMS = 40  # the Taylor series of phi is truncated after c_40


@dataclass(frozen=True)
class Denoiser:
    """Entrywise nonlinearity varphi(x) = a0 + a1 cos(b x)."""

    a0: float
    a1: float   # the normalisation constant
    b: float

    def __call__(self, x):
        return self.a0 + self.a1 * np.cos(self.b * np.asarray(x, dtype=float))


def make_denoiser(b: float = DENOISER_B) -> Denoiser:
    """The normalised two-term cosine denoiser at frequency b = DENOISER_B;
    any other b raises ParameterError."""
    if b != DENOISER_B:
        raise ParameterError(f"b must be {DENOISER_B}, got {b!r}")
    denom = (1.0 + math.exp(-2.0 * b * b)) / 2.0 - math.exp(-b * b)
    a1 = denom ** -0.5
    return Denoiser(a0=-a1 * math.exp(-b * b / 2.0), a1=a1, b=b)


def phi_map(d: Denoiser, u) -> float | np.ndarray:
    """Closed-form correlation map phi(u) = E[varphi(X) varphi(Y)], corr(X,Y)=u.

    Scalar inputs are validated against |u| <= 1; array inputs are the
    caller's responsibility (the spectral module clamps first).  Uses expm1
    so small arguments do not lose precision to cancellation.
    """
    b = d.b
    a1 = d.a1
    scalar = np.isscalar(u)
    if scalar and abs(u) > 1.0 + 1e-12:
        raise ParameterError(f"|u| must be <= 1, got {u}")
    x = b * b * np.asarray(u, dtype=float)
    out = a1 * a1 * math.exp(-b * b) * 0.5 * (np.expm1(x) + np.expm1(-x))
    return float(out) if scalar else out


def phi_second_deriv_at_zero(d: Denoiser) -> float:
    """phi''(0) = a1^2 exp(-b^2) b^4, always positive."""
    b = d.b
    return d.a1 * d.a1 * math.exp(-b * b) * b ** 4


def taylor_coefficients(d: Denoiser) -> np.ndarray:
    """Taylor coefficients c_0 .. c_{TAYLOR_TERMS} of phi around 0.

    c_m = a1^2 exp(-b^2) b^(2m) / m! for even m >= 2; odd and low-order
    coefficients vanish.
    """
    b = d.b
    pref = d.a1 * d.a1 * math.exp(-b * b)
    c = np.zeros(TAYLOR_TERMS + 1)
    for m in range(2, TAYLOR_TERMS + 1, 2):
        c[m] = pref * b ** (2 * m) / math.factorial(m)
    return c


def lambda_bound(d: Denoiser) -> float:
    """Lambda = max_m |c_m| / 2^m over the truncated Taylor series."""
    c = taylor_coefficients(d)
    return float(max(abs(c[m]) / 2.0 ** m for m in range(2, TAYLOR_TERMS + 1)))


def reference_k0_bound(rho: float, d: Denoiser) -> float:
    """Reference seed-set size required by the asymptotic analysis.

    10^30 rho^-30 |phi''(0)|^4 Lambda^4 eps0^-2 -- astronomically large for
    any usable rho; printed for documentation, never run.
    """
    eps0 = phi_map(d, rho / 2.0)
    lam = lambda_bound(d)
    pp = phi_second_deriv_at_zero(d)
    return 1e30 * rho ** -30 * pp ** 4 * lam ** 4 * eps0 ** -2


def growth_ratio_condition(rho: float, d: Denoiser, k0: int) -> float:
    """Log-ratio from the second seed-size condition; must be < 1.01 in the
    asymptotic regime.  Recorded in run manifests; unsatisfied at desk scale."""
    eps0 = phi_map(d, rho / 2.0)
    lam = lambda_bound(d)
    pp = phi_second_deriv_at_zero(d)
    num = math.log(1e-30 * pp ** 2 * lam ** 2 * rho ** 20 * k0)
    den = math.log(1e40 * pp ** 4 * lam ** -4 * rho ** 24 * k0 * eps0 ** 2)
    return num / den


@dataclass(frozen=True)
class Schedule:
    """In the key order of the run record's schedule, less rho and k0."""
    rho: float
    k0: int
    ks: tuple[int, ...]
    epss: tuple[float, ...]
    t_star: int
    eps0: float
    gamma: float
    c2: float
    lambda_cap: float
    signal_growth_factor: float  # K0 eps0^2 gamma (phi''(0) rho^2 / 16)^2
    eq25_ratio: float


def build_schedule(rho: float, n: int, k0: int, mode: str = "practical",
                   d: Denoiser | None = None, gamma: float | None = None,
                   min_rounds: int = 2) -> Schedule:
    """Round sizes K_t and a-priori signal levels eps_t.

    K_{t+1} = gamma * K_t^2 with gamma = 4 / k0 (so K quadruples on the
    first round) and the sizing proxy
    eps_{t+1} = phi(rho/2 * eps_t).  The realised eps sequence is
    recomputed during a run from the spectral subroutine's trace.

    t_star = min{t : K_t >= (log n)^1.1}; the list extends through
    max(t_star, min_rounds) so a forced-rounds run is fully sized, and a
    min_rounds whose K_t passes the float range raises ScheduleError.

    mode accepts only "practical" and gamma only None (4 / k0): the one
    schedule.  The paper's constants need K_0 >= reference_k0_bound, which
    no runnable k0 reaches; the `constants` command prints that bound.
    """
    from .spectral import XI_FACTOR     # spectral imports this module

    if d is None:
        d = make_denoiser()
    if not (0.0 < rho <= 1.0):
        raise ParameterError(f"rho must lie in (0, 1], got {rho}")
    if mode != "practical":
        raise ParameterError(f"unknown schedule mode {mode!r}")
    if k0 < XI_FACTOR:
        raise ScheduleError(f"k0 must be >= {XI_FACTOR} so K_t/{XI_FACTOR} >= 1, got {k0}")
    if gamma is not None:
        raise ParameterError(f"gamma is 4 / k0, pass None; got {gamma!r}")
    gamma = 4.0 / k0
    eps0 = float(phi_map(d, rho / 2.0))
    threshold = math.log(n) ** 1.1
    ks = [int(k0)]
    epss = [eps0]
    t_star = None
    if k0 >= threshold:
        t_star = 0
    t = 0
    # extend until the stopping index is known and min_rounds is covered
    while (t_star is None) or (len(ks) - 1 < max(t_star, min_rounds)):
        try:
            k_next = int(round(gamma * ks[-1] ** 2))
        except OverflowError:
            raise ScheduleError(
                f"min_rounds={min_rounds} is more rounds than the schedule can size: "
                f"K_{t + 1} passes the float range at k0={k0}, so at most {t}") from None
        ks.append(k_next)
        epss.append(float(phi_map(d, rho / 2.0 * epss[-1])))
        t += 1
        if t_star is None and k_next >= threshold:
            t_star = t
    pp = phi_second_deriv_at_zero(d)
    growth = k0 * eps0 ** 2 * gamma * (pp * rho ** 2 / 16.0) ** 2
    return Schedule(rho=float(rho), k0=int(k0), eps0=eps0, ks=tuple(ks),
                    epss=tuple(epss), t_star=int(t_star), c2=pp / 2.0,
                    lambda_cap=lambda_bound(d), gamma=float(gamma),
                    signal_growth_factor=float(growth),
                    eq25_ratio=float(growth_ratio_condition(rho, d, k0)))
