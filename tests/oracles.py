"""Shared independent oracles used across test modules."""

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm

from balloc.condcomp import _tau_core, hazard_from_tail


def gaussian_profile_delta(sensitivity: float, sigma: float, epsilon: float) -> float:
    """Closed-form delta(epsilon) of the Gaussian mechanism."""
    a = sensitivity / (2.0 * sigma)
    b = epsilon * sigma / sensitivity
    return float(norm.cdf(a - b) - np.exp(epsilon) * norm.cdf(-a - b))


def gaussian_profile_sigma(sensitivity: float, epsilon: float, delta: float) -> float:
    """Invert the closed-form profile for sigma by bisection."""
    lo, hi = 1e-6, 1e6
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if gaussian_profile_delta(sensitivity, mid, epsilon) <= delta:
            hi = mid
        else:
            lo = mid
    return float(hi)


def mixture_pdf(y, means, weights, sigma):
    y = np.asarray(y, dtype=float)
    dens = norm.pdf((y[..., None] - np.asarray(means)) / sigma) / sigma
    return dens @ np.asarray(weights)


def hockey_stick_quadrature(means, weights, sigma, epsilon, direction) -> float:
    """Direct numerical integration of E_P[max(1 - e^eps dQ/dP, 0)]."""
    means = np.asarray(means, dtype=float)
    lim = float(means.max() + 12 * sigma)

    def p(y):
        return mixture_pdf(np.atleast_1d(y), means, weights, sigma)[0]

    def q(y):
        return norm.pdf(y / sigma) / sigma

    if direction == "remove":
        f = lambda y: max(p(y) - np.exp(epsilon) * q(y), 0.0)
    else:
        f = lambda y: max(q(y) - np.exp(epsilon) * p(y), 0.0)
    val, _ = quad(f, -lim, lim, limit=2000, epsabs=1e-12)
    return float(val)


def collinear_add_renyi_quadrature(ts, sigma, alpha) -> float:
    """R_alpha(N(0, s^2 I) || mixture) for means t_i * e_1, by 1-D quadrature.

    With collinear means the orthogonal coordinates cancel, leaving a
    univariate integral of q^alpha / p^(alpha-1).
    """
    ts = np.asarray(ts, dtype=float)
    b = ts.size
    w = np.full(b, 1.0 / b)
    lim = float(np.abs(ts).max() + 14 * sigma)

    def p(y):
        return mixture_pdf(np.atleast_1d(y), ts, w, sigma)[0]

    def q(y):
        return norm.pdf(y / sigma) / sigma

    val, _ = quad(lambda y: q(y) ** alpha / p(y) ** (alpha - 1), -lim, lim, limit=400)
    return float(np.log(val) / (alpha - 1))


def single_step_hazards(means, n: int, sigma: float, plan, direction: str) -> np.ndarray:
    """Hazard bounds of step n alone, its prefix Gram formed from the raw prefixes.

    Rows of the Gram follow the step's scalar means in ascending order; rank
    i+1 takes i candidates, and the remove direction's reference mixture is
    every component from rank i+1 up.  The per-bound significance is written
    out per allocation strategy.
    """
    b = plan.schedule.batches_per_epoch
    k = plan.schedule.epochs
    n_total = plan.schedule.iterations
    if plan.strategy == "union" or (plan.strategy == "hybrid" and n <= b):
        beta = plan.delta_e / (n_total * (b - 1))
    elif plan.strategy == "global-max":
        beta = plan.delta_e / (b - 1)
    else:
        beta = plan.delta_e / (k * (b - 1))
    m = means.means
    order = np.argsort(m[:, n - 1], kind="stable")
    prefix = m[order][:, : n - 1]
    h_sorted = prefix @ prefix.T
    lam = np.ones(b)
    for i in range(1, b):
        ref = np.arange(i, b) if direction == "remove" else None
        lam[i] = hazard_from_tail(i + 1, _tau_core(h_sorted, i, ref, sigma, beta))
    return np.clip(lam, 1e-300, 1.0)
