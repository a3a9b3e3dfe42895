"""Noise-multiplier calibration and privacy-profile sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import condcomp, mc, pld, renyi
from .mechanism import Schedule, StrategyMatrix, mixture_means

SIGMA_MIN = 2.0**-16
SIGMA_MAX = 2.0**16

METHODS = ("renyi", "condcomp", "best")


class UnachievableTargetError(RuntimeError):
    """No sigma in the search bracket reaches the privacy target."""


@dataclass(frozen=True)
class PrivacyPoint:
    """One (epsilon, delta) readout with provenance."""

    epsilon: float
    delta: float
    method: str
    direction: str


def _renyi_delta_fn(strategy, schedule, epsilon, alpha_set, bandwidth):
    def f(sigma):
        return renyi.renyi_account(
            strategy, schedule, sigma, epsilon, alpha_set=alpha_set, bandwidth=bandwidth
        )[0]

    return f


def _condcomp_delta_fn(strategy, schedule, epsilon, delta_e, allocation):
    def f(sigma):
        return condcomp.cond_comp_account(
            strategy, schedule, sigma, epsilon, delta_e, allocation=allocation
        )[0]

    return f


def smallest_sigma(delta_fn, delta_target: float, tol: float) -> float:
    """Smallest sigma with delta_fn(sigma) <= delta_target, to relative tol.

    Geometric bracket expansion from 0.25 followed by geometric bisection; the
    returned sigma satisfies the target while sigma*(1 - 2*tol) does not.
    """
    hi = 0.25
    lo = None
    while delta_fn(hi) > delta_target:
        lo = hi
        hi *= 2.0
        if hi > SIGMA_MAX:
            raise UnachievableTargetError(
                f"no sigma up to {SIGMA_MAX} reaches delta <= {delta_target}"
            )
    if lo is None:
        lo = hi / 2.0
        while delta_fn(lo) <= delta_target:
            hi = lo
            lo /= 2.0
            if lo < SIGMA_MIN:
                return hi
    while hi / lo > 1.0 + tol:
        mid = math.sqrt(lo * hi)
        if delta_fn(mid) <= delta_target:
            hi = mid
        else:
            lo = mid
    return hi


def calibrate_sigma(
    method: str,
    strategy: StrategyMatrix,
    schedule: Schedule,
    epsilon: float,
    delta_target: float,
    tol: float = 1e-3,
    *,
    delta_e_fraction: float = 0.5,
    alpha_set=renyi.DEFAULT_ALPHAS,
    bandwidth: int | None = None,
    allocation: str = "hybrid",
) -> float:
    """Smallest noise multiplier achieving (epsilon, delta_target) for the method.

    condcomp spends delta_e_fraction of the target on the bad-event budget and
    the rest on the composed profile; `best` takes the minimum over methods.
    """
    if not 0.0 < delta_target < 1.0:
        raise ValueError(f"delta_target must lie in (0, 1), got {delta_target}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not 0.0 < delta_e_fraction < 1.0:
        raise ValueError(f"delta_e_fraction must lie in (0, 1), got {delta_e_fraction}")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    fns = {}
    if method in ("renyi", "best"):
        fns["renyi"] = _renyi_delta_fn(strategy, schedule, epsilon, alpha_set, bandwidth)
    if method in ("condcomp", "best"):
        fns["condcomp"] = _condcomp_delta_fn(
            strategy, schedule, epsilon, delta_target * delta_e_fraction, allocation
        )
    return min(smallest_sigma(fn, delta_target, tol) for fn in fns.values())


def calibrate_sigma_mc(
    strategy: StrategyMatrix,
    schedule: Schedule,
    epsilon: float,
    delta_target: float,
    n_samples: int,
    seed: int,
    tol: float = 1e-3,
) -> float:
    """Monte Carlo reference calibration (point estimate, not a sound bound).

    Uses max over adjacency directions of the estimated divergence; each
    sigma probe reuses the seed, so results are reproducible.
    """
    means = mixture_means(strategy, schedule)

    def f(sigma):
        return max(
            mc.mc_delta(means, sigma, epsilon, d, n_samples, seed=seed).point_estimate
            for d in (mc.REMOVE, mc.ADD)
        )

    return smallest_sigma(f, delta_target, tol)


def profile(
    method: str,
    strategy: StrategyMatrix,
    schedule: Schedule,
    sigma: float,
    epsilon_grid,
    *,
    delta_e: float = 1e-6,
    alpha_set=renyi.DEFAULT_ALPHAS,
    bandwidth: int | None = None,
    allocation: str = "hybrid",
    n_samples: int = 10**6,
    seed: int | None = None,
) -> list[PrivacyPoint]:
    """delta at each epsilon of an ascending grid, via one prepared accountant.

    Preparation (divergence curve, composed PLD, or loss samples) happens once
    and every grid point is a cheap readout, so the output is exactly monotone.
    """
    eps = [float(e) for e in epsilon_grid]
    if not eps or any(b <= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilon grid must be non-empty and strictly ascending")
    means = mixture_means(strategy, schedule)
    if np.all(means.means == 0.0):
        return [
            PrivacyPoint(e, max(0.0, -math.expm1(e)), method, "both") for e in eps
        ]
    points = []
    if method == "renyi":
        curve = renyi.renyi_curve(strategy, schedule, sigma, alpha_set, bandwidth)
        for e in eps:
            delta, alpha = renyi.curve_delta(curve, e)
            idx = curve.alphas.index(alpha)
            direction = (
                "remove" if curve.rho_remove[idx] >= curve.rho_add[idx] else "add"
            )
            points.append(PrivacyPoint(e, delta, method, direction))
    elif method == "condcomp":
        composed = condcomp.cond_comp_pld(strategy, schedule, sigma, delta_e, allocation)
        for e in eps:
            per = {d: pld.delta_at(composed[d], e) for d in (pld.REMOVE, pld.ADD)}
            direction = max(per, key=per.get)
            points.append(
                PrivacyPoint(e, min(1.0, per[direction] + delta_e), method, direction)
            )
    elif method == "mc":
        if seed is None:
            raise ValueError("Monte Carlo profiles require an explicit seed")
        samples = {
            d: mc.mc_loss_samples(means, sigma, d, n_samples, seed)
            for d in (mc.REMOVE, mc.ADD)
        }
        for e in eps:
            per = {
                d: mc.mc_delta_from_samples(samples[d], e, 0.95, seed).point_estimate
                for d in samples
            }
            direction = max(per, key=per.get)
            points.append(PrivacyPoint(e, per[direction], method, direction))
    elif method == "best":
        rp = profile("renyi", strategy, schedule, sigma, eps, alpha_set=alpha_set, bandwidth=bandwidth)
        cp = profile("condcomp", strategy, schedule, sigma, eps, delta_e=delta_e, allocation=allocation)
        for r, c in zip(rp, cp):
            best = r if r.delta <= c.delta else c
            points.append(PrivacyPoint(best.epsilon, best.delta, "best", best.method))
    else:
        raise ValueError(f"unknown method {method!r}")
    return points
