"""Noise-multiplier calibration and privacy-profile sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import condcomp, mc, pld, renyi
from .mechanism import Schedule, StrategyMatrix, mixture_means

SIGMA_MIN = 2.0**-16
SIGMA_MAX = 2.0**16
_X_MIN = math.log(SIGMA_MIN)
_X_MAX = math.log(SIGMA_MAX)
# Before the root is bracketed: the slope of log(-log delta) in log sigma
# assumed from a single probe (Gaussian tails), the floor on a measured slope,
# and the largest jump in log sigma.
_PRIOR_SLOPE = 2.0
_MIN_SLOPE = 0.5
_MAX_JUMP = 3.0

class UnachievableTargetError(RuntimeError):
    """No sigma in the search bracket reaches the privacy target."""


@dataclass(frozen=True)
class PrivacyPoint:
    """One (epsilon, delta) readout with provenance.

    breakdown holds delta per adjacency direction, or per accountant for
    `best`; alpha is the winning Renyi order (renyi and best); estimate is the
    worst direction's Monte Carlo estimate (mc).
    """

    epsilon: float
    delta: float
    method: str
    breakdown: dict
    alpha: int | None = None
    estimate: mc.MCEstimate | None = None


def _log_log(delta: float) -> float:
    """log(-log delta): +inf at delta <= 0, -inf at delta >= 1, NaN stays NaN."""
    if delta <= 0.0:
        return math.inf
    if delta >= 1.0:
        return -math.inf
    return math.log(-math.log(delta))


def smallest_sigma(delta_fn, delta_target: float, tol: float) -> float:
    """Smallest sigma with delta_fn(sigma) <= delta_target, to relative tol.

    For delta_fn non-increasing in sigma, the returned sigma meets the target
    and sigma / (1 + tol) does not: a probe at or above it failed.  SIGMA_MIN
    is returned as soon as it meets the target; UnachievableTargetError is
    raised when SIGMA_MAX does not.

    The search runs on x = log sigma and y = log(-log delta) minus the same of
    the target, so y >= 0 where the target is met.  Gaussian-tailed profiles
    have delta ~ exp(-c sigma^2), so y is nearly linear in x with slope 2.
    From sigma = 1, until the root is bracketed, each probe extrapolates
    through the last two finite probes (slope at least _MIN_SLOPE, and
    _PRIOR_SLOPE from one probe), overshoots by log(1 + tol) so that it tends
    to cross the root, and jumps at most _MAX_JUMP in x; where delta is
    exactly 0 or 1, y is infinite and the probe jumps _MAX_JUMP.  Inside the
    bracket it takes Illinois steps (regula falsi, halving the y of an end
    kept twice in a row), or bisects while an end's y is infinite.  Every
    probe stays half of log(1 + tol) inside the bracket, so the last two tend
    to straddle the root.  It stops when the meeting and failing ends are
    within a factor 1 + tol.
    """
    step = math.log1p(tol)
    y_target = _log_log(delta_target)
    fail = meet = None  # [x, y] of the largest failing and smallest meeting probe
    finite = []  # [x, y] of the last two finite probes before the bracket
    last = None  # the end the previous probe moved
    x = 0.0
    while True:
        x = min(max(x, _X_MIN), _X_MAX)
        sigma = SIGMA_MIN if x == _X_MIN else SIGMA_MAX if x == _X_MAX else math.exp(x)
        delta = delta_fn(sigma)
        probe = [x, _log_log(delta) - y_target]
        if delta <= delta_target:
            if x == _X_MIN:
                return SIGMA_MIN
            meet, meet_sigma, moved = probe, sigma, "meet"
        else:
            if x == _X_MAX:
                raise UnachievableTargetError(
                    f"no sigma up to {SIGMA_MAX} reaches delta <= {delta_target}"
                )
            fail, fail_sigma, moved = probe, sigma, "fail"
        halve, last = moved == last, moved
        if fail is None or meet is None:
            up = 1.0 if meet is None else -1.0
            if math.isfinite(probe[1]):
                finite = (finite + [probe])[-2:]
                slope = _PRIOR_SLOPE
                if len(finite) == 2:
                    (x0, y0), (x1, y1) = finite
                    slope = (y1 - y0) / (x1 - x0)
                slope = slope if slope > _MIN_SLOPE else _MIN_SLOPE
                jump = -probe[1] / slope + up * step
                x += min(max(jump, -_MAX_JUMP), _MAX_JUMP)
            else:
                x += up * _MAX_JUMP
            continue
        if meet_sigma <= fail_sigma * (1.0 + tol):
            return meet_sigma
        if halve:  # Illinois: the other end was kept twice in a row
            (meet if moved == "fail" else fail)[1] /= 2.0
        (x0, y0), (x1, y1) = fail, meet
        if math.isfinite(y0) and math.isfinite(y1):
            x = x0 - y0 * (x1 - x0) / (y1 - y0)
        else:
            x = 0.5 * (x0 + x1)
        x = min(max(x, x0 + step / 2.0), x1 - step / 2.0)


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
    n_samples: int = 10**6,
    seed: int | None = None,
) -> float:
    """Smallest noise multiplier whose one-epsilon profile meets delta_target.

    Every method searches its own profile, with profile's options and delta_e
    = delta_e_fraction * delta_target; `mc` is a seeded estimate, not a bound.
    """
    if not 0.0 < delta_target < 1.0:
        raise ValueError(f"delta_target must lie in (0, 1), got {delta_target}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not 0.0 < delta_e_fraction < 1.0:
        raise ValueError(f"delta_e_fraction must lie in (0, 1), got {delta_e_fraction}")
    kwargs = dict(
        delta_e=delta_target * delta_e_fraction, alpha_set=alpha_set, bandwidth=bandwidth,
        allocation=allocation, n_samples=n_samples, seed=seed,
    )
    return smallest_sigma(
        lambda sigma: profile(method, strategy, schedule, sigma, [epsilon], **kwargs)[0].delta,
        delta_target,
        tol,
    )


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
    if not all(math.isfinite(e) for e in eps):
        raise ValueError(f"epsilon grid must be finite, got {eps}")
    if not eps or any(b <= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilon grid must be non-empty and strictly ascending")
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if method == "best":
        # Soundness policy: only the deterministic accountants take part.
        rp = profile("renyi", strategy, schedule, sigma, eps, alpha_set=alpha_set, bandwidth=bandwidth)
        cp = profile("condcomp", strategy, schedule, sigma, eps, delta_e=delta_e, allocation=allocation)
        return [
            PrivacyPoint(
                r.epsilon, min(r.delta, c.delta), method,
                {"renyi": r.delta, "condcomp": c.delta}, alpha=r.alpha,
            )
            for r, c in zip(rp, cp)
        ]
    # The zero mechanism's pair is identical: the deterministic accountants
    # read its delta exactly, after their inputs are validated; Monte Carlo
    # samples it like any other.  The mixture means are column sums of |C|
    # over every column, so they vanish exactly when C does, and only the
    # accountant that consumes them builds them.  Each readout maps epsilon to
    # (delta per direction, alpha, MC estimate per direction).
    zero = method != "mc" and not strategy.data.any()
    bad_event = 0.0
    if method == "renyi":
        # One order is all the zero mechanism needs, and still validates.
        curve = renyi.renyi_curve(
            strategy, schedule, sigma, (min(alpha_set),) if zero else alpha_set, bandwidth
        )

        def readout(e):
            alpha = renyi.curve_delta(curve, e)[1]
            j = curve.alphas.index(alpha)
            rhos = {pld.REMOVE: curve.rho_remove[j], pld.ADD: curve.rho_add[j]}
            per = {d: renyi.renyi_to_delta(float(r), alpha, e) for d, r in rhos.items()}
            return per, alpha, None

    elif method == "condcomp":
        composed = condcomp.cond_comp_pld(strategy, schedule, sigma, delta_e, allocation)
        bad_event = delta_e

        def readout(e):
            return {d: pld.delta_at(composed[d], e) for d in composed}, None, None

    elif method == "mc":
        if seed is None:
            raise ValueError("Monte Carlo profiles require an explicit seed")
        means = mixture_means(strategy, schedule)
        samples = {d: mc.mc_loss_samples(means, sigma, d, n_samples, seed) for d in pld.DIRECTIONS}

        def readout(e):
            est = {d: mc.mc_delta_from_samples(samples[d], e, 0.95, seed) for d in samples}
            return {d: x.point_estimate for d, x in est.items()}, None, est

    else:
        raise ValueError(f"unknown method {method!r}")
    points = []
    for e in eps:
        per, alpha, estimates = readout(e)
        if zero:  # no privacy loss and no bad event
            per, bad_event = dict.fromkeys(per, pld.identical_pair_delta(e)), 0.0
        worst = max(per, key=per.get)
        points.append(
            PrivacyPoint(
                e, min(1.0, per[worst] + bad_event), method, per, alpha,
                estimates[worst] if estimates else None,
            )
        )
    return points
