"""Privacy-loss distributions for univariate mixture-Gaussian vs Gaussian pairs.

The privacy loss of (sum_i w_i N(m_i, s^2), N(0, s^2)) is monotone in the
outcome when all means are non-negative, so hockey-stick divergences reduce to
one-dimensional Gaussian tail sums around a threshold outcome.  The loss is a
log-sum-exp of affine functions of the outcome, hence convex as well as
increasing, and each threshold is found by Newton's method started to the
right of it: every tangent lies below the curve, so every iterate stays to
the right and the iterates fall monotonically onto the threshold.  Losses are
quantized pessimistically (connect-the-dots: exact delta at the grid
epsilons, dominating chords between them; truncated tails folded into the
bottom point or the +infinity atom) so that the discretized delta dominates
the exact one at every epsilon, and composition is plain convolution on the
shared grid, the pieces paired in a balanced tree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import log_ndtr, ndtr, ndtri

from .mechanism import _freeze

LOSS_FLOOR = -50.0
TAIL_MASS = 1e-15
GRID_POINTS = 1000
# Direct convolution costs the product of the sizes and FFT about their sum
# (times a log): `_convolve` goes direct while the smaller operand has at most
# this many points (direct won up to about 200 on a 2-vCPU x86 machine).
_DIRECT_CONV_LIMIT = 128

REMOVE = "remove"
ADD = "add"
# The adjacency directions, in the order of per-direction array axes.
DIRECTIONS = (REMOVE, ADD)


@dataclass(frozen=True)
class MixGaussPair:
    """Dominating pair (mixture vs N(0, sigma)); `direction` fixes the order.

    remove: first = mixture, second = N(0, sigma).
    add:    first = N(0, sigma), second = mixture.
    Construction sorts the means, merges duplicates and drops zero-weight
    components; neither changes the distribution.
    """

    means: np.ndarray
    weights: np.ndarray
    sigma: float
    direction: str

    def __init__(self, means, weights, sigma, direction):
        means = np.atleast_1d(np.asarray(means, dtype=float))
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        if means.shape != weights.shape or means.ndim != 1:
            raise ValueError("means and weights must be 1-d vectors of equal length")
        if np.any(means < 0):
            raise ValueError("mixture means must be non-negative")
        if np.any(weights < -1e-12) or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be non-negative and sum to 1")
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be 'remove' or 'add', got {direction!r}")
        keep = weights > 0.0
        means, weights = means[keep], weights[keep]
        order = np.argsort(means)
        means, weights = means[order], weights[order]
        uniq, inverse = np.unique(means, return_inverse=True)
        merged = np.zeros(uniq.size)
        np.add.at(merged, inverse, weights)
        for name, value in (
            ("means", _freeze(uniq)),
            ("weights", _freeze(merged)),
            ("sigma", float(sigma)),
            ("direction", direction),
        ):
            object.__setattr__(self, name, value)

    def key(self) -> tuple:
        return (self.direction, self.sigma, tuple(self.means), tuple(self.weights))

    @property
    def degenerate(self) -> bool:
        """True when the mixture collapses to N(0, sigma), i.e. the pair is (Q, Q)."""
        return bool(np.all(self.means == 0.0))

    @functools.cached_property
    def loss_range(self) -> tuple[float, float]:
        """Losses kept on the grid (`_loss_range`), computed once per pair.

        Both the grid spacing of a composition and each pair's grid read it.
        """
        return _loss_range(self)


def _mix_loss_slope(pair: MixGaussPair, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(mixture / N(0, sigma)) at y and its derivative in y.

    The loss is a log-sum-exp of lines with slopes m_i / sigma^2, so it is
    convex, and strictly increasing when some mean > 0; its derivative is the
    softmax-weighted mean of those slopes, read off the same exponentials.
    """
    m = pair.means[None, :]
    w = np.log(pair.weights)[None, :]
    y = np.atleast_1d(np.asarray(y, dtype=float))[:, None]
    vals = (2.0 * m * y - m * m) / (2.0 * pair.sigma**2) + w
    top = vals.max(axis=1)
    terms = np.exp(vals - top[:, None])
    total = terms.sum(axis=1)
    return top + np.log(total), (terms @ pair.means) / (total * pair.sigma**2)


def _mix_loss(pair: MixGaussPair, y: np.ndarray) -> np.ndarray:
    """log(mixture / N(0, sigma)) at y."""
    return _mix_loss_slope(pair, y)[0]


def _newton_start(pair: MixGaussPair, ell: np.ndarray) -> np.ndarray:
    """An outcome whose loss is surely >= ell, for each ell above the infimum.

    e^L(y) = w_0 [m_0 = 0] + sum_{m_i > 0} w_i exp((2 m_i y - m_i^2) / (2 s^2)),
    so each term of the sum alone reaches e^ell - w_0 [m_0 = 0] at or right of
    the solution, and so does Jensen's line L(y) >= sum_i w_i (2 m_i y - m_i^2)
    / (2 s^2); the least of these is the start.
    """
    sigma2 = pair.sigma**2
    rest = ell
    if pair.means[0] == 0.0:
        # log(e^ell - w_0), or ell itself where rounding puts ell at log(w_0)
        with np.errstate(divide="ignore", invalid="ignore"):
            rest = ell + np.log(-np.expm1(math.log(pair.weights[0]) - ell))
        rest = np.where(np.isfinite(rest), rest, ell)
    positive = pair.means > 0.0
    m, w = pair.means[positive], pair.weights[positive]
    terms = (sigma2 * (rest[:, None] - np.log(w)) + m * m / 2.0) / m
    m_bar = pair.weights @ pair.means
    jensen = (sigma2 * ell + (pair.weights @ pair.means**2) / 2.0) / m_bar
    return np.minimum(terms.min(axis=1), jensen)


def _mix_loss_inverse(pair: MixGaussPair, ell: np.ndarray) -> np.ndarray:
    """Solve _mix_loss(y) = ell for y by vectorized Newton steps from the right.

    Each entry starts at an outcome whose loss is surely >= ell
    (`_newton_start`).  The loss is convex, so the tangent there lies below it
    and meets ell at or right of the solution: every iterate stays to the
    right and the iterates decrease monotonically.  An entry stops once its
    step is within 1e-13 * sigma, or when rounding stops its iterate from
    decreasing.  Values of ell at or below the loss at an effectively -inf
    threshold (every Gaussian tail evaluates to 0 there), the loss infimum
    included, return that threshold.
    """
    ell = np.atleast_1d(np.asarray(ell, dtype=float))
    lo = -64.0 * pair.sigma - pair.means[-1]
    y = np.full(ell.shape, lo)
    active = np.flatnonzero(ell > _mix_loss(pair, lo)[0])
    y[active] = _newton_start(pair, ell[active])
    tol = 1e-13 * pair.sigma
    while active.size:
        loss, slope = _mix_loss_slope(pair, y[active])
        # A slope that underflows to 0 leaves the loss flat: no further progress.
        step = np.divide(loss - ell[active], slope, out=np.zeros_like(slope), where=slope > 0)
        moved = y[active] - step
        falling = moved < y[active]
        y[active[falling]] = moved[falling]
        active = active[falling & (step > tol)]
    return y


def _delta_terms(pair: MixGaussPair, epsilons: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, second) with delta = first - second at each epsilon (vectorized).

    first is the pair's first element's mass where the loss exceeds epsilon,
    second e^epsilon times the second element's mass there.
    """
    sigma = pair.sigma
    eps = np.asarray(epsilons, dtype=float)
    if pair.direction == REMOVE:
        y = _mix_loss_inverse(pair, eps)
        first = ndtr((pair.means[None, :] - y[:, None]) / sigma) @ pair.weights
        second = np.exp(eps + log_ndtr(-y / sigma))
    else:
        y = _mix_loss_inverse(pair, -eps)
        first = ndtr(y / sigma)
        second = np.exp(
            eps[:, None] + log_ndtr((y[:, None] - pair.means[None, :]) / sigma)
        ) @ pair.weights
    return first, second


def identical_pair_delta(epsilon: float) -> float:
    """Hockey-stick divergence of any distribution against itself at e^epsilon."""
    return max(0.0, -math.expm1(epsilon))


def _mixture_tail_outcome(pair: MixGaussPair, lower: bool) -> float:
    """Outcome y with TAIL_MASS of the mixture below it (lower) or above it.

    Bisected between exact brackets on the tail mass itself: the CDF below,
    the survival function above.  Neither side is written as 1 - TAIL_MASS,
    whose rounding near the upper quantile would move the cut by far more
    than the weights' rounding does.
    """
    sigma = pair.sigma
    sign = 1.0 if lower else -1.0
    z = float(ndtri(TAIL_MASS))
    lo = pair.means[0] + sign * sigma * z
    hi = pair.means[-1] + sign * sigma * z
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        mass = float(pair.weights @ ndtr(sign * (mid - pair.means) / sigma))
        if (mass >= TAIL_MASS) if lower else (mass <= TAIL_MASS):
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-12 * sigma:
            break
    return hi


def _loss_range(pair: MixGaussPair) -> tuple[float, float]:
    """Losses kept on the grid: TAIL_MASS quantiles, floored at LOSS_FLOOR.

    The loss is monotone in the outcome y, so each end is the loss at a
    y-space tail cut of the pair's first element: the mixture's for remove
    (bisected), the single Gaussian's for add (closed form; the add loss
    falls as y grows, so its lower end sits at the upper y tail).
    """
    if pair.direction == ADD:
        y = pair.sigma * float(ndtri(TAIL_MASS))
        losses = -_mix_loss(pair, np.array([-y, y]))
    else:
        ys = [_mixture_tail_outcome(pair, lower) for lower in (True, False)]
        losses = _mix_loss(pair, np.array(ys))
    return max(LOSS_FLOOR, float(losses[0])), float(losses[1])


@dataclass(frozen=True)
class DiscretePLD:
    """Quantized privacy-loss distribution on the grid {j*h}.

    pmf[i] is the mass at loss (lo_index + i)*h; infinity_mass collects the
    truncated upper tail (and anything rounded to +inf), so total mass is 1.
    """

    h: float
    lo_index: int
    pmf: np.ndarray
    infinity_mass: float

    def losses(self) -> np.ndarray:
        return (self.lo_index + np.arange(self.pmf.size)) * self.h

    def total_mass(self) -> float:
        return float(self.pmf.sum() + self.infinity_mass)


def point_mass_pld(h: float) -> DiscretePLD:
    return DiscretePLD(h=h, lo_index=0, pmf=_freeze(np.array([1.0])), infinity_mass=0.0)


def discretize(pair: MixGaussPair, h: float) -> DiscretePLD:
    """Pessimistic quantization of the pair's privacy-loss distribution.

    Connect-the-dots construction: the discrete distribution on the grid
    reproduces the exact delta(epsilon) at every grid point, and between grid
    points its delta is the chord in e^epsilon, which lies above the exact
    (convex) curve.  Mass below the first grid point (at most TAIL_MASS plus
    whatever lies under LOSS_FLOOR) is folded up into it and the upper tail
    beyond the top grid point, at most TAIL_MASS, becomes infinity_mass
    (charged as that tail's own mass, not as delta there, which cancels to 0
    in float), both of which only raise delta.  The induced delta therefore
    upper-bounds the pair's exact hockey-stick divergence at every epsilon.
    """
    if h <= 0:
        raise ValueError(f"grid spacing must be positive, got {h}")
    if pair.degenerate:
        return point_mass_pld(h)
    x_lo, x_hi = pair.loss_range
    j_lo = math.ceil(x_lo / h - 1e-9)
    j_hi = max(math.ceil(x_hi / h), j_lo + 1)
    grid = np.arange(j_lo, j_hi + 1) * h
    first, second = _delta_terms(pair, grid)
    deltas = np.clip(first - second, 0.0, 1.0)
    # p_j = e^h A_{j-1} - A_j with A_j = (delta_j - delta_{j+1})/(e^h - 1) and
    # A at the top edge 0; the bottom point absorbs the remaining mass.
    a = np.concatenate([np.diff(deltas) / -math.expm1(h), [0.0]])  # A_j, j = lo..hi
    raw = math.exp(h) * np.concatenate([[0.0], a[:-1]]) - a
    raw[0] = 0.0
    # Float dust makes some entries dip a hair below zero where the curve is
    # nearly affine in e^eps; cancel dips against neighbouring mass instead of
    # clipping them (one-sided clipping inflates the total).
    head = np.maximum.accumulate(np.cumsum(raw))
    pmf = np.diff(head, prepend=0.0)
    infinity_mass = float(first[-1])
    pmf[0] = max(0.0, 1.0 - infinity_mass - float(pmf[1:].sum()))
    return DiscretePLD(h=h, lo_index=j_lo, pmf=_freeze(pmf), infinity_mass=infinity_mass)


def auto_spacing(pairs) -> float:
    """Grid spacing so the widest pair needs about GRID_POINTS points."""
    span = 0.0
    for pair in pairs:
        if pair.degenerate:
            continue
        lo, hi = pair.loss_range
        span = max(span, hi - lo)
    if span <= 0.0:
        return 1e-4
    return span / (GRID_POINTS - 1)


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if min(a.size, b.size) <= _DIRECT_CONV_LIMIT:
        out = np.convolve(a, b)
    else:
        # Same transform sizes and calls as scipy.signal.fftconvolve, without
        # importing scipy.signal (most of this package's import time).
        size = a.size + b.size - 1
        n = next_fast_len(size, True)
        out = irfft(rfft(a, n) * rfft(b, n), n)[:size]
    return np.maximum(out, 0.0)


def compose(plds) -> DiscretePLD:
    """Convolution of independent discretized losses (grids must match).

    The pieces are paired level by level in a balanced tree, an odd one out
    carried up a level, so each convolution runs at about the length of its
    two operands rather than of a running result.
    """
    plds = list(plds)
    if not plds:
        raise ValueError("compose needs at least one distribution")
    h = plds[0].h
    if any(p.h != h for p in plds):
        raise ValueError("cannot compose distributions with different grid spacings")
    pmfs = [p.pmf for p in plds]
    while len(pmfs) > 1:
        pairs = [_convolve(a, b) for a, b in zip(pmfs[0::2], pmfs[1::2])]
        pmfs = pairs + pmfs[2 * len(pairs) :]
    pmf = pmfs[0]
    lo = sum(p.lo_index for p in plds)
    # 1 - prod(1 - m_i) in log space: each 1 - m_i would round m_i ~ 1e-15 by ~5%.
    log_keep = float(np.log1p(-np.array([p.infinity_mass for p in plds])).sum())
    infinity_mass = max(0.0, -math.expm1(log_keep))  # 0.0, not -0.0, when no atom
    return DiscretePLD(h=h, lo_index=lo, pmf=_freeze(pmf), infinity_mass=infinity_mass)


def compose_power(pld: DiscretePLD, n: int) -> DiscretePLD:
    """n-fold self-composition by binary exponentiation."""
    if n < 1:
        raise ValueError(f"composition count must be >= 1, got {n}")
    result = None
    base = pld
    while n:
        if n & 1:
            result = base if result is None else compose([result, base])
        n >>= 1
        if n:
            base = compose([base, base])
    return result


def delta_at(pld: DiscretePLD, epsilon: float) -> float:
    """Hockey-stick divergence of the discrete loss at e^epsilon."""
    losses = pld.losses()
    mask = losses > epsilon
    delta = float(pld.pmf[mask] @ -np.expm1(epsilon - losses[mask])) + pld.infinity_mass
    return min(1.0, max(0.0, delta))

