"""Monte Carlo estimation of hockey-stick divergences and tail exceedances.

Validation oracle for the deterministic accountants.  The dominating-pair
privacy loss depends on the sampled point only through its inner products with
the b mixture means, so sampling happens in that b-dimensional Gram space
(identical in distribution to drawing the full N-dimensional Gaussians).
Estimates use a counter-based generator (Philox) so a seed pins them exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, ndtri

from .mechanism import MixtureMeans, gram
from .pld import ADD, REMOVE

_CHUNK = 1 << 15


@dataclass(frozen=True)
class MCEstimate:
    """Point estimate with normal-approximation and Hoeffding intervals."""

    point_estimate: float
    ci_low: float
    ci_high: float
    hoeffding_low: float
    hoeffding_high: float
    n_samples: int
    confidence: float
    seed: int


@dataclass(frozen=True)
class TernaryLoss:
    """Loss log(dP/dQ) evaluated under a third measure R (all Gaussian mixtures)."""

    numerator_means: np.ndarray  # (num_components, dim)
    denominator_mean: np.ndarray  # (dim,)
    reference_means: np.ndarray  # (ref_components, dim)
    sigma: float


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _psd_factor(g: np.ndarray) -> np.ndarray:
    """A with A @ A.T = G, robust to semidefinite G."""
    try:
        return np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(g)
        return vecs * np.sqrt(np.maximum(vals, 0.0))


def _summarize(values: np.ndarray, confidence: float, seed: int) -> MCEstimate:
    n = values.size
    point = float(values.mean())
    se = float(values.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    z = float(ndtri(0.5 + confidence / 2.0))
    hoeff = math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n))
    clip = lambda x: min(1.0, max(0.0, x))
    return MCEstimate(
        point_estimate=clip(point),
        ci_low=clip(point - z * se),
        ci_high=clip(point + z * se),
        hoeffding_low=clip(point - hoeff),
        hoeffding_high=clip(point + hoeff),
        n_samples=n,
        confidence=confidence,
        seed=seed,
    )


def mc_loss_samples(
    means: MixtureMeans, sigma: float, direction: str, n_samples: int, seed: int
) -> np.ndarray:
    """Samples of the privacy loss of the dominating pair, under its first element.

    remove: x ~ mixture, loss = log(dP/dQ)(x); add: x ~ N(0, sigma^2 I),
    loss = log(dQ/dP)(x) = -log(dP/dQ)(x).  Reduced to the Gram inner
    products: under component i the projections <x, m_j> are N(G_i., sigma^2 G).
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if direction not in (REMOVE, ADD):
        raise ValueError(f"direction must be 'remove' or 'add', got {direction!r}")
    if n_samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {n_samples}")
    g = gram(means)
    b = g.shape[0]
    factor = _psd_factor(g)
    offset = np.diag(g) / (2.0 * sigma**2)
    rng = _rng(seed)
    out = np.empty(n_samples)
    pos = 0
    while pos < n_samples:
        m = min(_CHUNK, n_samples - pos)
        u = rng.standard_normal((m, b)) @ factor.T
        if direction == REMOVE:
            comp = rng.integers(0, b, size=m)
            y = g[comp] / sigma**2 + u / sigma
        else:
            y = u / sigma
        log_ratio = logsumexp(y - offset[None, :], axis=1) - math.log(b)
        out[pos : pos + m] = log_ratio if direction == REMOVE else -log_ratio
        pos += m
    return out


def mc_delta_from_samples(losses: np.ndarray, epsilon: float, confidence: float, seed: int) -> MCEstimate:
    values = np.maximum(-np.expm1(np.minimum(epsilon - losses, 0.0)), 0.0)
    return _summarize(values, confidence, seed)


def mc_delta(
    means: MixtureMeans,
    sigma: float,
    epsilon: float,
    direction: str,
    n_samples: int,
    confidence: float = 0.95,
    seed: int = 0,
) -> MCEstimate:
    """Hockey-stick divergence estimate E[max(1 - e^(eps - L), 0)] with CIs."""
    losses = mc_loss_samples(means, sigma, direction, n_samples, seed)
    return mc_delta_from_samples(losses, epsilon, confidence, seed)


def ternary_loss_samples(loss: TernaryLoss, n_samples: int, seed: int) -> np.ndarray:
    """Samples of log(dP/dQ)(x) with x ~ R, all measures spherical Gaussians."""
    num = np.atleast_2d(np.asarray(loss.numerator_means, dtype=float))
    den = np.asarray(loss.denominator_mean, dtype=float)
    ref = np.atleast_2d(np.asarray(loss.reference_means, dtype=float))
    sigma = loss.sigma
    dim = den.size
    if dim == 0:
        return np.zeros(n_samples)
    rng = _rng(seed)
    out = np.empty(n_samples)
    pos = 0
    while pos < n_samples:
        m = min(_CHUNK, n_samples - pos)
        comp = rng.integers(0, ref.shape[0], size=m)
        x = ref[comp] + sigma * rng.standard_normal((m, dim))
        d_num = ((x[:, None, :] - num[None, :, :]) ** 2).sum(axis=2)
        d_den = ((x - den[None, :]) ** 2).sum(axis=1)
        out[pos : pos + m] = (
            logsumexp(-d_num / (2.0 * sigma**2), axis=1)
            - math.log(num.shape[0])
            + d_den / (2.0 * sigma**2)
        )
        pos += m
    return out


def mc_exceedance(loss: TernaryLoss, tau: float, n_samples: int, seed: int) -> float:
    """Empirical frequency of {L < tau} under the reference measure."""
    if n_samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {n_samples}")
    if math.isinf(tau):
        return 0.0 if tau < 0 else 1.0
    samples = ternary_loss_samples(loss, n_samples, seed)
    return float(np.mean(samples < tau))
