"""Monte Carlo estimation of hockey-stick divergences.

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
from scipy.special import ndtri

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
        # Hand-rolled LSE: scipy's logsumexp call overhead dominates here.
        z = y - offset[None, :]
        top = z.max(axis=1)
        log_ratio = top + np.log(np.exp(z - top[:, None]).sum(axis=1)) - math.log(b)
        out[pos : pos + m] = log_ratio if direction == REMOVE else -log_ratio
        pos += m
    return out


def mc_delta_from_samples(losses: np.ndarray, epsilon: float, confidence: float, seed: int) -> MCEstimate:
    values = np.maximum(-np.expm1(np.minimum(epsilon - losses, 0.0)), 0.0)
    return _summarize(values, confidence, seed)
