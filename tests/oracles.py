"""Shared independent oracles used across test modules."""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import expit, log_ndtr, logsumexp, ndtri
from scipy.stats import norm

from balloc import mc
from balloc.calibrate import SIGMA_MAX, SIGMA_MIN, UnachievableTargetError
from balloc.condcomp import DEFAULT_FAMILY, IDENTICAL_SQ_TOL, _prepare_tails, _tail_bounds
from balloc.mechanism import gram
from balloc.pld import (
    ADD,
    DIRECTIONS,
    REMOVE,
    DiscretePLD,
    _delta_terms,
    _mix_loss,
    identical_pair_delta,
)
from balloc.renyi import _check_alpha


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


def smallest_sigma_bisection(delta_fn, delta_target: float, tol: float) -> float:
    """Reference calibration search: doubling from 0.25, then geometric bisection.

    Same contract as `calibrate.smallest_sigma`: the returned sigma meets the
    target and sigma / (1 + tol) does not, for delta_fn non-increasing.
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


def hockey_stick_grid(pair, epsilons) -> np.ndarray:
    """Exact hockey-stick divergence of a non-degenerate pair at each epsilon."""
    first, second = _delta_terms(pair, np.asarray(epsilons, dtype=float))
    return np.clip(first - second, 0.0, 1.0)


def hockey_stick(pair, epsilon: float) -> float:
    """Exact hockey-stick divergence of the pair at e^epsilon."""
    if pair.degenerate:
        return identical_pair_delta(epsilon)
    return float(hockey_stick_grid(pair, [epsilon])[0])


def mix_loss_inverse_bisection(pair, ell) -> np.ndarray:
    """Solve _mix_loss(y) = ell for y by vectorized bisection to 1e-13 * sigma.

    Values of ell at or below the loss infimum map to the effectively -inf
    threshold -64 sigma - max mean (every Gaussian tail evaluates to 0 there).
    """
    ell = np.atleast_1d(np.asarray(ell, dtype=float))
    sigma = pair.sigma
    m_max = pair.means[-1]
    w_max = pair.weights[-1]
    lo = np.full(ell.shape, -64.0 * sigma - m_max)
    # L(y) >= log(w_max) + (2 m_max y - m_max^2)/(2 s^2): solve for a sure upper end.
    hi = (sigma**2 * (ell - math.log(w_max)) + m_max**2 / 2.0) / m_max
    hi = np.maximum(hi, lo + sigma)
    tol = 1e-13 * sigma
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        high = _mix_loss(pair, mid) >= ell
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
        if np.max(hi - lo) < tol:
            break
    return 0.5 * (lo + hi)


def compose_direct(plds) -> DiscretePLD:
    """Composition as a left fold of direct `np.convolve`, with no FFT.

    Every entry is a sum of non-negative products, so nothing cancels: the
    reference for the engine's FFT rounding.  The infinity atom composes as
    1 - prod(1 - m_i).
    """
    plds = list(plds)
    pmf = plds[0].pmf
    for p in plds[1:]:
        pmf = np.convolve(pmf, p.pmf)
    keep = math.prod(1.0 - p.infinity_mass for p in plds)
    return DiscretePLD(
        h=plds[0].h,
        lo_index=sum(p.lo_index for p in plds),
        pmf=pmf,
        infinity_mass=1.0 - keep,
    )


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


def _mixture_lower_quantiles(nus: np.ndarray, log_w: np.ndarray, xi: np.ndarray, beta: float) -> np.ndarray:
    """Largest tau per column with sum_k w_k Phi((tau - nu_k)/xi) <= beta.

    nus: (K, P) component means, log_w: (K,) log weights, xi: (P,) shared
    standard deviations (all positive).  Bisection to 1e-12 absolute in tau,
    returning the lower end (pessimistic).
    """
    log_beta = math.log(beta)
    if nus.shape[0] == 1:
        # Single component: invert the Gaussian CDF directly.
        return nus[0] + xi * ndtri(math.exp(log_beta - log_w[0]))

    def log_cdf(tau):
        # Hand-rolled LSE: scipy's logsumexp call overhead dominates here.
        vals = log_ndtr((tau[None, :] - nus) / xi[None, :]) + log_w[:, None]
        top = vals.max(axis=0)
        return top + np.log(np.exp(vals - top[None, :]).sum(axis=0))

    lo = nus.min(axis=0) - 10.0 * xi
    hi = nus.max(axis=0)
    width = hi - lo
    for _ in range(10):
        bad = log_cdf(lo) > log_beta
        if not bad.any():
            break
        lo = np.where(bad, lo - width, lo)
        width = hi - lo
    else:
        raise RuntimeError(
            f"tail bisection could not bracket beta={beta} below "
            f"(nu range [{nus.min()}, {nus.max()}], xi max {xi.max()})"
        )
    for _ in range(10):
        bad = log_cdf(hi) < log_beta
        if not bad.any():
            break
        hi = np.where(bad, hi + width, hi)
        width = hi - lo
    else:
        raise RuntimeError(
            f"tail bisection could not bracket beta={beta} above "
            f"(nu range [{nus.min()}, {nus.max()}], xi max {xi.max()})"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        ge = log_cdf(mid) >= log_beta
        hi = np.where(ge, mid, hi)
        lo = np.where(ge, lo, mid)
        if np.max(hi - lo) <= 1e-12:
            break
    return lo


def _tau_core(h: np.ndarray, i: int, ref_rows, sigma: float, beta: float) -> float:
    """Tail bound tau with Pr[L < tau] <= beta under the reference measure.

    h is a Gram matrix of prefix vectors laid out so rows 0..i-1 are the
    mixture candidates and row i is the excluded component.  ref_rows indexes
    the reference mixture's component means within h (None means the zero
    vector, i.e. the add direction); the mixture uses uniform weights.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if i < 1:
        raise ValueError("need at least one candidate component")
    sig2 = sigma * sigma
    hii = h[i, i]
    diag = np.diag(h)[:i]
    sq_dists = diag + hii - 2.0 * h[i, :i]
    if not (sq_dists > IDENTICAL_SQ_TOL).any():
        # Every candidate coincides with the excluded component: L == 0.
        return 0.0
    psis = DEFAULT_FAMILY.members(sq_dists)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(psis > 0.0, psis * np.log(np.where(psis > 0.0, psis, 1.0)), 0.0)
    kl = plogp.sum(axis=1) + math.log(i)
    const = (hii - psis @ diag) / (2.0 * sig2) - kl
    quad = np.einsum("pi,ij,pj->p", psis, h[:i, :i], psis)
    xi = np.sqrt(np.maximum((hii - 2.0 * psis @ h[i, :i] + quad) / sig2, 0.0))

    if ref_rows is None:
        taus = np.where(xi > 0.0, const + xi * ndtri(beta), const)
        return float(taus.max())

    ref_rows = np.asarray(ref_rows, dtype=np.intp)
    rows = np.ascontiguousarray(
        np.column_stack([h[np.ix_(ref_rows, np.arange(i))], h[ref_rows, i]])
    )
    # Structured mechanisms repeat prefix rows heavily; dedupe before the
    # quantile search so its mixture has one term per distinct component.
    index: dict[bytes, int] = {}
    reps: list[int] = []
    counts: list[int] = []
    for k in range(rows.shape[0]):
        key = rows[k].tobytes()
        at = index.get(key)
        if at is None:
            index[key] = len(reps)
            reps.append(k)
            counts.append(1)
        else:
            counts[at] += 1
    uniq = rows[reps]
    log_w = np.log(np.array(counts, dtype=float) / rows.shape[0])
    nus = (uniq[:, :i] @ psis.T - uniq[:, i][:, None]) / sig2 + const[None, :]

    taus = np.empty(psis.shape[0])
    degenerate = xi <= 0.0
    if degenerate.any():
        taus[degenerate] = nus[:, degenerate].min(axis=0)
    active = ~degenerate
    if active.any():
        taus[active] = _mixture_lower_quantiles(nus[:, active], log_w, xi[active], beta)
    return float(taus.max())


def hazard_from_tail(i: int, tau: float) -> float:
    """Reverse-hazard bound sigmoid(-log(i-1) - tau) for component rank i >= 2."""
    if i < 2:
        raise ValueError(f"component rank must be >= 2, got {i}")
    return float(expit(-math.log(i - 1) - tau))


def single_step_hazards(means, n: int, sigma: float, plan, direction: str) -> np.ndarray:
    """Hazard bounds of step n alone, its prefix Gram formed from the raw prefixes.

    Each (step, rank) bound is one scalar `_tau_core` call, with its own
    bisection: the problem-at-a-time reference for the batched engine.

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


BRUTEFORCE_TUPLE_LIMIT = 10**7


def renyi_remove_bruteforce(g, sigma: float, alpha: int, b: int | None = None) -> float:
    """Remove-direction divergence by enumerating all b^alpha ordered tuples.

    Independent oracle for the dynamic program; guarded because the tuple
    count explodes.
    """
    g = np.asarray(g, dtype=float)
    alpha = _check_alpha(alpha)
    if b is None:
        b = g.shape[0]
    if b != g.shape[0]:
        raise ValueError(f"b={b} does not match gram shape {g.shape}")
    if b**alpha > BRUTEFORCE_TUPLE_LIMIT:
        raise ValueError(f"b^alpha = {b**alpha} exceeds the enumeration guard")
    inv = 1.0 / (2.0 * sigma**2)
    exponents = np.empty(b**alpha)
    chunk = 1 << 14
    tuples = itertools.product(range(b), repeat=alpha)
    pos = 0
    while True:
        block = np.array(list(itertools.islice(tuples, chunk)), dtype=np.intp)
        if block.size == 0:
            break
        sub = g[block[:, :, None], block[:, None, :]]
        tot = sub.sum(axis=(1, 2)) - sub[:, np.arange(alpha), np.arange(alpha)].sum(axis=1)
        exponents[pos : pos + block.shape[0]] = tot * inv
        pos += block.shape[0]
    return float((logsumexp(exponents) - alpha * math.log(b)) / (alpha - 1))


def _tail_bound(h: np.ndarray, i: int, ref_start: int, sigma: float, beta: float, direction):
    """One problem on Gram h: candidates rows 0..i-1, excluded row i."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    problems = _prepare_tails(h[None], np.array([i]), np.array([ref_start]))
    taus = _tail_bounds(problems, sigma, np.array([beta]))[0]
    return float(taus[DIRECTIONS.index(direction)])


def tail_bound_add(mu_list, mu_i, sigma: float, beta: float) -> float:
    """Analytic lower tail bound for the ternary loss under R = N(0, sigma^2 I)."""
    mus = [np.asarray(m, dtype=float) for m in mu_list]
    if not mus:
        raise ValueError("need at least one candidate component")
    v = np.vstack(mus + [np.asarray(mu_i, dtype=float)])
    # The remove reference rows are immaterial here: row i alone will do.
    return _tail_bound(v @ v.T, len(mus), len(mus), sigma, beta, ADD)


def tail_bound_remove(mu_list, mu_i, tail_means, sigma: float, beta: float) -> float:
    """Bisected lower tail bound under the uniform tail mixture R = avg_k N(mu_k, sigma^2 I)."""
    mus = [np.asarray(m, dtype=float) for m in mu_list]
    tails = [np.asarray(m, dtype=float) for m in tail_means]
    if not mus:
        raise ValueError("need at least one candidate component")
    if not tails:
        raise ValueError("the reference mixture needs at least one component")
    v = np.vstack(mus + [np.asarray(mu_i, dtype=float)] + tails)
    return _tail_bound(v @ v.T, len(mus), len(mus) + 1, sigma, beta, REMOVE)


def mc_loss_samples_logsumexp(means, sigma, direction, n_samples, seed) -> np.ndarray:
    """`mc.mc_loss_samples` with scipy's logsumexp: the same Philox draws in
    the same order, reduced by the library log-sum-exp."""
    g = gram(means)
    b = g.shape[0]
    factor = mc._psd_factor(g)
    offset = np.diag(g) / (2.0 * sigma**2)
    rng = np.random.Generator(np.random.Philox(seed))
    out = np.empty(n_samples)
    for pos in range(0, n_samples, mc._CHUNK):
        m = min(mc._CHUNK, n_samples - pos)
        u = rng.standard_normal((m, b)) @ factor.T
        if direction == "remove":
            y = g[rng.integers(0, b, size=m)] / sigma**2 + u / sigma
        else:
            y = u / sigma
        log_ratio = logsumexp(y - offset[None, :], axis=1) - math.log(b)
        out[pos : pos + m] = log_ratio if direction == "remove" else -log_ratio
    return out


def mc_delta(means, sigma, epsilon, direction, n_samples, confidence=0.95, seed=0):
    """Hockey-stick divergence estimate E[max(1 - e^(eps - L), 0)] with CIs."""
    losses = mc.mc_loss_samples(means, sigma, direction, n_samples, seed)
    return mc.mc_delta_from_samples(losses, epsilon, confidence, seed)


@dataclass(frozen=True)
class TernaryLoss:
    """Loss log(dP/dQ) evaluated under a third measure R (all Gaussian mixtures)."""

    numerator_means: np.ndarray  # (num_components, dim)
    denominator_mean: np.ndarray  # (dim,)
    reference_means: np.ndarray  # (ref_components, dim)
    sigma: float


def ternary_loss_samples(loss: TernaryLoss, n_samples: int, seed: int) -> np.ndarray:
    """Samples of log(dP/dQ)(x) with x ~ R, all measures spherical Gaussians."""
    num = np.atleast_2d(np.asarray(loss.numerator_means, dtype=float))
    den = np.asarray(loss.denominator_mean, dtype=float)
    ref = np.atleast_2d(np.asarray(loss.reference_means, dtype=float))
    sigma = loss.sigma
    dim = den.size
    if dim == 0:
        return np.zeros(n_samples)
    rng = np.random.Generator(np.random.Philox(seed))
    out = np.empty(n_samples)
    pos = 0
    while pos < n_samples:
        m = min(mc._CHUNK, n_samples - pos)
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
