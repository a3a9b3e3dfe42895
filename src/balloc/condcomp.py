"""Conditional-composition accountant with variational tail bounds.

Each step of the correlated mechanism is covered by a fixed univariate pair
(mixture of Gaussians at the step's scalar means vs N(0, sigma)) whose mixture
weights come from upper bounds on the reverse hazard function of the batch
posterior.  A hazard bound at component i follows from a lower tail bound on a
ternary privacy loss: mixture of the i-1 smaller prefixes vs the i-th prefix,
sampled under a reference measure that depends on the adjacency direction.
Tail bounds use variational (ELBO) lower bounds on the mixture loss, which are
Gaussian (or mixtures of Gaussians) with closed-form parameters.

`step_hazards` is the one hazard engine: it walks the steps once, keeping the
prefix Gram matrix up to date, and bounds every component rank of every step.
The delta_E failure budget is split by `AllocationPlan.blocks`, one table of
(first step, last step, significance) per shared hazard vector for the chosen
strategy; `apply_sharing` takes the componentwise max within each block, and
the resulting per-step pairs compose through the PLD engine.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_ndtr, ndtri, softmax

from .mechanism import MixtureMeans, Schedule, StrategyMatrix, mixture_means
from . import pld
from .pld import ADD, REMOVE, MixGaussPair

# Squared-norm threshold below which two prefix means count as identical.
IDENTICAL_SQ_TOL = 1e-24
DEFAULT_TEMPERATURES = (math.inf, 0.1, 10.0**-0.5, 1.0, 10.0**0.5, 10.0)

STRATEGIES = ("union", "global-max", "hybrid")
_HAZARD_FLOOR = 1e-300


@dataclass(frozen=True)
class VariationalFamily:
    """Softmax-by-distance variational distributions over mixture components.

    Member at temperature t puts weight proportional to exp(-d_j / t) on
    candidate j, where d_j is the squared distance to the excluded component;
    t = inf is the uniform distribution over non-identical candidates.  In
    these members, candidates identical to the excluded component get weight
    zero (their log-ratio is identically zero and would drag the bound toward
    it), paid for through the KL term because the prior stays uniform over all
    candidates.  The family always also contains the prior itself (uniform
    over every candidate, KL = 0): when nearly all candidates coincide with
    the excluded component the exclusion penalty log(i-1) is ruinous and the
    plain geometric mean is by far the tighter bound.  Every member is a valid
    distribution on the candidates, so max over members stays sound.
    """

    temperatures: tuple = DEFAULT_TEMPERATURES

    def members(self, sq_dists: np.ndarray) -> np.ndarray:
        """Rows are distributions over the candidates; empty if all identical."""
        sq_dists = np.asarray(sq_dists, dtype=float)
        mask = sq_dists > IDENTICAL_SQ_TOL
        if not mask.any():
            return np.zeros((0, sq_dists.size))
        rows = [np.full(sq_dists.size, 1.0 / sq_dists.size)]
        for t in self.temperatures:
            if math.isinf(t):
                rows.append(mask / mask.sum())
            else:
                logits = np.where(mask, -sq_dists / t, -np.inf)
                rows.append(softmax(logits))
        return np.array(rows)


DEFAULT_FAMILY = VariationalFamily()


def reverse_hazard_weights(lambdas) -> np.ndarray:
    """Mixture weights from reverse-hazard bounds: w_i = l_i * prod_{j>i}(1-l_j)."""
    lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
    if lam.ndim != 1 or lam.size < 1:
        raise ValueError("hazard vector must be non-empty and one-dimensional")
    if np.any(lam <= 0.0) or np.any(lam > 1.0):
        raise ValueError("reverse hazards must lie in (0, 1]")
    if lam[0] != 1.0:
        raise ValueError("the smallest component's hazard must be 1")
    rev = np.cumprod((1.0 - lam)[::-1])[::-1]
    suffix = np.concatenate([rev[1:], [1.0]])
    return lam * suffix


def hazard_from_tail(i: int, tau: float) -> float:
    """Reverse-hazard bound sigmoid(-log(i-1) - tau) for component rank i >= 2."""
    if i < 2:
        raise ValueError(f"component rank must be >= 2, got {i}")
    return float(expit(-math.log(i - 1) - tau))


@dataclass(frozen=True)
class AllocationPlan:
    """How the delta_E failure budget is split across steps and components.

    union:      every (step, component) bound gets delta_E / (N*(b-1)).
    global-max: one shared bound per component across all steps, significance
                delta_E / (b-1); the coarsest budget ledger of the three, so
                account output flags it ("as-published").
    hybrid:     first epoch as union with delta_E / (N*(b-1)); every later
                epoch shares per-component bounds at delta_E / (k*(b-1)),
                taking the componentwise max of the per-step hazards.
    """

    schedule: Schedule
    delta_e: float
    strategy: str

    def __post_init__(self):
        if not 0.0 < self.delta_e < 1.0:
            raise ValueError(f"delta_e must lie in (0, 1), got {self.delta_e}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")

    def blocks(self) -> list[tuple[int, int, float]]:
        """(first step, last step, beta) per shared hazard vector, steps 1-based.

        Each block holds b-1 bounds (component ranks 2..b) at significance
        beta, so sum over blocks of (b-1)*beta is delta_E.  Empty when b = 1:
        one batch carries no mixture uncertainty and no bounds.
        """
        b = self.schedule.batches_per_epoch
        k = self.schedule.epochs
        n_total = self.schedule.iterations
        if b == 1:
            return []
        if self.strategy == "union":
            beta = self.delta_e / (n_total * (b - 1))
            return [(n, n, beta) for n in range(1, n_total + 1)]
        if self.strategy == "global-max":
            return [(1, n_total, self.delta_e / (b - 1))]
        first = self.delta_e / (n_total * (b - 1))
        later = self.delta_e / (k * (b - 1))
        return [(n, n, first) for n in range(1, b + 1)] + [
            (e * b + 1, (e + 1) * b, later) for e in range(1, k)
        ]


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
    psis = DEFAULT_FAMILY.members(sq_dists)
    if psis.shape[0] == 0:
        # Every candidate coincides with the excluded component: L == 0.
        return 0.0
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


def tail_bound_add(mu_list, mu_i, sigma: float, beta: float) -> float:
    """Analytic lower tail bound for the ternary loss under R = N(0, sigma^2 I)."""
    mus = [np.asarray(m, dtype=float) for m in mu_list]
    if not mus:
        raise ValueError("need at least one candidate component")
    v = np.vstack(mus + [np.asarray(mu_i, dtype=float)])
    return _tau_core(v @ v.T, len(mus), None, sigma, beta)


def tail_bound_remove(mu_list, mu_i, tail_means, sigma: float, beta: float) -> float:
    """Bisected lower tail bound under the uniform tail mixture R = avg_k N(mu_k, sigma^2 I)."""
    mus = [np.asarray(m, dtype=float) for m in mu_list]
    tails = [np.asarray(m, dtype=float) for m in tail_means]
    if not mus:
        raise ValueError("need at least one candidate component")
    if not tails:
        raise ValueError("the reference mixture needs at least one component")
    v = np.vstack(mus + [np.asarray(mu_i, dtype=float)] + tails)
    i = len(mus)
    ref = np.arange(i + 1, i + 1 + len(tails))
    return _tau_core(v @ v.T, i, ref, sigma, beta)


def step_hazards(
    means: MixtureMeans,
    sigma: float,
    plan: AllocationPlan,
    direction: str,
) -> np.ndarray:
    """Per-step hazard bounds, (N, b), before any cross-step sharing.

    Column i-1 bounds the reverse hazard of the i-th smallest component at
    that step, at the significance of the step's block in the plan.  Prefix
    inner products are maintained incrementally (one rank-1 update per step)
    rather than recomputed from the raw prefixes.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if direction not in (REMOVE, ADD):
        raise ValueError(f"direction must be 'remove' or 'add', got {direction!r}")
    m = means.means
    b, n_total = m.shape
    lam = np.ones((n_total, b))
    if b == 1:
        return lam
    betas = np.empty(n_total)
    for first, last, beta in plan.blocks():
        betas[first - 1 : last] = beta
    gram_prefix = np.zeros((b, b))
    for n in range(n_total):
        scalars = m[:, n]
        order = np.argsort(scalars, kind="stable")
        h_sorted = gram_prefix[np.ix_(order, order)]
        for i in range(1, b):
            ref = np.arange(i, b) if direction == REMOVE else None
            tau = _tau_core(h_sorted, i, ref, sigma, float(betas[n]))
            lam[n, i] = hazard_from_tail(i + 1, tau)
        gram_prefix += np.outer(scalars, scalars)
    return np.clip(lam, _HAZARD_FLOOR, 1.0)


def apply_sharing(hazards: np.ndarray, plan: AllocationPlan) -> np.ndarray:
    """Componentwise max of hazards within each of the plan's shared blocks."""
    out = np.array(hazards)
    for first, last, _ in plan.blocks():
        out[first - 1 : last] = out[first - 1 : last].max(axis=0)
    return out


def _compose_steps(pairs, grid_spacing):
    keys = [pair.key() for pair in pairs]
    counts = Counter(keys)
    distinct = dict(zip(keys, pairs))
    h = grid_spacing if grid_spacing is not None else pld.auto_spacing(distinct.values())
    return pld.compose(
        pld.compose_power(pld.discretize(distinct[key], h), count)
        for key, count in counts.items()
    )


def cond_comp_pld(
    strategy: StrategyMatrix,
    schedule: Schedule,
    sigma: float,
    delta_e: float,
    allocation: str = "hybrid",
    grid_spacing: float | None = None,
) -> dict:
    """Composed per-direction privacy-loss distributions for the whole run."""
    plan = AllocationPlan(schedule, delta_e, allocation)
    means = mixture_means(strategy, schedule)
    out = {}
    for direction in (REMOVE, ADD):
        lam = apply_sharing(step_hazards(means, sigma, plan, direction), plan)
        pairs = [
            MixGaussPair(
                np.sort(means.means[:, n]), reverse_hazard_weights(lam[n]), sigma, direction
            )
            for n in range(schedule.iterations)
        ]
        out[direction] = _compose_steps(pairs, grid_spacing)
    return out


def cond_comp_account(
    strategy: StrategyMatrix,
    schedule: Schedule,
    sigma: float,
    epsilon: float,
    delta_e: float,
    allocation: str = "hybrid",
    grid_spacing: float | None = None,
) -> tuple[float, dict]:
    """(delta, per-direction composed delta) at epsilon; delta adds delta_e.

    The zero mechanism's pair is identical: no privacy loss and no bad event,
    so its delta is the identical-pair one (after the inputs are validated).
    """
    composed = cond_comp_pld(
        strategy, schedule, sigma, delta_e, allocation, grid_spacing=grid_spacing
    )
    if not mixture_means(strategy, schedule).means.any():
        delta = pld.identical_pair_delta(epsilon)
        return delta, {REMOVE: delta, ADD: delta}
    per_direction = {d: pld.delta_at(composed[d], epsilon) for d in (REMOVE, ADD)}
    return min(1.0, max(per_direction.values()) + delta_e), per_direction
