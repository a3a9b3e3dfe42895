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
prefix Gram matrix up to date, and bounds every component rank of every step,
batched over chunks of steps whose (step, rank, member, group) tensor fits a
constant budget of _HAZARD_CHUNK_ELEMENTS.  Per chunk, `_prepare_tails`
builds the sigma-free part of every problem at once (sorted prefix Grams,
variational members, KL and quadratic forms, reference rows merged into
groups of identical rows) and `_tail_bounds` evaluates it at sigma: closed
form for the add direction, one vectorized bisection over every remove
column, each returning its pessimistic (lower) end.

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
from scipy.special import expit, log_ndtr, ndtri, xlogy

from .mechanism import MixtureMeans, Schedule, StrategyMatrix, mixture_means
from . import pld
from .pld import ADD, REMOVE, MixGaussPair

# Squared-norm threshold below which two prefix means count as identical.
IDENTICAL_SQ_TOL = 1e-24
DEFAULT_TEMPERATURES = (math.inf, 0.1, 10.0**-0.5, 1.0, 10.0**0.5, 10.0)

STRATEGIES = ("union", "global-max", "hybrid")
_HAZARD_FLOOR = 1e-300
# Elements of the (step, rank, member, group) tensor bounded per chunk of steps.
_HAZARD_CHUNK_ELEMENTS = 2**15


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

    def __len__(self) -> int:
        return len(self.temperatures) + 1

    def members(self, sq_dists, candidates=None) -> np.ndarray:
        """Member distributions, shape (..., len(self), n), the prior first.

        sq_dists (..., n) holds each column's squared distance to the excluded
        component; candidates (broadcast against it, default all) marks the
        columns that are candidates, and the rest get weight zero.  Where no
        candidate is distinct from the excluded component, only the prior is
        a distribution and the other rows are zero: that loss is identically
        zero, and callers bound it by 0 without the family.
        """
        sq = np.asarray(sq_dists, dtype=float)
        cand = np.broadcast_to(True if candidates is None else candidates, sq.shape)
        distinct = cand & (sq > IDENTICAL_SQ_TOL)
        n_distinct = distinct.sum(axis=-1, keepdims=True)
        rows = [np.where(cand, 1.0 / cand.sum(axis=-1, keepdims=True), 0.0)]
        for t in self.temperatures:
            if math.isinf(t):
                rows.append(np.where(distinct, 1.0 / np.maximum(n_distinct, 1), 0.0))
            else:
                logits = np.where(distinct, -sq / t, -np.inf)
                top = np.where(n_distinct > 0, logits.max(axis=-1, keepdims=True), 0.0)
                shifted = np.exp(logits - top)
                total = np.maximum(shifted.sum(axis=-1, keepdims=True), np.finfo(float).tiny)
                rows.append(shifted / total)
        return np.stack(rows, axis=-2)


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


@dataclass(frozen=True)
class _TailProblems:
    """The sigma-free part of a batch of tail-bound problems, leading axes (S, R).

    Problem (s, r) excludes row e = excluded[r] of Gram grams[s]; rows before
    it are the candidates.  Its reference measure is N(0, sigma^2 I) (add:
    nu and log_w are None) or the uniform mixture over rows ref_start[r] and
    up (remove), whose identical whole Gram rows are merged into G groups.
    Per variational member psi: kl; a = h_ee - psi.diag; q = h_ee -
    2 psi.h_e + psi'H psi; and per group g, nu = h_g.psi - h_ge.  log_w is
    each group's log weight per rank, -inf where the group is empty there.
    """

    distinct: np.ndarray  # (S, R): some candidate differs from the excluded row
    kl: np.ndarray  # (S, R, P)
    a: np.ndarray  # (S, R, P)
    q: np.ndarray  # (S, R, P)
    nu: np.ndarray | None  # (S, R, P, G)
    log_w: np.ndarray | None  # (S, R, G)


def _prepare_tails(grams: np.ndarray, excluded: np.ndarray, ref_start=None) -> _TailProblems:
    """Build the sigma-free terms of every (Gram, excluded row) problem at once."""
    n = grams.shape[-1]
    cols = np.arange(n)
    cand = cols[None, :] < excluded[:, None]  # (R, n)
    diag = np.diagonal(grams, axis1=1, axis2=2)  # (S, n)
    hee = diag[:, excluded]  # (S, R)
    cross = grams[:, excluded, :]  # (S, R, n): row e of each Gram
    sq = diag[:, None, :] + hee[..., None] - 2.0 * cross
    psis = DEFAULT_FAMILY.members(sq, cand)  # (S, R, P, n)
    distinct = (cand & (sq > IDENTICAL_SQ_TOL)).any(axis=-1)
    kl = xlogy(psis, psis).sum(axis=-1) + np.log(excluded)[:, None]
    hee = hee[..., None]
    a = hee - (psis @ diag[:, None, :, None])[..., 0]
    quad = ((psis @ grams[:, None]) * psis).sum(axis=-1)
    q = hee - 2.0 * (psis @ cross[..., None])[..., 0] + quad
    if ref_start is None:
        return _TailProblems(distinct, kl, a, q, None, None)
    # Structured mechanisms repeat prefix rows heavily: merge identical whole
    # rows once per Gram, so each rank's mixture has one term per distinct
    # component.  A group's weight at a rank counts its rows from ref_start on.
    reps, counts = [], []
    for h in grams:
        _, first, inverse = np.unique(h, axis=0, return_index=True, return_inverse=True)
        member = inverse.reshape(-1)[:, None] == np.arange(first.size)
        from_row = np.cumsum(member[::-1], axis=0)[::-1]  # (n, G_s)
        reps.append(first)
        counts.append(from_row[ref_start])
    groups = max(r.size for r in reps)
    rep = np.zeros((grams.shape[0], groups), dtype=np.intp)
    count = np.zeros((grams.shape[0], excluded.size, groups))
    for s, (r, c) in enumerate(zip(reps, counts)):
        rep[s, : r.size] = r
        count[s, :, : r.size] = c
    share = count / (n - ref_start)[:, None]
    log_w = np.where(count > 0, np.log(np.where(count > 0, share, 1.0)), -np.inf)
    rows = np.take_along_axis(grams, rep[..., None], axis=1)  # (S, G, n)
    at_excluded = rows[:, :, excluded].transpose(0, 2, 1)  # (S, R, G)
    nu = psis @ rows.transpose(0, 2, 1)[:, None] - at_excluded[:, :, None, :]
    return _TailProblems(distinct, kl, a, q, nu, log_w)


def _mixture_lower_tails(nus, log_w, xi, log_beta) -> np.ndarray:
    """Largest tau per row with sum_g w_g Phi((tau - nu_g)/xi) <= beta.

    nus, log_w: (C, G) component means and log weights (-inf pads), xi and
    log_beta: (C,).  One vectorized bisection to 1e-12 absolute in tau,
    returning the lower end, whose CDF is below beta by construction.
    """
    live = log_w > -np.inf

    def log_cdf(tau):
        # Hand-rolled LSE: scipy's logsumexp call overhead dominates here.
        vals = log_ndtr((tau[:, None] - nus) / xi[:, None]) + log_w
        top = vals.max(axis=1)
        return top + np.log(np.exp(vals - top[:, None]).sum(axis=1))

    low_nu = np.where(live, nus, np.inf).min(axis=1)
    high_nu = np.where(live, nus, -np.inf).max(axis=1)
    lo = low_nu - 10.0 * xi
    hi = high_nu
    width = hi - lo
    for side in ("below", "above"):
        for _ in range(10):
            bad = log_cdf(lo) > log_beta if side == "below" else log_cdf(hi) < log_beta
            if not bad.any():
                break
            if side == "below":
                lo = np.where(bad, lo - width, lo)
            else:
                hi = np.where(bad, hi + width, hi)
            width = hi - lo
        else:
            raise RuntimeError(
                f"tail bisection could not bracket beta={math.exp(log_beta[bad].max())} {side} "
                f"(nu range [{low_nu.min()}, {high_nu.max()}], xi max {xi.max()})"
            )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        ge = log_cdf(mid) >= log_beta
        hi = np.where(ge, mid, hi)
        lo = np.where(ge, lo, mid)
        if np.max(hi - lo) <= 1e-12:
            break
    return lo


def _tail_bounds(problems: _TailProblems, sigma: float, betas: np.ndarray) -> np.ndarray:
    """(S, R) tails tau with Pr[L < tau] <= beta_s under each reference measure.

    Each member's variational lower bound on the loss is Gaussian (add) or a
    Gaussian mixture over the reference groups (remove) with scale
    xi = sqrt(q)/sigma; tau is the max over members of its beta-quantile:
    closed form for add and for a single group, bisected otherwise.
    """
    sig2 = sigma * sigma
    const = problems.a / (2.0 * sig2) - problems.kl
    xi = np.sqrt(np.maximum(problems.q / sig2, 0.0))
    betas = betas[:, None, None]
    if problems.nu is None:
        taus = np.where(xi > 0.0, const + xi * ndtri(betas), const)
    else:
        nus = problems.nu / sig2 + const[..., None]
        log_w = np.broadcast_to(problems.log_w[:, :, None, :], nus.shape)
        live = log_w > -np.inf
        log_beta = np.broadcast_to(np.log(betas), xi.shape)
        # Zero scale: the loss bound is a point mass at each group's nu.
        taus = np.where(live, nus, np.inf).min(axis=-1)
        # One reference group: invert the Gaussian CDF directly.
        single = (live.sum(axis=-1) == 1) & (xi > 0.0)
        nu1 = np.where(live, nus, -np.inf).max(axis=-1)[single]
        lw1 = log_w.max(axis=-1)[single]
        taus[single] = nu1 + xi[single] * ndtri(np.exp(log_beta[single] - lw1))
        active = (xi > 0.0) & ~single & problems.distinct[..., None]
        if active.any():
            taus[active] = _mixture_lower_tails(
                nus[active], log_w[active], xi[active], log_beta[active]
            )
    # Every candidate coincides with the excluded component: L == 0.
    return np.where(problems.distinct, taus.max(axis=-1), 0.0)


def _tail_bound(h: np.ndarray, i: int, ref_start, sigma: float, beta: float) -> float:
    """One problem on Gram h: candidates rows 0..i-1, excluded row i."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    problems = _prepare_tails(
        h[None], np.array([i]), None if ref_start is None else np.array([ref_start])
    )
    return float(_tail_bounds(problems, sigma, np.array([beta]))[0, 0])


def tail_bound_add(mu_list, mu_i, sigma: float, beta: float) -> float:
    """Analytic lower tail bound for the ternary loss under R = N(0, sigma^2 I)."""
    mus = [np.asarray(m, dtype=float) for m in mu_list]
    if not mus:
        raise ValueError("need at least one candidate component")
    v = np.vstack(mus + [np.asarray(mu_i, dtype=float)])
    return _tail_bound(v @ v.T, len(mus), None, sigma, beta)


def tail_bound_remove(mu_list, mu_i, tail_means, sigma: float, beta: float) -> float:
    """Bisected lower tail bound under the uniform tail mixture R = avg_k N(mu_k, sigma^2 I)."""
    mus = [np.asarray(m, dtype=float) for m in mu_list]
    tails = [np.asarray(m, dtype=float) for m in tail_means]
    if not mus:
        raise ValueError("need at least one candidate component")
    if not tails:
        raise ValueError("the reference mixture needs at least one component")
    v = np.vstack(mus + [np.asarray(mu_i, dtype=float)] + tails)
    return _tail_bound(v @ v.T, len(mus), len(mus) + 1, sigma, beta)


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
    rather than recomputed from the raw prefixes.  Steps are bounded in
    chunks sized to _HAZARD_CHUNK_ELEMENTS of the (step, rank, member, group)
    tensor: one sigma-free preparation and one tail evaluation per chunk.
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
    ranks = np.arange(1, b)  # candidates per bound; the excluded row's index
    ref_start = ranks if direction == REMOVE else None
    per_chunk = max(1, _HAZARD_CHUNK_ELEMENTS // ((b - 1) * len(DEFAULT_FAMILY) * b))
    gram_prefix = np.zeros((b, b))
    for start in range(0, n_total, per_chunk):
        stop = min(start + per_chunk, n_total)
        grams = np.empty((stop - start, b, b))
        for s, n in enumerate(range(start, stop)):
            scalars = m[:, n]
            order = np.argsort(scalars, kind="stable")
            grams[s] = gram_prefix[np.ix_(order, order)]
            gram_prefix += np.outer(scalars, scalars)
        taus = _tail_bounds(_prepare_tails(grams, ranks, ref_start), sigma, betas[start:stop])
        lam[start:stop, 1:] = expit(-np.log(ranks) - taus)
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
    # The spacing and each grid read the same pair objects, so each distinct
    # pair's cached loss range is computed once.
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
