"""Conditional-composition accountant with variational tail bounds.

Each step of the correlated mechanism is covered by a fixed univariate pair
(mixture of Gaussians at the step's scalar means vs N(0, sigma)) whose mixture
weights come from upper bounds on the reverse hazard function of the batch
posterior.  A hazard bound at component i follows from a lower tail bound on a
ternary privacy loss: mixture of the i-1 smaller prefixes vs the i-th prefix,
sampled under a reference measure that depends on the adjacency direction.
Tail bounds use variational (ELBO) lower bounds on the mixture loss, which are
Gaussian (or mixtures of Gaussians) with closed-form parameters.

Which hazards a pair reads.  Sort a step's scalar means m_1 <= ... <= m_b and
let t be the size of the lowest tie group (m_1 = ... = m_t, compared exactly).
The conditional-composition theorem covers the step by the pair when,
outside the bad event, the posterior's mixing law over the means is
stochastically dominated by the pair's: Pr[mean >= x] no larger at every
x.  Both laws live on the distinct levels of the means, so that is one
inequality per level, on the tail mass T_i = sum_{j>=i} w_j at the level's
first rank i.  With w_i = l_i prod_{j>i} (1 - l_j) and l_1 = 1 the head
telescopes, sum_{j<i} w_j = prod_{j>=i} (1 - l_j), so T_i = 1 - prod_{j>=i}
(1 - l_j) reads the hazards at ranks i and up only, and bounding each of
them from above raises T_i.  The lowest level has T_1 = 1 whatever the
hazards, and every higher level starts above rank t: the hazards at ranks
2..t are never read.  `step_hazards` leaves them at exactly _HAZARD_FLOOR,
and MixGaussPair's merge of equal means folds their vanishing weights into
the lowest level, whose weight is then prod_{j>t} (1 - l_j) as with any
other hazards there.  The delta_E ledger
still charges every rank 2..b, so the union of failure events of the bounds
actually relied on stays within delta_E.

`step_hazards` is the one hazard engine, for both adjacency directions at
once: it walks the steps once, keeping the prefix Gram matrix up to date, and
lays every read (step, rank) bound out on one flat problem axis, bounded in
chunks whose (problem, member, row) tensor fits a constant budget of
_HAZARD_CHUNK_ELEMENTS.  The directions differ only in the reference measure,
so one preparation per chunk serves both: `_prepare_tails` builds the
sigma-free part of every problem at once from its gathered sorted prefix Gram
(variational members, KL and quadratic forms, and the remove direction's
reference terms) and `_tail_bounds` evaluates it at sigma: closed form for
the add direction, one vectorized bisection over every remove column, each
returning its pessimistic (lower) end.  A remove term's mean at sigma is
nu/sigma^2 plus a constant of its (problem, member), with nu sigma-free, so
terms of equal nu are equal at every sigma: the preparation merges them once,
summing their weights, and the bisection sees one term per distinct mean: at
most 2 per bound on DP-SGD (k <= 4, b <= 100 tried), whose Grams hold up to b
distinct rows.

The delta_E failure budget is split by `AllocationPlan.blocks`, one table of
(first step, last step, significance) per shared hazard vector for the chosen
strategy; `apply_sharing` takes the componentwise max within each block, and
the resulting per-step pairs compose through the PLD engine.  Every step of a
block bounds the union of the block's read ranks, a suffix from the block's
smallest t, so that max is the same as over fully bounded steps wherever any
step of the block reads it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_ndtr, ndtri, xlogy

from .mechanism import MixtureMeans, Schedule, StrategyMatrix, mixture_means
from . import pld
from .pld import DIRECTIONS, MixGaussPair

# Squared-norm threshold below which two prefix means count as identical.
IDENTICAL_SQ_TOL = 1e-24
DEFAULT_TEMPERATURES = (math.inf, 0.1, 10.0**-0.5, 1.0, 10.0**0.5, 10.0)

STRATEGIES = ("union", "global-max", "hybrid")
_HAZARD_FLOOR = 1e-300
# Elements of the (problem, member, row) tensor bounded per chunk of problems.
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
    """The sigma-free part of a batch of tail-bound problems, leading axis (R,).

    Problem r excludes row e = excluded[r] of Gram grams[r]; rows before it
    are the candidates.  Its reference measure is N(0, sigma^2 I) for add and
    the uniform mixture over rows ref_start[r] and up for remove; only the
    remove terms nu and log_w depend on it.  Per variational member psi: kl;
    a = h_ee - psi.diag; q = h_ee - 2 psi.h_e + psi'H psi; and per reference
    row k, nu = h_k.psi - h_ke.  At sigma a term's mean is nu/sigma^2 plus a
    per-member constant, so terms with equal nu are equal at every sigma:
    each member's terms are merged by exactly equal nu into G groups, log_w
    holding each group's log weight (its share of the reference rows), -inf
    on padding.
    """

    distinct: np.ndarray  # (R,): some candidate differs from the excluded row
    kl: np.ndarray  # (R, P)
    a: np.ndarray  # (R, P)
    q: np.ndarray  # (R, P)
    nu: np.ndarray  # (R, P, G)
    log_w: np.ndarray  # (R, P, G)


def _merge_equal_terms(nu: np.ndarray, live: np.ndarray):
    """Merge each column's live terms with exactly equal nu, summing weights.

    nu and live are (..., n); every live term of a column weighs 1 / (its
    live count).  Returns (nu, log_w), (..., G) with G the most distinct
    values in any column: each column's distinct values ascending, then
    padding with nu = 0 and log_w = -inf.
    """
    lead, n = nu.shape[:-1], nu.shape[-1]
    values = np.sort(np.where(live, nu, np.inf), axis=-1).reshape(-1, n)
    n_live = live.sum(axis=-1).reshape(-1)
    starts = (np.arange(n) < n_live[:, None]) & np.concatenate(
        [np.ones((values.shape[0], 1), dtype=bool), values[:, 1:] != values[:, :-1]], axis=1
    )
    col, at = np.nonzero(starts)  # row-major: each column's runs in order
    run = np.arange(col.size) - np.searchsorted(col, col)
    # A run ends where its column's next run starts, the last at the live count.
    last = np.append(col[1:] != col[:-1], True)
    ends = np.where(last, n_live[col], np.roll(at, -1))
    groups = int(run.max()) + 1
    out_nu = np.zeros((values.shape[0], groups))
    out_nu[col, run] = values[col, at]
    log_w = np.full((values.shape[0], groups), -np.inf)
    log_w[col, run] = np.log((ends - at) / n_live[col])
    return out_nu.reshape(lead + (groups,)), log_w.reshape(lead + (groups,))


def _prepare_tails(grams: np.ndarray, excluded: np.ndarray, ref_start: np.ndarray) -> _TailProblems:
    """Build the sigma-free terms of every (Gram, excluded row) problem at once.

    grams (R, n, n) holds one Gram per problem, excluded (R,) its excluded
    row, and ref_start (R,) its first remove reference row.
    """
    n = grams.shape[-1]
    cols = np.arange(n)
    rows = np.arange(excluded.size)
    cand = cols[None, :] < excluded[:, None]  # (R, n)
    diag = np.diagonal(grams, axis1=1, axis2=2)  # (R, n)
    hee = diag[rows, excluded]  # (R,)
    cross = grams[rows, excluded]  # (R, n): row e of each Gram
    sq = diag + hee[:, None] - 2.0 * cross
    psis = DEFAULT_FAMILY.members(sq, cand)  # (R, P, n)
    distinct = (cand & (sq > IDENTICAL_SQ_TOL)).any(axis=-1)
    kl = xlogy(psis, psis).sum(axis=-1) + np.log(excluded)[:, None]
    hee = hee[:, None]
    a = hee - (psis @ diag[..., None])[..., 0]
    psi_h = psis @ grams  # (R, P, n): h_k.psi per row k (H is symmetric)
    q = hee - 2.0 * (psis @ cross[..., None])[..., 0] + (psi_h * psis).sum(axis=-1)
    # Reference row k's term: nu = h_k.psi - h_ke, for rows ref_start[r] and up.
    nu = psi_h - cross[:, None, :]
    live = np.broadcast_to((cols >= ref_start[:, None])[:, None, :], nu.shape)
    nu, log_w = _merge_equal_terms(nu, live)
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
    """(R, 2) tails tau with Pr[L < tau] <= beta_r, columns in DIRECTIONS order.

    Each member's variational lower bound on the loss has scale
    xi = sqrt(q)/sigma and is Gaussian under the add reference measure and a
    Gaussian mixture over the reference groups under the remove one; tau is
    the max over members of its beta-quantile: closed form for add and for a
    single group, bisected otherwise.
    """
    sig2 = sigma * sigma
    const = problems.a / (2.0 * sig2) - problems.kl
    xi = np.sqrt(np.maximum(problems.q / sig2, 0.0))
    betas = betas[:, None]
    add = np.where(xi > 0.0, const + xi * ndtri(betas), const)
    nus = problems.nu / sig2 + const[..., None]
    log_w = problems.log_w
    live = log_w > -np.inf
    log_beta = np.broadcast_to(np.log(betas), xi.shape)
    # Zero scale: the loss bound is a point mass at each group's nu.
    remove = np.where(live, nus, np.inf).min(axis=-1)
    # One reference group: invert the Gaussian CDF directly.
    single = (live.sum(axis=-1) == 1) & (xi > 0.0)
    nu1 = np.where(live, nus, -np.inf).max(axis=-1)[single]
    lw1 = log_w.max(axis=-1)[single]
    remove[single] = nu1 + xi[single] * ndtri(np.exp(log_beta[single] - lw1))
    active = (xi > 0.0) & ~single & problems.distinct[..., None]
    if active.any():
        remove[active] = _mixture_lower_tails(
            nus[active], log_w[active], xi[active], log_beta[active]
        )
    taus = np.stack([remove.max(axis=-1), add.max(axis=-1)], axis=-1)
    # Every candidate coincides with the excluded component: L == 0.
    return np.where(problems.distinct[:, None], taus, 0.0)


def _first_read_ranks(means: MixtureMeans, plan: AllocationPlan) -> np.ndarray:
    """Per step, the 0-based index of the first hazard its block reads.

    That is the size t of the step's lowest tie group of scalar means, lowered
    to the smallest t in its block of `plan.blocks()`, so every step of a
    shared block bounds the union of the ranks its steps read.
    """
    m = means.means
    first = np.count_nonzero(m == m.min(axis=0), axis=0)
    for start, stop, _ in plan.blocks():
        first[start - 1 : stop] = first[start - 1 : stop].min()
    return first


def _sorted_prefix_grams(m: np.ndarray):
    """Yield each step's prefix Gram, rows in ascending order of its scalar means.

    The prefix Gram is kept up to date by one rank-1 update per step rather
    than recomputed from the raw prefixes.
    """
    gram_prefix = np.zeros((m.shape[0], m.shape[0]))
    for scalars in m.T:
        order = np.argsort(scalars, kind="stable")
        yield gram_prefix[np.ix_(order, order)]
        gram_prefix += np.outer(scalars, scalars)


def step_hazards(means: MixtureMeans, sigma: float, plan: AllocationPlan) -> np.ndarray:
    """Per-step hazard bounds, (N, 2, b), before any cross-step sharing.

    Axis 1 holds the adjacency directions in `pld.DIRECTIONS` order, and
    column i-1 bounds the reverse hazard of the i-th smallest component at
    that step, at the significance of the step's block in the plan.  Only
    the ranks the step's pair reads are bounded.  The pair needs its mixing
    law's tail mass only at the first rank of each level of means above the
    lowest, and by the telescoping head sum_{j<i} w_j = prod_{j>=i} (1 - l_j)
    the tail mass at rank i reads the hazards at ranks i and up alone (the
    module docstring has the argument).  So with t the size of the lowest
    tie group of the step's scalar means, lowered to the smallest t in its
    block, the bounded ranks are t+1..b.  Column 0 is 1 and the unread
    ranks 2..t are exactly _HAZARD_FLOOR, so `apply_sharing`'s max never
    picks them over a bound.  The read (step, rank) problems form
    one flat axis, bounded in chunks sized to _HAZARD_CHUNK_ELEMENTS of the
    (problem, member, row) tensor: one sigma-free preparation and one tail
    evaluation per chunk serve both directions, each problem reading its
    step's sorted prefix Gram.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    m = means.means
    b, n_total = m.shape
    lam = np.ones((n_total, len(DIRECTIONS), b))
    if b == 1:
        return lam
    lam[:, :, 1:] = _HAZARD_FLOOR
    betas = np.empty(n_total)
    for first, last, beta in plan.blocks():
        betas[first - 1 : last] = beta
    counts = b - _first_read_ranks(means, plan)
    step_of = np.repeat(np.arange(n_total), counts)
    # Step n's problems exclude rows first[n]..b-1 in turn.
    excluded = np.arange(step_of.size) - np.repeat(np.cumsum(counts) - b, counts)
    per_chunk = max(1, _HAZARD_CHUNK_ELEMENTS // (len(DEFAULT_FAMILY) * b))
    grams_by_step = enumerate(_sorted_prefix_grams(m))
    held = {}  # sorted prefix Gram per step of the current chunk
    for start in range(0, step_of.size, per_chunk):
        steps = step_of[start : start + per_chunk]
        rows = excluded[start : start + per_chunk]
        held = {n: held[n] for n in held if n >= steps[0]}
        while steps[-1] not in held:
            n, gram = next(grams_by_step)
            if n >= steps[0]:
                held[n] = gram
        grams = np.stack([held[n] for n in steps])
        taus = _tail_bounds(_prepare_tails(grams, rows, rows), sigma, betas[steps])
        lam[steps, :, rows] = expit(-np.log(rows)[:, None] - taus)
    return np.clip(lam, _HAZARD_FLOOR, 1.0)


def apply_sharing(hazards: np.ndarray, plan: AllocationPlan) -> np.ndarray:
    """Componentwise max of hazards within each of the plan's shared blocks."""
    out = np.array(hazards)
    for first, last, _ in plan.blocks():
        out[first - 1 : last] = out[first - 1 : last].max(axis=0)
    return out


def _compose_steps(pairs):
    keys = [pair.key() for pair in pairs]
    counts = Counter(keys)
    distinct = dict(zip(keys, pairs))
    # The spacing and each grid read the same pair objects, so each distinct
    # pair's cached loss range is computed once.
    h = pld.auto_spacing(distinct.values())
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
) -> dict:
    """Composed per-direction privacy-loss distributions for the whole run."""
    plan = AllocationPlan(schedule, delta_e, allocation)
    means = mixture_means(strategy, schedule)
    lam = apply_sharing(step_hazards(means, sigma, plan), plan)
    scalars = np.sort(means.means, axis=0)
    return {
        direction: _compose_steps(
            [
                MixGaussPair(scalars[:, n], reverse_hazard_weights(lam[n, d]), sigma, direction)
                for n in range(schedule.iterations)
            ]
        )
        for d, direction in enumerate(DIRECTIONS)
    }
