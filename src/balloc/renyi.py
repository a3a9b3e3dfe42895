"""Renyi-divergence accountant for the balls-in-bins dominating pair.

The remove-direction divergence of (mixture, single Gaussian) is a partition
function over count vectors coupled through the Gram matrix of the mixture
means.  When the Gram matrix is cyclically banded (bandwidth p) the sum
factorizes into one forward dynamic program over batch positions, for every
p: its state is (prefix of the first p-1 counts, running total, suffix of the
last p-1 counts), and the wrap-around pairs close the cycle between prefix and
final suffix.  Out-of-band mass is charged through the truncation slack tau.
The running total m makes one pass run up to order alpha yield log S(m) for
every order m <= alpha: a curve costs one pass per bandwidth, not one per
order.  One batch has a closed form, and schedules too short for the band
(b <= 2p - 2) enumerate count vectors directly.  The add direction uses a
closed-form AM-GM bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .mechanism import GramSummary, Schedule, StrategyMatrix
from .mechanism import gram_summary

_COMPOSITION_LIMIT = 2 * 10**7

DEFAULT_ALPHAS = tuple(range(2, 65))


@dataclass(frozen=True)
class RenyiCurve:
    """Divergence bounds per integer order, for both adjacency directions.

    An entry is exact when the truncation slack was zero for the bandwidth
    its order was evaluated at; otherwise it is an upper bound.  Orders whose
    dynamic program would be too expensive at the requested bandwidth are
    evaluated at a narrower one (still a valid upper bound), so the flags can
    differ across entries.
    """

    alphas: tuple
    rho_remove: np.ndarray
    rho_add: np.ndarray
    exact: np.ndarray  # per-order flags


def _check_alpha(alpha) -> int:
    if int(alpha) != alpha or alpha < 2:
        raise ValueError(f"alpha must be an integer >= 2, got {alpha}")
    return int(alpha)


def _check_bandwidth(strategy: StrategyMatrix, schedule: Schedule, bandwidth) -> int:
    """The requested band cap, or the default min(natural bandwidth, 8, b).

    The cap of 8 keeps the dynamic program tractable at large orders while the
    tau correction accounts for what the truncation discards.
    """
    b = schedule.batches_per_epoch
    if bandwidth is None:
        return min(strategy.bandwidth, 8, b)
    if not 1 <= bandwidth <= b:
        raise ValueError(f"bandwidth must be in [1, {b}], got {bandwidth}")
    return int(bandwidth)


def _compositions(total: int, parts: int) -> np.ndarray:
    """All count vectors of length `parts` summing to `total`, lexicographically.

    Stars and bars: each choice of parts - 1 bar slots among total + parts - 1
    gives one vector, and lexicographic bar choices give lexicographic vectors.
    """
    slots = total + parts - 1
    bars = np.array(
        list(itertools.combinations(range(slots), parts - 1)), dtype=np.int64
    ).reshape(math.comb(slots, parts - 1), parts - 1)
    edges = np.concatenate(
        [
            np.full((bars.shape[0], 1), -1, dtype=np.int64),
            bars,
            np.full((bars.shape[0], 1), slots, dtype=np.int64),
        ],
        axis=1,
    )
    return np.diff(edges, axis=1) - 1


def _log_sum_compositions(gp: np.ndarray, sigma: float, alpha: int) -> np.ndarray:
    """log S[0..alpha] by direct enumeration over compositions of each total.

    Used when the cyclic band spans every index pair (b <= 2p - 2), where the
    prefix/suffix bookkeeping of the forward DP would overlap itself.  Totals
    are enumerated one at a time so memory stays that of the largest one.
    """
    b = gp.shape[0]
    count = math.comb(alpha + b - 1, b - 1)
    if count > _COMPOSITION_LIMIT:
        raise ValueError(
            f"composition enumeration needs {count} terms; reduce alpha or bandwidth"
        )
    inv = 1.0 / (2.0 * sigma**2)
    diag = np.diag(gp)
    log_s = np.empty(alpha + 1)
    for m in range(alpha + 1):
        r = _compositions(m, b).astype(float)
        quad = np.einsum("ij,jk,ik->i", r, gp, r)
        expo = (quad - r @ diag) * inv - gammaln(r + 1.0).sum(axis=1)
        log_s[m] = logsumexp(expo)
    return log_s


# Cells of one step's (prefix, total, pair) block: bounds the DP's working
# memory to a few such float arrays whatever the number of prefixes.
_DP_CHUNK_ELEMENTS = 2**18


def _log_sum_banded(gp: np.ndarray, p: int, sigma: float, alpha: int) -> np.ndarray:
    """log S[0..alpha] via the forward dynamic program over positions p-1 .. b-1.

    The first p-1 counts (the prefix) are fixed per state row.  Within a row
    the state is indexed [running total, suffix], where the suffix holds the
    last p-1 counts of the forward positions, with zeros standing in for prefix
    positions (the prefix enters the first forward steps through their
    weights).  A prefix of sum a leaves a budget beta = alpha - a to the
    forward counts, so prefixes are grouped by their sum, and suffixes are flat
    indexes into the simplex of (p-1)-count vectors with sum <= beta (for
    p = 1, the one empty vector).  The total axis is padded below by beta, so
    one window view reads the total m - t for every new count t at once.  Each
    (suffix, count) pair feeds the suffix it shifts into; the pairs of one
    target are reduced by a log-sum-exp shifted per output entry, because step
    weights span far more than float range and an entry flushed by a shared
    shift could still dominate the final sum.  Prefixes stay independent until
    the wrap-around closure, so they are processed in chunks.  Requires
    b >= 2p - 1, so that forward-band and wrap-around interactions never refer
    to the same index pair.
    """
    b = gp.shape[0]
    sig2 = sigma**2
    ks = np.arange(p - 1, b)[:, None]  # forward positions
    js = np.arange(p - 1)  # prefix positions, and suffix entries
    # Step weights per forward position: self term and the interactions with
    # the suffix, then with the prefix counts still within the band.
    coef = np.column_stack([gp[ks[:, 0], ks[:, 0]], 2.0 * gp[ks, ks - p + 1 + js]]) / (2.0 * sig2)
    lead = np.where(ks - js < p, gp[ks, js], 0.0) / sig2
    # Wrap-around interactions between prefix position i and final suffix
    # entry q have cyclic distance p - 1 - q + i, so only i <= q lies outside
    # the forward band.
    wrap = np.triu(gp[: p - 1, b - p + 1 :]) / sig2
    g_head = gp[: p - 1, : p - 1]

    prefixes = _compositions(alpha, p)[:, :-1]  # every (p-1)-vector with sum <= alpha
    sums = prefixes.sum(axis=1)
    log_s = np.full(alpha + 1, -np.inf)
    with np.errstate(divide="ignore"):
        for a in np.unique(sums):
            beta = alpha - a
            n = beta + 1
            # Every (suffix, next count) pair within the budget, grouped by
            # the suffix it shifts into.
            pairs = _compositions(beta, p + 1)[:, :p]
            suffixes, src = np.unique(pairs[:, :-1], axis=0, return_inverse=True)
            _, dest = np.unique(pairs[:, 1:], axis=0, return_inverse=True)
            order = np.argsort(dest, kind="stable")
            pairs, src, dest = pairs[order], src[order], dest[order]
            starts = np.flatnonzero(np.diff(dest, prepend=-1))
            t = pairs[:, -1]
            feat = np.column_stack([t * (t - 1.0), t[:, None] * pairs[:, :-1]])
            base = coef @ feat.T - gammaln(t + 1.0)  # [position, pair]

            group = prefixes[sums == a]
            chunk = max(1, _DP_CHUNK_ELEMENTS // (len(pairs) * n))
            for lo in range(0, len(group), chunk):
                pre = group[lo : lo + chunk]
                weights = base + (pre @ lead.T)[:, :, None] * t  # [prefix, position, pair]
                state = np.full((len(pre), beta + n, len(suffixes)), -np.inf)
                state[:, beta, 0] = (  # total 0, all-zero suffix
                    np.einsum("li,ij,lj->l", pre, g_head, pre) - pre @ np.diag(g_head)
                ) / (2.0 * sig2) - gammaln(pre + 1.0).sum(axis=1)
                # window[l, m, s, beta - t] = state[l, beta + m - t, s]; a view,
                # so it follows the in-place updates of state.
                window = np.lib.stride_tricks.sliding_window_view(state, n, axis=1)
                for w in weights.transpose(1, 0, 2):
                    vals = window[:, :, src, beta - t] + w[:, None, :]
                    top = np.maximum.reduceat(vals, starts, axis=2)
                    top = np.where(np.isfinite(top), top, 0.0)
                    state[:, beta:, :] = top + np.log(
                        np.add.reduceat(np.exp(vals - top[:, :, dest]), starts, axis=2)
                    )
                closed = state[:, beta:, :] + (pre @ wrap @ suffixes.T)[:, None, :]
                log_s[a:] = np.logaddexp(log_s[a:], logsumexp(closed, axis=(0, 2)))
    return log_s


def renyi_remove_orders(summary: GramSummary, alpha_max: int) -> np.ndarray:
    """Remove-direction divergences for every order 2..alpha_max, one DP pass.

    Entry j is the order j + 2.  The pass runs at alpha_max and its running
    total axis holds log S(m) for every m <= alpha_max: step weights and the
    closure term do not depend on the order, and prefixes summing past m never
    reach total m.  Exact when summary.tau == 0 (the Gram really is cyclically
    banded at the chosen bandwidth), an upper bound otherwise.
    """
    alpha_max = _check_alpha(alpha_max)
    gp = summary.banded
    b = gp.shape[0]
    p = summary.bandwidth
    sigma = summary.sigma
    orders = np.arange(2, alpha_max + 1, dtype=float)
    if b == 1:
        # Single component: plain Gaussian divergence (tau is 0 by convention).
        return orders * gp[0, 0] / (2.0 * sigma**2)
    if b <= 2 * p - 2:
        log_s = _log_sum_compositions(gp, sigma, alpha_max)
    else:
        log_s = _log_sum_banded(gp, p, sigma, alpha_max)
    rho = (log_s[2:] + gammaln(orders + 1.0) - orders * math.log(b)) / (orders - 1)
    return np.maximum(0.0, rho + summary.tau * orders / (2.0 * sigma**2))


def renyi_add_bound(g, sigma: float, alpha: int) -> float:
    """Add-direction bound: trace and total-sum functionals of the full Gram."""
    g = np.asarray(g, dtype=float)
    alpha = _check_alpha(alpha)
    b = g.shape[0]
    if b == 1:
        # The AM-GM step is vacuous for one component; this is the exact value.
        return alpha * float(g[0, 0]) / (2.0 * sigma**2)
    return float(
        np.trace(g) / (2.0 * b * sigma**2)
        + (alpha - 1) * g.sum() / (2.0 * b**2 * sigma**2)
    )


def renyi_to_delta(rho: float, alpha: int, epsilon: float) -> float:
    """Convert a divergence bound at integer order alpha to delta at epsilon."""
    alpha = _check_alpha(alpha)
    if rho < 0:
        raise ValueError(f"rho must be non-negative, got {rho}")
    t = (alpha - 1.0) * (rho - epsilon)
    if t >= 700.0:
        return 1.0
    delta = math.exp(t) * (1.0 - 1.0 / alpha) ** alpha / (alpha - 1.0)
    return min(1.0, delta)


_DP_COST_LIMIT = 5 * 10**6
_ADAPTIVE_COMPOSITION_LIMIT = 2 * 10**5


def _affordable_bandwidth(b: int, p: int, alpha: int) -> int:
    """Widest bandwidth <= p whose order-alpha evaluation stays tractable.

    Cost model: the composition fallback (b <= 2p - 2) enumerates
    C(alpha+b-1, b-1) count vectors; the forward DP visits about
    C(alpha+p-1, p-1)^2 * b * alpha states.  Narrowing the band trades
    tightness (a larger tau correction) for time, and stays a valid bound.
    """
    while p > 1:
        if b <= 2 * p - 2:
            if math.comb(alpha + b - 1, b - 1) <= _ADAPTIVE_COMPOSITION_LIMIT:
                return p
        elif math.comb(alpha + p - 1, p - 1) ** 2 * b * alpha <= _DP_COST_LIMIT:
            return p
        p -= 1
    return 1


def renyi_curve(
    strategy: StrategyMatrix,
    schedule: Schedule,
    sigma: float,
    alpha_set=DEFAULT_ALPHAS,
    bandwidth: int | None = None,
) -> RenyiCurve:
    """Divergence bounds for every order in alpha_set, both directions.

    `bandwidth` caps the cyclic band; orders too expensive at that cap fall
    back to a narrower band automatically (flagged per entry in the result).
    Orders are grouped by the bandwidth they are evaluated at, and each group
    costs one dynamic-program pass at its largest order, which yields every
    order of the group.  The bandwidth an order gets does not depend on the
    other orders in alpha_set.
    """
    alphas = tuple(sorted({_check_alpha(a) for a in alpha_set}))
    if not alphas:
        raise ValueError("alpha_set must be non-empty")
    b = schedule.batches_per_epoch
    bandwidth = _check_bandwidth(strategy, schedule, bandwidth)
    summaries: dict[int, GramSummary] = {}

    def summary_at(p: int) -> GramSummary:
        # One Gram (and one set of mixture means) per curve, one truncation
        # per bandwidth.
        if p not in summaries:
            if summaries:
                summaries[p] = next(iter(summaries.values())).at_bandwidth(p)
            else:
                summaries[p] = gram_summary(strategy, schedule, sigma, p)
        return summaries[p]

    groups: dict[int, list[int]] = {}
    for j, a in enumerate(alphas):
        groups.setdefault(_affordable_bandwidth(b, bandwidth, a), []).append(j)
    rho_rem = np.empty(len(alphas))
    exact = np.empty(len(alphas), dtype=bool)
    for p, idx in groups.items():
        summary = summary_at(p)
        rho = renyi_remove_orders(summary, alphas[idx[-1]])
        for j in idx:
            rho_rem[j] = rho[alphas[j] - 2]
            exact[j] = summary.tau == 0.0
    gram_full = summary_at(min(summaries)).gram
    rho_add = np.array([renyi_add_bound(gram_full, sigma, a) for a in alphas])
    return RenyiCurve(alphas=alphas, rho_remove=rho_rem, rho_add=rho_add, exact=exact)


def curve_delta(curve: RenyiCurve, epsilon: float) -> tuple[float, int]:
    """Smallest converted delta over the curve's orders, with the best order."""
    best = (1.0, curve.alphas[0])
    for a, rr, ra in zip(curve.alphas, curve.rho_remove, curve.rho_add):
        d = renyi_to_delta(max(rr, ra), a, epsilon)
        if d < best[0]:
            best = (d, a)
    return best
