"""Renyi-divergence accountant for the balls-in-bins dominating pair.

The remove-direction divergence of (mixture, single Gaussian) is a partition
function over count vectors coupled through the Gram matrix of the mixture
means.  When the Gram matrix is cyclically banded the sum factorizes into a
forward dynamic program over batch positions with a short suffix of counts as
state; out-of-band mass is charged through the truncation slack tau.  The
program's state carries the running count total m, so one pass run up to order
alpha yields log S(m) for every order m <= alpha: a curve costs one pass per
bandwidth, not one per order.  The add direction uses a closed-form AM-GM
bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .mechanism import GramSummary, Schedule, StrategyMatrix
from .mechanism import gram_summary, mixture_means

BRUTEFORCE_TUPLE_LIMIT = 10**7
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
    sigma: float
    exact: np.ndarray  # per-order flags


def _check_alpha(alpha) -> int:
    if int(alpha) != alpha or alpha < 2:
        raise ValueError(f"alpha must be an integer >= 2, got {alpha}")
    return int(alpha)


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


def _dp_sum_unit_bandwidth(diag: np.ndarray, sigma: float, alpha: int) -> np.ndarray:
    """log S[0..alpha] for p = 1: counts interact only through the diagonal.

    The state is the running count total, so each position multiplies a
    degree-alpha polynomial in the count weights.  The whole convolution stays
    in log domain: per-position factors span far more than float range (the
    self-interaction exponent reaches alpha^2 * max(G) / (2 sigma^2)), and
    entries flushed by a linear-domain pass can still dominate the final sum.
    """
    t = np.arange(alpha + 1, dtype=float)
    steps = (
        diag[:, None] * (t * (t - 1.0) / (2.0 * sigma**2))[None, :]
        - gammaln(t + 1.0)[None, :]
    )
    logw = np.full(alpha + 1, -np.inf)
    logw[0] = 0.0
    pad = np.full(alpha, -np.inf)
    for k in range(diag.size):
        # windows[m, t] = logw[m - t]; add the position's step weights and
        # reduce over t, max-shifted per output entry.
        windows = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([pad, logw]), alpha + 1
        )[:, ::-1]
        vals = windows + steps[k][None, :]
        top = vals.max(axis=1)
        safe = np.where(np.isfinite(top), top, 0.0)
        with np.errstate(divide="ignore"):
            logw = safe + np.log(np.exp(vals - safe[:, None]).sum(axis=1))
    return logw


def _dp_sum_bandwidth_two(gp: np.ndarray, sigma: float, alpha: int) -> np.ndarray:
    """log S[0..alpha] for p = 2, vectorized over (prefix, total, last count).

    Same recursion as the general banded program with the prefix loop folded
    into a leading tensor axis; needs b >= 3 so the wrap-around pair (first,
    last position) is distinct from the forward interactions.
    """
    b = gp.shape[0]
    sig2 = sigma * sigma
    n = alpha + 1
    t = np.arange(n, dtype=float)
    log_t_fact = gammaln(t + 1.0)
    self_terms = t * (t - 1.0) / (2.0 * sig2)  # multiplied by G[k, k] below

    state = np.full((n, n, n), -np.inf)  # [prefix l0, total m, last count r0]
    idx = np.arange(n)
    state[idx, idx, idx] = gp[0, 0] * self_terms - log_t_fact
    for k in range(1, b):
        delta = (
            gp[k, k] * self_terms[None, :]
            + gp[k, k - 1] * np.outer(t, t) / sig2
            - log_t_fact[None, :]
        )  # [r0, t]
        new = np.full((n, n, n), -np.inf)
        for tt in range(n):
            vals = state[:, : n - tt, :] + delta[None, None, :, tt]
            top = vals.max(axis=2)
            safe = np.where(np.isfinite(top), top, 0.0)
            with np.errstate(divide="ignore"):
                new[:, tt:, tt] = safe + np.log(
                    np.exp(vals - safe[:, :, None]).sum(axis=2)
                )
        state = new
    closure = gp[0, b - 1] * np.outer(idx, idx) / sig2  # [l0, r_final]
    vals = state.transpose(1, 0, 2) + closure[None, :, :]  # [total, l0, r_final]
    top = vals.max(axis=(1, 2))
    safe = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return safe + np.log(np.exp(vals - safe[:, None, None]).sum(axis=(1, 2)))


def _prefixes(alpha: int, parts: int):
    """Count prefixes of length `parts` with sum <= alpha, lexicographically."""
    if parts == 0:
        yield ()
        return
    yield from _prefix_rec((), alpha, parts)


def _prefix_rec(prefix: tuple, budget: int, remaining: int):
    if remaining == 0:
        yield prefix
        return
    for v in range(budget + 1):
        yield from _prefix_rec(prefix + (v,), budget - v, remaining - 1)


def _dp_sum_banded(gp: np.ndarray, p: int, sigma: float, alpha: int) -> np.ndarray:
    """log S[0..alpha] via the forward dynamic program over positions p-1 .. b-1.

    States are (suffix of the last p-1 counts) -> log-weight vector indexed by
    the running total m.  Requires b >= 2p - 1 so that linear-band and
    wrap-around interactions never refer to the same index pair.
    """
    b = gp.shape[0]
    sig2 = sigma**2
    inv2 = 1.0 / (2.0 * sig2)
    log_t_fact = gammaln(np.arange(alpha + 1, dtype=float) + 1.0)

    total = np.full(alpha + 1, -np.inf)
    for l in _prefixes(alpha, p - 1):
        # Interactions and self terms inside the prefix block.
        seed = 0.0
        for i in range(p - 1):
            for j in range(i + 1, p - 1):
                seed += gp[i, j] * l[i] * l[j] / sig2
            seed += gp[i, i] * l[i] * (l[i] - 1) * inv2 - float(gammaln(l[i] + 1.0))
        arr0 = np.full(alpha + 1, -np.inf)
        arr0[sum(l)] = seed
        states: dict[tuple, np.ndarray] = {l: arr0}

        for k in range(p - 1, b):
            new_states: dict[tuple, np.ndarray] = {}
            for r, arr in states.items():
                L = len(r)
                s1 = 2.0 * sum(gp[k, k - L + i] * r[i] for i in range(L))
                # Totals below the first finite entry are unreachable, so a
                # count tt > alpha - first would only shift -inf into range.
                first = int(np.argmax(np.isfinite(arr)))
                for tt in range(alpha + 1 - first):
                    shifted = arr[: alpha + 1 - tt]
                    delta = (gp[k, k] * tt * (tt - 1) + s1 * tt) * inv2 - log_t_fact[tt]
                    key = r[1:] + (tt,) if p > 1 else ()
                    dest = new_states.get(key)
                    if dest is None:
                        dest = np.full(alpha + 1, -np.inf)
                        new_states[key] = dest
                    dest[tt:] = np.logaddexp(dest[tt:], shifted + delta)
            states = new_states

        # Close the cycle: wrap-around interactions between the fixed prefix
        # and the final suffix (cyclic distance i + j + 1 < p only; nearer
        # pairs were already consumed by the forward pass).
        for r, arr in states.items():
            closure = 0.0
            for i in range(p - 1):
                for j in range(p - 1):
                    if i + j <= p - 2:
                        closure += gp[i, b - 1 - j] * l[i] * r[p - 2 - j] / sig2
            total = np.logaddexp(total, arr + closure)
    return total


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
    if p == 1:
        log_s = _dp_sum_unit_bandwidth(np.diag(gp).copy(), sigma, alpha_max)
    elif b <= 2 * p - 2:
        log_s = _log_sum_compositions(gp, sigma, alpha_max)
    elif p == 2:
        log_s = _dp_sum_bandwidth_two(gp, sigma, alpha_max)
    else:
        log_s = _dp_sum_banded(gp, p, sigma, alpha_max)
    rho = (log_s[2:] + gammaln(orders + 1.0) - orders * math.log(b)) / (orders - 1)
    return np.maximum(0.0, rho + summary.tau * orders / (2.0 * sigma**2))


def renyi_remove_dp(summary: GramSummary, alpha: int) -> float:
    """Remove-direction divergence at one order; see renyi_remove_orders."""
    return float(renyi_remove_orders(summary, alpha)[-1])


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
    if bandwidth is None:
        bandwidth = min(strategy.bandwidth, 8, b)
    summaries: dict[int, GramSummary] = {}

    def summary_at(p: int) -> GramSummary:
        if p not in summaries:
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
    return RenyiCurve(
        alphas=alphas,
        rho_remove=rho_rem,
        rho_add=rho_add,
        sigma=sigma,
        exact=exact,
    )


def curve_delta(curve: RenyiCurve, epsilon: float) -> tuple[float, int]:
    """Smallest converted delta over the curve's orders, with the best order."""
    best = (1.0, curve.alphas[0])
    for a, rr, ra in zip(curve.alphas, curve.rho_remove, curve.rho_add):
        d = renyi_to_delta(max(rr, ra), a, epsilon)
        if d < best[0]:
            best = (d, a)
    return best


def renyi_account(
    strategy: StrategyMatrix,
    schedule: Schedule,
    sigma: float,
    epsilon: float,
    alpha_set=DEFAULT_ALPHAS,
    bandwidth: int | None = None,
    return_curve: bool = False,
):
    """delta at epsilon via max(remove, add) divergence, optimized over orders.

    Returns (delta, alpha), or (delta, alpha, curve) with return_curve, where
    the curve holds the winning order's per-direction divergences.
    """
    if np.all(mixture_means(strategy, schedule).means == 0.0):
        # Identical dominating pair (zero mechanism): delta is exactly 0.
        delta, alpha = max(0.0, -math.expm1(epsilon)), min(alpha_set)
        if not return_curve:
            return delta, alpha
        curve = renyi_curve(strategy, schedule, sigma, (alpha,), bandwidth)
    else:
        curve = renyi_curve(strategy, schedule, sigma, alpha_set, bandwidth)
        delta, alpha = curve_delta(curve, epsilon)
    return (delta, alpha, curve) if return_curve else (delta, alpha)
