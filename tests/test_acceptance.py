"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The slow criteria are time-boxed; the whole module is several minutes of
compute.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from balloc.calibrate import calibrate_sigma
from balloc.condcomp import (
    AllocationPlan,
    cond_comp_pld,
    step_hazards,
)
from balloc.mc import mc_delta_from_samples, mc_loss_samples
from balloc.mechanism import (
    GramSummary,
    Schedule,
    StrategyMatrix,
    build_identity,
    cyclic_truncate,
    gram,
    gram_summary,
    mixture_means,
    sqrt_toeplitz_coefficients,
)
from balloc.pld import ADD, DIRECTIONS, REMOVE, MixGaussPair, compose, delta_at, discretize
from balloc.renyi import (
    renyi_add_bound,
    renyi_curve,
    curve_delta,
    renyi_remove_orders,
    renyi_to_delta,
)

from oracles import (
    TernaryLoss,
    gaussian_profile_delta,
    mc_exceedance,
    renyi_remove_bruteforce,
    tail_bound_add,
    tail_bound_remove,
)


def report(number, message):
    print(f"\nacceptance criterion {number}: PASS - {message}")


def _fail_report(number):
    print(f"\nacceptance criterion {number}: FAIL")


def test_criterion_1_dp_equals_bruteforce():
    start = time.perf_counter()
    rng = np.random.default_rng(20240811)
    worst = 0.0
    try:
        for _ in range(200):
            b = int(rng.integers(1, 7))
            p = int(rng.integers(1, b + 1))
            k = int(rng.integers(1, 4))
            width = int(rng.integers(1, p + 1))
            coeffs = rng.uniform(0.05, 1.0, size=width)
            strategy = StrategyMatrix.from_toeplitz(coeffs, size=k * b)
            g = gram(mixture_means(strategy, Schedule(k, b)))
            banded, tau = cyclic_truncate(g, p)
            assert tau == 0.0
            sigma = float(rng.uniform(0.5, 2.0))
            alpha = int(rng.choice([2, 3, 4]))
            summary = GramSummary(g, p, banded, tau, sigma)
            gap = abs(
                renyi_remove_orders(summary, alpha)[-1]
                - renyi_remove_bruteforce(g, sigma, alpha)
            )
            worst = max(worst, gap)
            assert gap <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
    except AssertionError:
        _fail_report(1)
        raise
    report(1, f"200 instances, worst |dp - bruteforce| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_known_closed_forms():
    try:
        for g00, sigma, alpha in [(1.0, 1.0, 2), (2.7, 0.9, 7), (0.4, 3.0, 41)]:
            g = np.array([[g00]])
            expected = alpha * g00 / (2.0 * sigma**2)
            summary = GramSummary(g, 1, g, 0.0, sigma)
            assert renyi_remove_orders(summary, alpha)[-1] == expected
            assert renyi_add_bound(g, sigma, alpha) == expected
        target = math.log((2.0 * math.e + 2.0) / 4.0)
        summary = GramSummary(np.eye(2), 1, np.eye(2), 0.0, 1.0)
        assert abs(renyi_remove_orders(summary, 2)[-1] - target) <= 1e-12
        assert abs(renyi_remove_bruteforce(np.eye(2), 1.0, 2) - target) <= 1e-12
    except AssertionError:
        _fail_report(2)
        raise
    report(2, "b=1 closed forms exact; b=2 hand enumeration within 1e-12")


def test_criterion_3_soundness_vs_monte_carlo():
    start = time.perf_counter()
    sched = Schedule(1, 100)
    instances = {
        "dpsgd": (build_identity(100), dict(bandwidth=None, alpha_set=tuple(range(2, 65)))),
        "bsr": (
            StrategyMatrix.from_toeplitz(sqrt_toeplitz_coefficients(4), size=100),
            dict(bandwidth=4, alpha_set=(2, 3, 4, 5, 6)),
        ),
    }
    epsilons = [1.0, 2.0, 4.0, 8.0]
    sigmas = [0.7, 1.0, 2.0]
    delta_e = 1e-6
    checked = 0
    try:
        for m_idx, (name, (strategy, renyi_opts)) in enumerate(instances.items()):
            means = mixture_means(strategy, sched)
            for s_idx, sigma in enumerate(sigmas):
                curve = renyi_curve(strategy, sched, sigma, **renyi_opts)
                composed = cond_comp_pld(strategy, sched, sigma, delta_e)
                samples = {
                    d: mc_loss_samples(
                        means, sigma, d, 10**6, seed=1000 + 100 * m_idx + 10 * s_idx + d_idx
                    )
                    for d_idx, d in enumerate((REMOVE, ADD))
                }
                for eps in epsilons:
                    det_renyi = curve_delta(curve, eps)[0]
                    det_cc = min(
                        1.0,
                        max(delta_at(composed[d], eps) for d in (REMOVE, ADD)) + delta_e,
                    )
                    for d in (REMOVE, ADD):
                        est = mc_delta_from_samples(samples[d], eps, 0.95, 0)
                        floor = est.point_estimate - (est.ci_high - est.point_estimate)
                        assert det_renyi >= floor, (name, sigma, eps, d)
                        assert det_cc >= floor, (name, sigma, eps, d)
                        checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0
    except AssertionError:
        _fail_report(3)
        raise
    report(3, f"{checked} (instance, eps, direction) soundness checks, {elapsed:.0f}s")


def test_criterion_4_tail_bound_statistical_soundness():
    rng = np.random.default_rng(77)
    n_samples = 10**6
    worst_excess = -np.inf
    try:
        for trial in range(50):
            n = int(rng.integers(2, 13))
            b = int(rng.integers(2, 7))
            dim = n - 1
            i = int(rng.integers(2, b + 1))
            scale = float(rng.uniform(0.3, 1.5))
            mus = [scale * rng.normal(size=dim) for _ in range(i - 1)]
            mu_i = scale * rng.normal(size=dim)
            sigma = float(rng.uniform(0.6, 2.0))
            beta = 10.0 ** float(rng.uniform(-6, -2))
            direction = REMOVE if trial % 2 else ADD
            if direction == ADD:
                tau = tail_bound_add(mus, mu_i, sigma, beta)
                ref = np.zeros((1, dim))
            else:
                tails = [mu_i] + [scale * rng.normal(size=dim) for _ in range(b - i)]
                tau = tail_bound_remove(mus, mu_i, tails, sigma, beta)
                ref = np.array(tails)
            loss_spec = TernaryLoss(np.array(mus), mu_i, ref, sigma)
            freq = mc_exceedance(loss_spec, tau, n_samples, seed=int(rng.integers(2**31)))
            bound = beta + 3.0 * math.sqrt(beta * (1 - beta) / n_samples)
            worst_excess = max(worst_excess, freq - bound)
            assert freq <= bound, (trial, direction, freq, beta)
    except AssertionError:
        _fail_report(4)
        raise
    report(4, f"50 ternary instances, worst freq - (beta + 3se) = {worst_excess:.2e}")


def test_criterion_5_pld_oracle():
    try:
        pair = MixGaussPair([1.0], [1.0], 1.0, REMOVE)
        pld = discretize(pair, 1e-4)
        for eps in (0.0, 0.5, 1.0, 2.0):
            truth = gaussian_profile_delta(1.0, 1.0, eps)
            assert abs(delta_at(pld, eps) - truth) <= 2e-4, eps
        two = compose([pld, pld])
        for eps in (0.0, 0.5, 1.0, 2.0):
            truth = gaussian_profile_delta(math.sqrt(2.0), 1.0, eps)
            assert abs(delta_at(two, eps) - truth) <= 5e-4, eps
    except AssertionError:
        _fail_report(5)
        raise
    report(5, "single and two-fold Gaussian profiles reproduced at h = 1e-4")


def test_criterion_6_regime_ordering():
    start = time.perf_counter()
    strategy = build_identity(100)
    sched = Schedule(1, 100)
    delta = 1e-5
    try:
        sigma_r_low = calibrate_sigma("renyi", strategy, sched, 0.25, delta)
        sigma_c_low = calibrate_sigma("condcomp", strategy, sched, 0.25, delta)
        sigma_r_high = calibrate_sigma("renyi", strategy, sched, 8.0, delta)
        sigma_c_high = calibrate_sigma("condcomp", strategy, sched, 8.0, delta)
        elapsed = time.perf_counter() - start
        assert sigma_c_low < sigma_r_low, (sigma_c_low, sigma_r_low)
        assert sigma_r_high <= sigma_c_high, (sigma_r_high, sigma_c_high)
        assert elapsed < 900.0
    except AssertionError:
        _fail_report(6)
        raise
    report(
        6,
        f"eps=0.25: condcomp {sigma_c_low:.3f} < renyi {sigma_r_low:.3f}; "
        f"eps=8: renyi {sigma_r_high:.3f} <= condcomp {sigma_c_high:.3f}; {elapsed:.0f}s",
    )


def test_criterion_7_complexity_scaling():
    summaries = {
        b: gram_summary(build_identity(b), Schedule(1, b), 1.0, 1) for b in (500, 1000)
    }

    cases = [(b, a) for b in (500, 1000) for a in (16, 32)]
    for b, a in cases:
        renyi_remove_orders(summaries[b], a)  # warmup
    # Each round times the four (b, alpha) cases back to back, one call each,
    # and yields its own ratios.  Machine-speed drift (it moves single calls
    # by up to 30% within a second) mostly hits both sides of a round's
    # ratio, and the median over rounds drops the rounds it does not.
    ratios = []
    for _ in range(35):
        t = {}
        for b, a in cases:
            t0 = time.perf_counter()
            renyi_remove_orders(summaries[b], a)
            t[(b, a)] = time.perf_counter() - t0
        ratios.append([
            t[(1000, 16)] / t[(500, 16)],
            t[(1000, 32)] / t[(500, 32)],
            t[(500, 32)] / t[(500, 16)],
            t[(1000, 32)] / t[(1000, 16)],
        ])

    try:
        ratio_b16, ratio_b32, ratio_a500, ratio_a1000 = np.median(ratios, axis=0)
        assert ratio_b16 <= 2.5 and ratio_b32 <= 2.5, (ratio_b16, ratio_b32)
        assert ratio_a500 <= 4.5 and ratio_a1000 <= 4.5, (ratio_a500, ratio_a1000)
    except AssertionError:
        _fail_report(7)
        raise
    report(
        7,
        f"b-doubling ratios {ratio_b16:.2f}/{ratio_b32:.2f} <= 2.5, "
        f"alpha-doubling ratios {ratio_a500:.2f}/{ratio_a1000:.2f} <= 4.5",
    )


def test_criterion_8_conversion_identity():
    try:
        for eps in (0.1, 1.0, 3.0):
            assert renyi_to_delta(eps, 2, eps) == 0.25
        grid = np.linspace(0.0, 12.0, 60)
        deltas = [renyi_to_delta(0.8, 5, float(e)) for e in grid]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))
    except AssertionError:
        _fail_report(8)
        raise
    report(8, "renyi_to_delta(rho=eps, alpha=2) = 0.25 exactly; strictly decreasing in eps")


def test_criterion_9_epoch_jumps():
    try:
        sched = Schedule(4, 100)
        means = mixture_means(build_identity(400), sched)
        plan = AllocationPlan(sched, 0.5e-5, "union")
        lam_b = step_hazards(means, 5.0, plan)[:, DIRECTIONS.index(REMOVE), -1]
        diffs = np.abs(np.diff(lam_b))
        boundary = [diffs[99], diffs[199], diffs[299]]
        within = np.concatenate([diffs[:99], diffs[100:199], diffs[200:299], diffs[300:]])
        med = float(np.median(within))
        ratios = [j / med for j in boundary]
        assert all(r > 10.0 for r in ratios), ratios
    except AssertionError:
        _fail_report(9)
        raise
    report(9, f"jump/median ratios at steps 101/201/301: {[f'{r:.0f}' for r in ratios]}")
