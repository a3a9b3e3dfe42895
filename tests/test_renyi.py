import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balloc.mechanism import (
    GramSummary,
    Schedule,
    StrategyMatrix,
    build_identity,
    cyclic_truncate,
    gram,
    gram_summary,
    inv_sqrt_toeplitz_coefficients,
    invert_banded_toeplitz,
    mixture_means,
    sqrt_toeplitz_coefficients,
)
from balloc import renyi
from balloc.calibrate import profile
from balloc.renyi import (
    _affordable_bandwidth,
    renyi_add_bound,
    renyi_curve,
    renyi_remove_orders,
    renyi_to_delta,
)

from oracles import collinear_add_renyi_quadrature, renyi_remove_bruteforce


def banded_instance(rng, b, k, width):
    coeffs = rng.uniform(0.1, 1.0, size=width)
    strategy = StrategyMatrix.from_toeplitz(coeffs, size=k * b)
    return gram(mixture_means(strategy, Schedule(k, b)))


def summary_for(g, p, sigma):
    banded, tau = cyclic_truncate(g, p)
    return GramSummary(gram=g, bandwidth=p, banded=banded, tau=tau, sigma=sigma)


def test_bruteforce_single_component():
    for g00, sigma, alpha in [(1.0, 1.0, 2), (3.0, 2.0, 5), (0.5, 0.7, 3)]:
        rho = renyi_remove_bruteforce(np.array([[g00]]), sigma, alpha)
        assert rho == pytest.approx(alpha * g00 / (2 * sigma**2), abs=1e-12)


def test_bruteforce_two_by_two_hand_enumeration():
    rho = renyi_remove_bruteforce(np.eye(2), 1.0, 2)
    assert rho == pytest.approx(math.log((2 * math.e + 2) / 4), abs=1e-12)


def test_bruteforce_guard():
    with pytest.raises(ValueError):
        renyi_remove_bruteforce(np.eye(30), 1.0, 8)


def test_dp_matches_bruteforce_dpsgd_case():
    su = summary_for(np.eye(2), 1, 1.0)
    target = math.log((2 * math.e + 2) / 4)
    assert renyi_remove_orders(su, 2)[-1] == pytest.approx(target, abs=1e-12)


def test_dp_single_batch_closed_form():
    su = summary_for(np.array([[3.0]]), 1, 2.0)
    for alpha in (2, 3, 17):
        assert renyi_remove_orders(su, alpha)[-1] == pytest.approx(
            alpha * 3.0 / (2 * 4.0), abs=1e-12
        )


def test_dp_matches_bruteforce_banded_random():
    rng = np.random.default_rng(42)
    for _ in range(25):
        b = int(rng.integers(2, 7))
        p = int(rng.integers(1, b + 1))
        k = int(rng.integers(1, 4))
        g = banded_instance(rng, b, k, width=min(p, b))
        sigma = float(rng.uniform(0.5, 2.0))
        su = summary_for(g, p, sigma)
        assert su.tau == 0.0
        for alpha in (2, 3, 4):
            dp = renyi_remove_orders(su, alpha)[-1]
            bf = renyi_remove_bruteforce(g, sigma, alpha)
            assert abs(dp - bf) < 1e-9


@pytest.mark.parametrize("p", range(1, 9))
@pytest.mark.parametrize("offset", (-1, 1))
def test_dp_matches_bruteforce_at_every_bandwidth(p, offset):
    # b = 2p - 1 is the shortest schedule the forward DP serves: there the
    # wrap-around closure meets the forward band, and band p already covers
    # every index pair.  Two epochs make the Gram wrap around.
    b = 2 * p + offset
    rng = np.random.default_rng(10 * p + b)
    sigma = float(rng.uniform(0.7, 1.5))
    exact = summary_for(banded_instance(rng, b, 2, width=p), p, sigma)
    truncated = summary_for(banded_instance(rng, b, 2, width=p + 1), p, sigma)
    assert exact.tau == 0.0
    assert (truncated.tau > 0.0) == (b > 2 * p)
    for alpha in (2, 3, 4):
        rho = renyi_remove_orders(exact, alpha)[-1]
        assert abs(rho - renyi_remove_bruteforce(exact.gram, sigma, alpha)) < 1e-9
        bound = renyi_remove_orders(truncated, alpha)[-1]
        assert bound >= renyi_remove_bruteforce(truncated.gram, sigma, alpha) - 1e-12


def test_dp_upper_bounds_bruteforce_with_truncation():
    d = inv_sqrt_toeplitz_coefficients(3)
    strategy = invert_banded_toeplitz(d, 12)
    g = gram(mixture_means(strategy, Schedule(2, 6)))
    for p in (1, 2, 3):
        su = summary_for(g, p, 1.0)
        assert su.tau > 0.0
        for alpha in (2, 3):
            rho = renyi_remove_orders(su, alpha)[-1]
            assert rho >= renyi_remove_bruteforce(g, 1.0, alpha) - 1e-12


def test_dp_bandwidth_monotone():
    d = inv_sqrt_toeplitz_coefficients(4)
    strategy = invert_banded_toeplitz(d, 12)
    g = gram(mixture_means(strategy, Schedule(2, 6)))
    rng = np.random.default_rng(3)
    for alpha in (2, 3, 4):
        rhos = [renyi_remove_orders(summary_for(g, p, 1.0), alpha)[-1] for p in range(1, 7)]
        assert all(a >= b - 1e-12 for a, b in zip(rhos, rhos[1:]))


def test_dp_bsr_small_instance_vs_bruteforce():
    # bandwidth-4 square-root factor on a small schedule, truncated at p = 4
    strategy = StrategyMatrix.from_toeplitz(sqrt_toeplitz_coefficients(4), size=12)
    g = gram(mixture_means(strategy, Schedule(2, 6)))
    su = summary_for(g, 4, 1.0)
    assert su.tau == 0.0  # bandwidth-4 factor gives a 4-cyclic-banded Gram
    for alpha in (2, 3, 4):
        rho = renyi_remove_orders(su, alpha)[-1]
        assert abs(rho - renyi_remove_bruteforce(g, 1.0, alpha)) < 1e-9


def test_add_bound_cases():
    assert renyi_add_bound(np.array([[3.0]]), 2.0, 5) == pytest.approx(1.875, abs=1e-12)
    assert renyi_add_bound(np.eye(2), 1.0, 3) == pytest.approx(1.0, abs=1e-12)
    g = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert renyi_add_bound(3.0 * g, 1.0, 4) == pytest.approx(
        3.0 * renyi_add_bound(g, 1.0, 4), abs=1e-12
    )


def test_add_bound_dominates_quadrature_on_collinear_instances():
    rng = np.random.default_rng(11)
    for _ in range(5):
        ts = rng.uniform(0.0, 1.5, size=2)
        sigma = float(rng.uniform(0.8, 2.0))
        g = np.outer(ts, ts)
        for alpha in (2, 3):
            bound = renyi_add_bound(g, sigma, alpha)
            exact = collinear_add_renyi_quadrature(ts, sigma, alpha)
            assert bound >= exact - 1e-9


def test_renyi_to_delta_identities():
    assert renyi_to_delta(1.0, 2, 1.0) == 0.25
    assert renyi_to_delta(0.620115, 2, 1.0) == pytest.approx(
        math.exp(-0.379885) / 4.0, rel=1e-12
    )
    deltas = [renyi_to_delta(0.5, 3, eps) for eps in np.linspace(0.0, 20.0, 40)]
    assert all(a > b or (a == b == 0.0) for a, b in zip(deltas, deltas[1:]))
    assert renyi_to_delta(0.5, 3, 50.0) < 1e-40


@settings(max_examples=40, deadline=None)
@given(
    rho=st.floats(0.0, 5.0),
    alpha=st.integers(2, 64),
    eps1=st.floats(-1.0, 10.0),
    gap=st.floats(0.01, 5.0),
)
def test_renyi_to_delta_monotone(rho, alpha, eps1, gap):
    assert renyi_to_delta(rho, alpha, eps1) >= renyi_to_delta(rho, alpha, eps1 + gap)
    assert renyi_to_delta(rho + gap, alpha, eps1) >= renyi_to_delta(rho, alpha, eps1)


def test_account_single_gaussian_reduction():
    # b = 1, k = 1: the pair is a plain Gaussian and rho = alpha/(2 sigma^2)
    sigma, eps = 1.3, 1.0
    delta = profile("renyi", build_identity(1), Schedule(1, 1), sigma, [eps])[0].delta
    manual = min(
        renyi_to_delta(a / (2 * sigma**2), a, eps) for a in range(2, 65)
    )
    assert delta == pytest.approx(manual, rel=1e-12)


def test_account_monotone_in_epsilon_and_sigma():
    strategy = build_identity(20)
    sched = Schedule(2, 10)
    deltas = [profile("renyi", strategy, sched, 1.0, [e])[0].delta for e in (0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b for a, b in zip(deltas, deltas[1:]))
    deltas_sigma = [profile("renyi", strategy, sched, s, [1.0])[0].delta for s in (0.5, 1.0, 2.0)]
    assert all(a >= b for a, b in zip(deltas_sigma, deltas_sigma[1:]))


def test_account_zero_mechanism_gives_zero_delta():
    zero = StrategyMatrix.from_dense(np.zeros((4, 4)))
    assert profile("renyi", zero, Schedule(2, 2), 1.0, [0.5])[0].delta == 0.0
    with pytest.raises(ValueError, match="bandwidth"):
        profile("renyi", zero, Schedule(2, 2), 1.0, [0.5], bandwidth=0)


def test_curve_exactness_flag():
    c = renyi_curve(build_identity(6), Schedule(2, 3), 1.0, (2, 3))
    assert c.exact.all()
    d = inv_sqrt_toeplitz_coefficients(3)
    strategy = invert_banded_toeplitz(d, 12)
    c2 = renyi_curve(strategy, Schedule(2, 6), 1.0, (2, 3), bandwidth=2)
    assert not c2.exact.any()


def test_curve_adapts_bandwidth_for_expensive_orders():
    # dense-ish strategy on few batches: small orders evaluate exactly at the
    # full band, large orders drop to a narrower band (upper bound) instead of
    # enumerating tens of millions of count vectors
    d = inv_sqrt_toeplitz_coefficients(4)
    strategy = invert_banded_toeplitz(d, 12)
    c = renyi_curve(strategy, Schedule(2, 6), 1.0, (2, 48))
    assert c.exact[0]
    assert not c.exact[1]
    assert np.all(c.rho_remove >= 0)


def test_alpha_validation():
    su = summary_for(np.eye(2), 1, 1.0)
    with pytest.raises(ValueError):
        renyi_remove_orders(su, 1)
    with pytest.raises(ValueError):
        renyi_to_delta(-0.1, 2, 1.0)
    with pytest.raises(ValueError):
        renyi_curve(build_identity(2), Schedule(1, 2), 1.0, ())


def _bsr(p, n):
    return StrategyMatrix.from_toeplitz(sqrt_toeplitz_coefficients(p), size=n)


def _bisr(p, n):
    return invert_banded_toeplitz(inv_sqrt_toeplitz_coefficients(p), n)


# (strategy, schedule, bandwidth, top order, expected tau > 0), one per path
# of renyi_remove_orders.
ONE_PASS_PATHS = {
    "p1": (build_identity(40), Schedule(2, 20), 1, 40, False),
    "p2": (_bisr(4, 24), Schedule(1, 24), 2, 16, True),
    "banded-exact": (_bsr(4, 16), Schedule(1, 16), 4, 6, False),
    "banded-tau": (_bisr(4, 16), Schedule(1, 16), 5, 4, True),
    "compositions": (_bisr(4, 12), Schedule(2, 6), 4, 10, False),
    "b1": (build_identity(3), Schedule(3, 1), 1, 64, False),
}


@pytest.mark.parametrize("path", sorted(ONE_PASS_PATHS))
def test_one_pass_matches_per_order_evaluation(path):
    strategy, schedule, p, top, truncated = ONE_PASS_PATHS[path]
    su = gram_summary(strategy, schedule, 1.3, p)
    assert (su.tau > 0.0) == truncated
    b = schedule.batches_per_epoch
    if path == "compositions":
        assert b <= 2 * p - 2
    elif path.startswith("banded"):
        assert p >= 3 and b >= 2 * p - 1
    rho = renyi_remove_orders(su, top)
    assert rho.shape == (top - 1,)
    for a in range(2, top + 1):
        single = renyi_remove_orders(su, a)[-1]
        assert rho[a - 2] == pytest.approx(single, rel=1e-12, abs=1e-300)


def test_curve_bandwidth_and_exact_flags_per_order():
    # BISR at the default cap: low orders run at p = 8 on a truncated band,
    # higher ones narrow; BSR at its own bandwidth stays exact throughout.
    for strategy, schedule, alphas, flags in [
        (_bisr(4, 16), Schedule(1, 16), tuple(range(2, 7)), [False] * 5),
        (_bsr(4, 16), Schedule(1, 16), tuple(range(2, 6)), [True] * 4),
        (_bisr(4, 12), Schedule(2, 6), (2, 3, 10, 48), [True, True, True, False]),
    ]:
        curve = renyi_curve(strategy, schedule, 1.0, alphas)
        assert curve.exact.tolist() == flags
        b = schedule.batches_per_epoch
        cap = min(strategy.bandwidth, 8, b)
        for j, a in enumerate(alphas):
            su = gram_summary(strategy, schedule, 1.0, _affordable_bandwidth(b, cap, a))
            assert curve.exact[j] == (su.tau == 0.0)
            assert curve.rho_remove[j] == pytest.approx(
                renyi_remove_orders(su, a)[-1], rel=1e-12
            )


def test_curve_runs_one_pass_per_bandwidth_group(monkeypatch):
    tops = []
    original = renyi.renyi_remove_orders

    def counting(summary, alpha_max):
        tops.append((summary.bandwidth, alpha_max))
        return original(summary, alpha_max)

    monkeypatch.setattr(renyi, "renyi_remove_orders", counting)
    # BISR p=4 on b=16 at the default cap 8: orders 2-3 at p=8, order 4 at p=7.
    renyi_curve(_bisr(4, 16), Schedule(1, 16), 1.0, (2, 3, 4))
    assert tops == [(8, 3), (7, 4)]
    tops.clear()
    renyi_curve(build_identity(20), Schedule(1, 20), 1.0)
    assert tops == [(1, 64)]
