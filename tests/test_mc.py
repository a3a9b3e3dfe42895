import numpy as np
import pytest

from balloc.calibrate import profile
from balloc.mc import mc_delta_from_samples, mc_loss_samples
from balloc.mechanism import (
    Schedule,
    StrategyMatrix,
    build_identity,
    mixture_means,
    sqrt_toeplitz_coefficients,
)

from oracles import (
    TernaryLoss,
    gaussian_profile_delta,
    mc_delta,
    mc_exceedance,
    mc_loss_samples_logsumexp,
)


def test_single_gaussian_within_ci():
    means = mixture_means(build_identity(1), Schedule(1, 1))
    truth = gaussian_profile_delta(1.0, 1.0, 1.0)
    for direction in ("remove", "add"):
        est = mc_delta(means, 1.0, 1.0, direction, 10**5, seed=7)
        assert est.ci_low <= truth <= est.ci_high
        assert est.hoeffding_low <= truth <= est.hoeffding_high
        assert est.hoeffding_low <= est.ci_low <= est.ci_high <= est.hoeffding_high


@pytest.mark.parametrize("kind", ["identity", "bsr"])
@pytest.mark.parametrize("b", [2, 16, 100])
def test_loss_samples_match_the_scipy_logsumexp_form(kind, b):
    sched = Schedule(2, b)
    if kind == "identity":
        strategy = build_identity(2 * b)
    else:
        strategy = StrategyMatrix.from_toeplitz(sqrt_toeplitz_coefficients(4), size=2 * b)
    means = mixture_means(strategy, sched)
    for sigma, direction in [(0.7, "remove"), (2.0, "add"), (2.0, "remove")]:
        fast = mc_loss_samples(means, sigma, direction, 40_000, seed=b)  # two chunks
        reference = mc_loss_samples_logsumexp(means, sigma, direction, 40_000, seed=b)
        assert np.max(np.abs(fast - reference)) <= 1e-13


def test_fixed_seed_is_bit_identical():
    means = mixture_means(build_identity(6), Schedule(2, 3))
    a = mc_delta(means, 1.0, 0.5, "remove", 5000, seed=123)
    b = mc_delta(means, 1.0, 0.5, "remove", 5000, seed=123)
    assert a == b
    c = mc_delta(means, 1.0, 0.5, "remove", 5000, seed=124)
    assert a.point_estimate != c.point_estimate


def test_estimator_floor_at_large_epsilon():
    means = mixture_means(build_identity(4), Schedule(1, 4))
    est = mc_delta(means, 2.0, 30.0, "remove", 10**4, seed=0)
    assert est.point_estimate == 0.0
    assert est.ci_high >= 0.0


def test_monotone_in_epsilon_with_shared_samples():
    means = mixture_means(build_identity(6), Schedule(3, 2))
    samples = mc_loss_samples(means, 1.0, "remove", 2 * 10**4, seed=5)
    deltas = [
        mc_delta_from_samples(samples, e, 0.95, 5).point_estimate
        for e in (0.0, 0.5, 1.0, 2.0)
    ]
    assert all(a >= b for a, b in zip(deltas, deltas[1:]))


def test_sample_count_guard():
    means = mixture_means(build_identity(2), Schedule(1, 2))
    with pytest.raises(ValueError):
        mc_delta(means, 1.0, 1.0, "remove", 999, seed=0)
    with pytest.raises(ValueError):
        mc_delta(means, 1.0, 1.0, "sideways", 10**4, seed=0)


def test_estimates_clamped_to_unit_interval():
    means = mixture_means(build_identity(2), Schedule(2, 1))
    est = mc_delta(means, 0.2, 0.0, "remove", 2000, seed=1)
    assert 0.0 <= est.ci_low <= est.point_estimate <= est.ci_high <= 1.0


def test_exceedance_infinite_thresholds():
    loss_spec = TernaryLoss(np.zeros((1, 2)), np.ones(2), np.zeros((1, 2)), 1.0)
    assert mc_exceedance(loss_spec, -np.inf, 1000, seed=0) == 0.0
    assert mc_exceedance(loss_spec, np.inf, 1000, seed=0) == 1.0


def test_exceedance_matches_analytic_single_component():
    # P = N(0, I), Q = N(mu, I), R = N(0, I): loss is Gaussian with
    # mean |mu|^2/(2 s^2) and std |mu|/s under R
    mu = np.array([1.0, 0.5])
    loss_spec = TernaryLoss(np.zeros((1, 2)), mu, np.zeros((1, 2)), 1.0)
    norm_sq = float(mu @ mu)
    from scipy.stats import norm

    tau = norm_sq / 2.0  # the median of the loss
    freq = mc_exceedance(loss_spec, tau, 10**5, seed=3)
    assert freq == pytest.approx(0.5, abs=0.01)


def test_zero_dimension_prefix_loss_is_zero():
    loss_spec = TernaryLoss(np.zeros((2, 0)), np.zeros(0), np.zeros((1, 0)), 1.0)
    assert mc_exceedance(loss_spec, -0.5, 1000, seed=0) == 0.0
    assert mc_exceedance(loss_spec, 0.5, 1000, seed=0) == 1.0


def test_deterministic_bounds_dominate_mc_small_instance():
    strategy = build_identity(12)
    sched = Schedule(2, 6)
    means = mixture_means(strategy, sched)
    for sigma, eps in [(1.0, 1.0), (2.0, 0.5)]:
        det_r = profile("renyi", strategy, sched, sigma, [eps])[0].delta
        det_c = profile("condcomp", strategy, sched, sigma, [eps], delta_e=1e-7)[0].delta
        for direction in ("remove", "add"):
            est = mc_delta(means, sigma, eps, direction, 10**5, seed=11)
            floor = est.point_estimate - (est.ci_high - est.point_estimate)
            assert det_r >= floor
            assert det_c >= floor
