import numpy as np
import pytest

from balloc.calibrate import (
    PrivacyPoint,
    UnachievableTargetError,
    calibrate_sigma,
    calibrate_sigma_mc,
    profile,
    smallest_sigma,
)
from balloc.mechanism import Schedule, StrategyMatrix, build_identity
from balloc.renyi import renyi_account

from oracles import gaussian_profile_delta, gaussian_profile_sigma


def test_single_step_gaussian_calibration():
    # N = k = b = 1 with the condcomp accountant: the composed profile is the
    # plain Gaussian profile, so calibration matches the closed form at the
    # delta_comp = delta/2 split
    eps, delta = 1.0, 1e-5
    sigma = calibrate_sigma(
        "condcomp", build_identity(1), Schedule(1, 1), eps, delta, tol=1e-4
    )
    oracle = gaussian_profile_sigma(1.0, eps, delta / 2.0)
    assert sigma == pytest.approx(oracle, rel=2e-3)


def test_renyi_calibration_bracket_and_certificate():
    strategy = build_identity(10)
    sched = Schedule(2, 5)
    eps, delta, tol = 1.0, 1e-5, 1e-3
    sigma = calibrate_sigma("renyi", strategy, sched, eps, delta, tol=tol)
    assert renyi_account(strategy, sched, sigma, eps)[0] <= delta
    assert renyi_account(strategy, sched, sigma * (1 - 2 * tol), eps)[0] > delta


def test_sigma_monotone_in_epsilon():
    strategy = build_identity(8)
    sched = Schedule(2, 4)
    sigmas = [calibrate_sigma("renyi", strategy, sched, e, 1e-5) for e in (0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b * (1 - 2e-3) for a, b in zip(sigmas, sigmas[1:]))


def test_best_is_min_of_methods():
    strategy = build_identity(6)
    sched = Schedule(2, 3)
    s_r = calibrate_sigma("renyi", strategy, sched, 1.0, 1e-5)
    s_c = calibrate_sigma("condcomp", strategy, sched, 1.0, 1e-5)
    s_b = calibrate_sigma("best", strategy, sched, 1.0, 1e-5)
    assert s_b <= min(s_r, s_c) * (1 + 1e-12)


def test_unachievable_target():
    with pytest.raises(UnachievableTargetError):
        smallest_sigma(lambda s: 1.0, 1e-5, 1e-3)


def test_calibrate_validation():
    with pytest.raises(ValueError):
        calibrate_sigma("renyi", build_identity(2), Schedule(1, 2), 1.0, 0.0)
    with pytest.raises(ValueError):
        calibrate_sigma("bogus", build_identity(2), Schedule(1, 2), 1.0, 1e-5)
    with pytest.raises(ValueError):
        calibrate_sigma("renyi", build_identity(2), Schedule(1, 2), 1.0, 1e-5, tol=0.0)
    for fraction in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="delta_e_fraction"):
            calibrate_sigma(
                "condcomp", build_identity(2), Schedule(1, 2), 1.0, 1e-5,
                delta_e_fraction=fraction,
            )


def test_mc_reference_calibration_single_gaussian():
    sigma = calibrate_sigma_mc(
        build_identity(1), Schedule(1, 1), 1.0, 1e-2, n_samples=10**5, seed=3
    )
    oracle = gaussian_profile_sigma(1.0, 1.0, 1e-2)
    assert sigma == pytest.approx(oracle, rel=0.05)
    again = calibrate_sigma_mc(
        build_identity(1), Schedule(1, 1), 1.0, 1e-2, n_samples=10**5, seed=3
    )
    assert sigma == again


def test_profile_monotone_and_methods():
    strategy = build_identity(6)
    sched = Schedule(2, 3)
    grid = [0.25, 0.5, 1.0, 2.0, 4.0]
    for method, kwargs in [
        ("renyi", {}),
        ("condcomp", {"delta_e": 1e-7}),
        ("mc", {"n_samples": 10**4, "seed": 2}),
        ("best", {}),
    ]:
        points = profile(method, strategy, sched, 1.0, grid, **kwargs)
        deltas = [p.delta for p in points]
        assert [p.epsilon for p in points] == grid
        assert all(a >= b for a, b in zip(deltas, deltas[1:])), method
        assert all(isinstance(p, PrivacyPoint) for p in points)


def test_profile_zero_mechanism():
    zero = StrategyMatrix.from_dense(np.zeros((4, 4)))
    points = profile("renyi", zero, Schedule(2, 2), 1.0, [0.0, 1.0, 2.0])
    assert [p.delta for p in points] == [0.0, 0.0, 0.0]


def test_profile_requires_ascending_grid():
    with pytest.raises(ValueError):
        profile("renyi", build_identity(2), Schedule(1, 2), 1.0, [1.0, 0.5])
    with pytest.raises(ValueError):
        profile("mc", build_identity(2), Schedule(1, 2), 1.0, [0.5, 1.0])  # no seed


def test_profile_crossings_are_few():
    strategy = build_identity(20)
    sched = Schedule(1, 20)
    grid = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    rp = profile("renyi", strategy, sched, 1.0, grid)
    cp = profile("condcomp", strategy, sched, 1.0, grid, delta_e=1e-7)
    signs = [np.sign(r.delta - c.delta) for r, c in zip(rp, cp)]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b and a != 0 and b != 0)
    assert changes <= 3
