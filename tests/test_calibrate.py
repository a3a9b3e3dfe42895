import numpy as np
import pytest

from balloc import calibrate, condcomp, mechanism
from balloc.calibrate import (
    SIGMA_MIN,
    PrivacyPoint,
    UnachievableTargetError,
    calibrate_sigma,
    profile,
    smallest_sigma,
)
from balloc.mc import MCEstimate
from balloc.mechanism import (
    Schedule,
    StrategyMatrix,
    build_identity,
    sqrt_toeplitz_coefficients,
)

from oracles import gaussian_profile_delta, gaussian_profile_sigma, smallest_sigma_bisection


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
    assert profile("renyi", strategy, sched, sigma, [eps])[0].delta <= delta
    assert profile("renyi", strategy, sched, sigma / (1 + tol), [eps])[0].delta > delta


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


def test_best_reaches_a_target_only_condcomp_reaches():
    # At epsilon = 0.05 no Renyi order converts to delta <= 1e-5 at any sigma,
    # so a min over two separate searches raised; `best` searches its own
    # profile and lands on condcomp's sigma.
    strategy, sched, eps, delta, tol = build_identity(4), Schedule(1, 4), 0.05, 1e-5, 1e-3
    with pytest.raises(UnachievableTargetError):
        calibrate_sigma("renyi", strategy, sched, eps, delta, tol=tol)
    sigma = calibrate_sigma("best", strategy, sched, eps, delta, tol=tol)

    def best(s):
        return profile("best", strategy, sched, s, [eps], delta_e=delta / 2.0)[0].delta

    assert best(sigma) <= delta < best(sigma / (1 + tol))
    s_c = calibrate_sigma("condcomp", strategy, sched, eps, delta, tol=tol)
    assert s_c / (1 + tol) <= sigma <= s_c * (1 + tol)


def test_unachievable_target():
    with pytest.raises(UnachievableTargetError):
        smallest_sigma(lambda s: 1.0, 1e-5, 1e-3)


def test_smallest_sigma_stops_at_sigma_min():
    assert smallest_sigma(lambda s: 0.0, 1e-5, 1e-3) == SIGMA_MIN
    assert smallest_sigma_bisection(lambda s: 0.0, 1e-5, 1e-3) == SIGMA_MIN


def _synthetic_profiles():
    """Monotone delta(sigma) curves: smooth, kinked, stuck at 1, and 0 above a sigma."""
    gauss = lambda s: gaussian_profile_delta(1.0, s, 1.0)
    return {
        "gaussian": gauss,
        "kinked": lambda s: min(gaussian_profile_delta(1.0, s, 0.5), gaussian_profile_delta(3.0, s, 4.0)),
        "stuck-at-1": lambda s: 1.0 if s < 2.0 else gauss(s),
        "zero-above": lambda s: 0.0 if s > 3.0 else gauss(s),
    }


@pytest.mark.parametrize("name", sorted(_synthetic_profiles()))
def test_smallest_sigma_contract_against_bisection(name):
    delta_fn = _synthetic_profiles()[name]
    for target in (1e-12, 1e-9, 1e-6, 1e-4, 1e-2):
        for tol in (1e-4, 1e-3, 1e-2):
            sigma = smallest_sigma(delta_fn, target, tol)
            assert delta_fn(sigma) <= target < delta_fn(sigma / (1 + tol)), (target, tol)
            reference = smallest_sigma_bisection(delta_fn, target, tol)
            assert reference / (1 + tol) <= sigma <= reference * (1 + tol), (target, tol)


def test_condcomp_calibration_takes_few_probes(monkeypatch):
    # Doubling from 0.25 and then bisecting took 16-17 probes here.
    probes = []
    search = calibrate.smallest_sigma

    def counting(delta_fn, delta_target, tol):
        def probe(sigma):
            probes.append(sigma)
            return delta_fn(sigma)

        return search(probe, delta_target, tol)

    monkeypatch.setattr(calibrate, "smallest_sigma", counting)
    sigma = calibrate_sigma("condcomp", build_identity(6), Schedule(3, 2), 0.5, 1e-5)
    assert sigma in probes
    assert len(probes) <= 10


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
    sigma = calibrate_sigma(
        "mc", build_identity(1), Schedule(1, 1), 1.0, 1e-2, n_samples=10**5, seed=3
    )
    oracle = gaussian_profile_sigma(1.0, 1.0, 1e-2)
    assert sigma == pytest.approx(oracle, rel=0.05)
    again = calibrate_sigma(
        "mc", build_identity(1), Schedule(1, 1), 1.0, 1e-2, n_samples=10**5, seed=3
    )
    assert sigma == again


def test_mc_reference_calibration_is_pinned():
    # The seeded Monte Carlo delta function pins the bisection oracle's sigma
    # (the values calibration returned while it bisected); the shipped search
    # returns another point of the same tol-bracket, so it is held to the
    # contract on the same function.
    bsr = StrategyMatrix.from_toeplitz(sqrt_toeplitz_coefficients(3), size=8)
    cases = [
        (build_identity(4), Schedule(2, 2), 1.0, 1e-3, dict(n_samples=10**4, seed=5), 2.670282146407812),
        (bsr, Schedule(2, 4), 2.0, 1e-4, dict(n_samples=4000, seed=11), 1.7761277483598343),
    ]
    for strategy, sched, eps, tol, kwargs, pinned in cases:
        delta_fn = lambda s: profile("mc", strategy, sched, s, [eps], **kwargs)[0].delta
        assert smallest_sigma_bisection(delta_fn, 1e-3, tol) == pytest.approx(pinned, rel=1e-12)
        sigma = calibrate_sigma("mc", strategy, sched, eps, 1e-3, tol=tol, **kwargs)
        assert delta_fn(sigma) <= 1e-3 < delta_fn(sigma / (1 + tol))
        assert sigma == pytest.approx(pinned, rel=tol)


def test_calibration_probes_the_one_epsilon_profile():
    strategy, sched = build_identity(6), Schedule(2, 3)
    for method, kwargs in [
        ("renyi", {}), ("condcomp", {"delta_e": 0.5e-5}), ("best", {"delta_e": 0.5e-5})
    ]:
        sigma = calibrate_sigma(method, strategy, sched, 1.0, 1e-5, tol=1e-3)
        assert profile(method, strategy, sched, sigma, [1.0], **kwargs)[0].delta <= 1e-5
        below = sigma / (1 + 1e-3)
        assert profile(method, strategy, sched, below, [1.0], **kwargs)[0].delta > 1e-5


def test_profile_builds_the_mixture_means_once(monkeypatch):
    # BSR p=4 at b=20 runs its orders at several bandwidths, each of which
    # used to rebuild the means.
    calls = []
    build = mechanism.mixture_means

    def counting(strategy, schedule):
        calls.append(schedule)
        return build(strategy, schedule)

    for module in (mechanism, condcomp, calibrate):
        monkeypatch.setattr(module, "mixture_means", counting)
    bsr = StrategyMatrix.from_toeplitz(sqrt_toeplitz_coefficients(4), size=20)
    for method, kwargs in [
        ("renyi", {"alpha_set": range(2, 25)}),
        ("condcomp", {}),
        ("mc", {"n_samples": 1000, "seed": 1}),
    ]:
        calls.clear()
        profile(method, bsr, Schedule(1, 20), 1.5, [1.0, 2.0], **kwargs)
        assert len(calls) == 1, method


def test_profile_point_records():
    strategy = StrategyMatrix.from_toeplitz(sqrt_toeplitz_coefficients(3), size=8)
    sched = Schedule(2, 4)
    grid = [0.5, 2.0]
    r = profile("renyi", strategy, sched, 1.5, grid, alpha_set=range(2, 13))
    c = profile("condcomp", strategy, sched, 1.5, grid, delta_e=1e-7)
    b = profile("best", strategy, sched, 1.5, grid, alpha_set=range(2, 13), delta_e=1e-7)
    m = profile("mc", strategy, sched, 1.5, grid, n_samples=5000, seed=3)
    for j in range(len(grid)):
        assert max(r[j].breakdown.values()) == r[j].delta
        assert c[j].delta == min(1.0, max(c[j].breakdown.values()) + 1e-7)
        assert c[j].alpha is None
        assert b[j].breakdown == {"renyi": r[j].delta, "condcomp": c[j].delta}
        assert (b[j].delta, b[j].alpha, b[j].method) == (min(r[j].delta, c[j].delta), r[j].alpha, "best")
        assert set(m[j].breakdown) == {"remove", "add"}
        assert isinstance(m[j].estimate, MCEstimate)
        assert m[j].delta == m[j].estimate.point_estimate == max(m[j].breakdown.values())
        assert r[j].estimate is c[j].estimate is b[j].estimate is None


@pytest.mark.parametrize("kind", ["zero", "identity"])
@pytest.mark.parametrize("call", [
    lambda m, s: profile("renyi", m, s, -1.0, [1.0]),
    lambda m, s: profile("renyi", m, s, 1.0, [1.0], bandwidth=3),
    lambda m, s: profile("condcomp", m, s, -1.0, [1.0], delta_e=1e-6),
    lambda m, s: profile("condcomp", m, s, 1.0, [1.0], delta_e=0.0),
    lambda m, s: profile("condcomp", m, s, 1.0, [1.0], allocation="bogus"),
    lambda m, s: profile("renyi", m, s, 1.0, [1.0], bandwidth=0),
    lambda m, s: profile("condcomp", m, s, 1.0, [1.0], delta_e=5.0),
    lambda m, s: profile("best", m, s, -1.0, [1.0]),
    lambda m, s: profile("mc", m, s, -1.0, [1.0], n_samples=1000, seed=1),
], ids=[
    "renyi-sigma", "renyi-bandwidth", "condcomp-sigma", "condcomp-delta_e",
    "condcomp-allocation", "profile-bandwidth", "profile-delta_e", "best-sigma", "mc-sigma",
])
def test_zero_mechanism_validates_before_its_shortcut(kind, call):
    strategy = StrategyMatrix.from_dense(np.zeros((4, 4))) if kind == "zero" else build_identity(4)
    with pytest.raises(ValueError):
        call(strategy, Schedule(2, 2))


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
    for method in ("renyi", "condcomp"):
        points = profile(method, zero, Schedule(2, 2), 1.0, [-1.0, 1.0], delta_e=1e-3)
        identical = -np.expm1(-1.0)  # no bad event is charged
        assert [p.delta for p in points] == [identical, 0.0]
        assert [p.breakdown for p in points] == [
            {"remove": identical, "add": identical}, {"remove": 0.0, "add": 0.0}
        ]


def test_profile_requires_ascending_grid():
    with pytest.raises(ValueError):
        profile("renyi", build_identity(2), Schedule(1, 2), 1.0, [1.0, 0.5])
    with pytest.raises(ValueError):
        profile("mc", build_identity(2), Schedule(1, 2), 1.0, [0.5, 1.0])  # no seed


@pytest.mark.parametrize("method", ["renyi", "condcomp", "best", "mc"])
@pytest.mark.parametrize("sigma, grid", [
    (1.0, [float("nan")]),
    (1.0, [float("nan"), 1.0]),
    (1.0, [0.5, float("inf")]),
    (float("inf"), [1.0]),
    (float("nan"), [1.0]),
])
def test_profile_rejects_non_finite_inputs(method, sigma, grid):
    # NaN compares false, so it would slip through the ascending check and
    # read out as delta_E plus dust; inf sigma would certify delta ~ 0.
    with pytest.raises(ValueError, match="finite"):
        profile(method, build_identity(4), Schedule(2, 2), sigma, grid, seed=1)


@pytest.mark.parametrize(
    "epsilon, tol", [(float("nan"), 1e-3), (float("inf"), 1e-3), (1.0, float("nan"))]
)
def test_calibrate_rejects_non_finite_inputs(epsilon, tol):
    with pytest.raises(ValueError, match="finite"):
        calibrate_sigma("condcomp", build_identity(4), Schedule(2, 2), epsilon, 1e-5, tol=tol)


def test_profile_crossings_are_few():
    strategy = build_identity(20)
    sched = Schedule(1, 20)
    grid = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    rp = profile("renyi", strategy, sched, 1.0, grid)
    cp = profile("condcomp", strategy, sched, 1.0, grid, delta_e=1e-7)
    signs = [np.sign(r.delta - c.delta) for r, c in zip(rp, cp)]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b and a != 0 and b != 0)
    assert changes <= 3
