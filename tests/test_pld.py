import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balloc
from balloc import pld as pld_module
from balloc.pld import (
    _DIRECT_CONV_LIMIT,
    ADD,
    REMOVE,
    DiscretePLD,
    MixGaussPair,
    auto_spacing,
    compose,
    compose_power,
    delta_at,
    discretize,
    point_mass_pld,
)
from balloc.pld import (
    _convolve,
    _loss_range,
    _mix_loss_inverse,
    _mix_loss_slope,
)

from oracles import (
    compose_direct,
    gaussian_profile_delta,
    hockey_stick,
    hockey_stick_grid,
    hockey_stick_quadrature,
    mix_loss_inverse_bisection,
)


def random_pair(rng, max_components=3):
    b = int(rng.integers(1, max_components + 1))
    means = np.sort(rng.uniform(0.0, 2.0, b))
    weights = rng.dirichlet(np.ones(b))
    sigma = float(rng.uniform(0.5, 2.0))
    direction = REMOVE if rng.random() < 0.5 else ADD
    return MixGaussPair(means, weights, sigma, direction)


def test_pair_canonicalization():
    pair = MixGaussPair([1.0, 0.0, 1.0], [0.25, 0.5, 0.25], 1.0, REMOVE)
    assert pair.means == pytest.approx([0.0, 1.0])
    assert pair.weights == pytest.approx([0.5, 0.5])
    with pytest.raises(ValueError):
        MixGaussPair([1.0], [0.9], 1.0, REMOVE)
    with pytest.raises(ValueError):
        MixGaussPair([-0.5], [1.0], 1.0, REMOVE)
    with pytest.raises(ValueError):
        MixGaussPair([1.0], [1.0], 0.0, REMOVE)
    with pytest.raises(ValueError):
        MixGaussPair([1.0], [1.0], 1.0, "sideways")


def test_hockey_stick_single_gaussian_profile():
    pair = MixGaussPair([1.0], [1.0], 1.0, REMOVE)
    assert hockey_stick(pair, 0.0) == pytest.approx(gaussian_profile_delta(1, 1, 0), abs=1e-12)
    for eps in (0.5, 1.0, 2.0):
        assert hockey_stick(pair, eps) == pytest.approx(
            gaussian_profile_delta(1, 1, eps), abs=1e-12
        )


def test_hockey_stick_zero_weight_components_ignored():
    a = MixGaussPair([1.0], [1.0], 1.0, REMOVE)
    b = MixGaussPair([1.0, 2.0, 3.0], [1.0, 0.0, 0.0], 1.0, REMOVE)
    for eps in (0.0, 1.0):
        assert hockey_stick(a, eps) == hockey_stick(b, eps)


def test_hockey_stick_identical_pair():
    pair = MixGaussPair([0.0, 0.0], [0.5, 0.5], 1.0, REMOVE)
    assert hockey_stick(pair, 0.5) == 0.0
    assert hockey_stick(pair, 0.0) == 0.0


def test_hockey_stick_large_epsilon():
    pair = MixGaussPair([1.0], [1.0], 1.0, REMOVE)
    assert hockey_stick(pair, 40.0) <= 1e-15


def test_hockey_stick_matches_quadrature():
    rng = np.random.default_rng(1)
    for _ in range(6):
        pair = random_pair(rng)
        eps = float(rng.uniform(0.0, 1.5))
        truth = hockey_stick_quadrature(pair.means, pair.weights, pair.sigma, eps, pair.direction)
        assert hockey_stick(pair, eps) == pytest.approx(truth, abs=1e-8)


def test_hockey_stick_at_zero_is_total_variation():
    rng = np.random.default_rng(2)
    for _ in range(4):
        pair = random_pair(rng)
        tv = hockey_stick_quadrature(pair.means, pair.weights, pair.sigma, 0.0, pair.direction)
        assert hockey_stick(pair, 0.0) == pytest.approx(tv, abs=1e-8)


def test_discretize_dominates_everywhere():
    rng = np.random.default_rng(3)
    for _ in range(8):
        pair = random_pair(rng)
        pld = discretize(pair, 0.01)
        assert abs(pld.total_mass() - 1.0) < 1e-9
        for eps in rng.uniform(-1.0, 4.0, 50):
            assert delta_at(pld, float(eps)) >= hockey_stick(pair, float(eps)) - 1e-12


def test_discretize_gap_shrinks_with_h():
    pair = MixGaussPair([0.4, 1.3], [0.6, 0.4], 1.0, REMOVE)
    eps = 0.7
    exact = hockey_stick(pair, eps)
    gaps = [delta_at(discretize(pair, h), eps) - exact for h in (0.08, 0.04, 0.02)]
    # off-grid epsilon: the chord gap decays at least linearly, factor-3 slack
    assert gaps[1] <= gaps[0] * 1.5 + 1e-15
    assert gaps[2] <= gaps[1] * 1.5 + 1e-15
    assert all(g >= -1e-12 for g in gaps)


def test_discretize_zero_mechanism_is_point_mass():
    pair = MixGaussPair([0.0, 0.0], [0.3, 0.7], 1.0, REMOVE)
    pld = discretize(pair, 1e-3)
    assert pld.pmf.size == 1
    assert pld.lo_index == 0
    assert pld.pmf[0] == 1.0
    assert delta_at(pld, 0.0) == 0.0


def test_compose_point_mass_identity():
    pair = MixGaussPair([1.0], [1.0], 1.0, REMOVE)
    pld = discretize(pair, 1e-3)
    composed = compose([pld, point_mass_pld(1e-3)])
    assert composed.lo_index == pld.lo_index
    assert np.allclose(composed.pmf, pld.pmf)


def test_compose_two_gaussians_matches_sqrt2_profile():
    pld = discretize(MixGaussPair([1.0], [1.0], 1.0, REMOVE), 1e-3)
    two = compose([pld, pld])
    for eps in (0.0, 1.0, 2.0):
        truth = gaussian_profile_delta(np.sqrt(2.0), 1.0, eps)
        assert delta_at(two, eps) == pytest.approx(truth, abs=5e-4)
        assert delta_at(two, eps) >= truth - 1e-12


def test_compose_requires_matching_grids():
    a = discretize(MixGaussPair([1.0], [1.0], 1.0, REMOVE), 1e-3)
    b = discretize(MixGaussPair([1.0], [1.0], 1.0, REMOVE), 2e-3)
    with pytest.raises(ValueError):
        compose([a, b])


def test_compose_power_matches_sequential():
    pld = discretize(MixGaussPair([1.0], [1.0], 1.0, REMOVE), 5e-3)
    fast = compose_power(pld, 8)
    slow = compose([pld] * 8)
    assert abs(fast.total_mass() - 1.0) < 1e-9
    assert abs(slow.total_mass() - 1.0) < 1e-9
    assert fast.lo_index == slow.lo_index
    n = max(fast.pmf.size, slow.pmf.size)
    pa = np.pad(fast.pmf, (0, n - fast.pmf.size))
    pb = np.pad(slow.pmf, (0, n - slow.pmf.size))
    assert np.abs(pa - pb).sum() < 1e-10


@pytest.mark.parametrize("direction", [REMOVE, ADD])
def test_tree_compose_matches_direct_convolution(direction, monkeypatch):
    # The balanced tree against a left fold of direct np.convolve, which has
    # no FFT cancellation.  Odd piece counts carry a piece up a level, and one
    # short piece (small means, so few points at the shared spacing) joins
    # each composition, so both convolution paths run.
    shorter = []
    convolve = pld_module._convolve

    def recording(a, b):
        shorter.append(min(a.size, b.size))
        return convolve(a, b)

    monkeypatch.setattr(pld_module, "_convolve", recording)
    rng = np.random.default_rng(11)
    for count in (3, 8, 13):
        pairs = [
            MixGaussPair(
                np.sort(rng.uniform(0.0, 1.5, 3)),
                rng.dirichlet(np.ones(3)),
                float(rng.uniform(0.8, 1.5)),
                direction,
            )
            for _ in range(count)
        ]
        pairs.append(MixGaussPair([0.0, 0.05], [0.5, 0.5], 1.0, direction))
        h = auto_spacing(pairs)
        pieces = [discretize(pair, h) for pair in pairs]
        tree, direct = compose(pieces), compose_direct(pieces)
        assert (tree.lo_index, tree.pmf.size) == (direct.lo_index, direct.pmf.size)
        for eps in np.linspace(0.0, 8.0, 33):
            assert abs(delta_at(tree, eps) - delta_at(direct, eps)) <= 5e-14
    assert min(shorter) <= _DIRECT_CONV_LIMIT < max(shorter)


def test_composition_preserves_dominance_two_fold():
    # quadrature oracle for the exact two-fold delta of a product pair
    rng = np.random.default_rng(4)
    pair = MixGaussPair([0.0, 1.0], [0.7, 0.3], 1.0, REMOVE)
    pld = discretize(pair, 5e-3)
    two = compose([pld, pld])
    # exact two-fold delta by 2-d integration on a grid (product measure)
    ys = np.linspace(-9, 10, 1200)
    dy = ys[1] - ys[0]
    from oracles import mixture_pdf
    from scipy.stats import norm
    p1 = mixture_pdf(ys, pair.means, pair.weights, 1.0)
    q1 = norm.pdf(ys)
    P = np.outer(p1, p1)
    Q = np.outer(q1, q1)
    for eps in (0.5, 1.5):
        truth = np.maximum(P - np.exp(eps) * Q, 0.0).sum() * dy * dy
        assert delta_at(two, eps) >= truth - 1e-6


def test_delta_at_point_mass_and_total_mass():
    pm = point_mass_pld(1e-3)
    assert delta_at(pm, 0.0) == 0.0
    assert delta_at(pm, 5.0) == 0.0
    assert delta_at(pm, -50.0) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), eps=st.floats(-0.5, 3.0))
def test_delta_curve_convex_in_exp_eps(seed, eps):
    rng = np.random.default_rng(seed)
    pair = random_pair(rng)
    pld = discretize(pair, 0.02)
    e1, e2 = eps, eps + 0.3
    gammas = np.exp([e1, (e1 + e2) / 2.0, e2])
    d = [delta_at(pld, float(np.log(g))) for g in gammas]
    chord = d[0] + (d[2] - d[0]) * (gammas[1] - gammas[0]) / (gammas[2] - gammas[0])
    assert d[1] <= chord + 1e-12
    assert d[0] >= d[1] >= d[2] - 1e-15


def test_auto_spacing_targets_support():
    pairs = [MixGaussPair([1.0], [1.0], 1.0, REMOVE)]
    h = auto_spacing(pairs)
    pld = discretize(pairs[0], h)
    assert 998 <= pld.pmf.size <= 1002


@pytest.mark.parametrize("direction", [REMOVE, ADD])
def test_loss_range_ignores_weight_rounding(direction):
    # The grid ends are tail cuts of TAIL_MASS = 1e-15; a 1e-15 perturbation
    # of the weights, renormalized, changes their sum by ulps only and must
    # not move either end (a cut through 1 - TAIL_MASS moves by ~1e-2).
    rng = np.random.default_rng(5)
    means = np.sort(rng.uniform(0.0, 3.0, 12))
    weights = rng.dirichlet(np.ones(12))
    base = _loss_range(MixGaussPair(means, weights, 1.7, direction))
    for _ in range(8):
        nudged = weights + 1e-15 * rng.uniform(0.0, 1.0, weights.size)
        nudged /= nudged.sum()
        moved = _loss_range(MixGaussPair(means, nudged, 1.7, direction))
        assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)


def _solver_pairs(rng, count):
    """1-5 components, with and without a zero mean, sigma from 0.05 to 100."""
    for _ in range(count):
        k = int(rng.integers(1, 6))
        means = np.sort(rng.uniform(0.0, 3.0, k) * 10.0 ** rng.uniform(-1.0, 1.0))
        if rng.random() < 0.5:
            means[0] = 0.0
        means[-1] = max(means[-1], 0.05)
        sigma = float(np.exp(rng.uniform(math.log(0.05), math.log(100.0))))
        direction = REMOVE if rng.random() < 0.5 else ADD
        yield MixGaussPair(means, rng.dirichlet(np.ones(k)), sigma, direction)


@pytest.mark.filterwarnings("error")
def test_newton_threshold_matches_bisection_oracle(monkeypatch):
    rng = np.random.default_rng(8)
    for pair in _solver_pairs(rng, 300):
        x_lo, x_hi = pair.loss_range
        eps = np.concatenate([np.linspace(x_lo, x_hi, 40), x_hi + rng.uniform(0.0, 500.0, 5)])
        # Losses from below the infimum (log w_0 with a zero mean, else -inf)
        # through the whole grid to far above its top, in both directions.
        ell = np.concatenate([eps, -eps, x_lo - rng.uniform(0.0, 1e3, 3)])
        if pair.means[0] == 0.0:
            ell = np.append(ell, math.log(pair.weights[0]))
        y = _mix_loss_inverse(pair, ell)
        y_oracle = mix_loss_inverse_bisection(pair, ell)
        # Where the loss is flat to within its own rounding (near its infimum),
        # the float loss pins the threshold no closer than that rounding over
        # the slope, for either solver.
        _, slope = _mix_loss_slope(pair, y_oracle)
        with np.errstate(divide="ignore", over="ignore"):
            flat = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(ell)) / slope
        tol = 1e-13 * pair.sigma + 4.0 * np.spacing(np.abs(y_oracle)) + flat
        assert np.all(np.abs(y - y_oracle) <= tol)

        deltas = hockey_stick_grid(pair, eps)
        with monkeypatch.context() as m:
            m.setattr(pld_module, "_mix_loss_inverse", mix_loss_inverse_bisection)
            oracle = hockey_stick_grid(pair, eps)
        assert np.all(np.abs(deltas - oracle) <= np.maximum(1e-12 * oracle, 1e-15))


def test_discretize_counts_its_work(monkeypatch):
    """At most 12 loss evaluations per threshold; each pair's range computed once."""
    calls, ranges = [], []
    slope, loss_range = pld_module._mix_loss_slope, pld_module._loss_range
    monkeypatch.setattr(
        pld_module, "_mix_loss_slope", lambda pair, y: calls.append(pair) or slope(pair, y)
    )
    monkeypatch.setattr(
        pld_module, "_loss_range", lambda pair: ranges.append(pair) or loss_range(pair)
    )
    rng = np.random.default_rng(9)
    for pair in _solver_pairs(rng, 40):
        h = auto_spacing([pair])
        calls.clear()
        discretize(pair, h)
        # one call at the -inf threshold, then one per Newton step, each
        # evaluating every grid point still moving
        assert len(calls) - 1 <= 12
    # the spacing and the grid share each pair's range
    assert len(ranges) == 40


def test_infinity_atom_charges_the_truncated_tail():
    # delta at the top grid point cancels to ~0 in float; the tail's own mass
    # (<= TAIL_MASS) must reach the atom, or tiny composed deltas fall short.
    single = MixGaussPair([1.0], [1.0], 2.55, REMOVE)
    assert delta_at(discretize(single, auto_spacing([single])), 3.0) >= gaussian_profile_delta(
        1.0, 2.55, 3.0
    )
    unit = MixGaussPair([1.0], [1.0], 2.0, REMOVE)
    three = compose_power(discretize(unit, auto_spacing([unit])), 3)
    assert delta_at(three, 12.0) >= gaussian_profile_delta(math.sqrt(3.0), 2.0, 12.0)


def test_compose_infinity_mass_is_exact_for_tiny_atoms():
    mass = 1.05e-15
    atoms = [DiscretePLD(h=0.1, lo_index=0, pmf=np.array([1.0 - mass]), infinity_mass=mass)] * 48
    exact = float(1 - (1 - Fraction(mass)) ** 48)
    assert compose(atoms).infinity_mass == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_convolve_is_bitwise_fftconvolve():
    from scipy.signal import fftconvolve  # oracle only; the package avoids it

    rng = np.random.default_rng(5)
    for _ in range(30):
        # Both sizes on the FFT side of the direct-convolution limit.
        na, nb = (int(n) for n in rng.integers(_DIRECT_CONV_LIMIT + 1, 20000, 2))
        a, b = rng.dirichlet(np.ones(na)), rng.dirichlet(np.ones(nb))
        expected = np.maximum(fftconvolve(a, b), 0.0)
        assert np.array_equal(_convolve(a, b), expected)


def test_import_cli_leaves_scipy_signal_unloaded():
    src = os.path.dirname(os.path.dirname(balloc.__file__))
    code = "import sys, balloc.cli; print('scipy.signal' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
