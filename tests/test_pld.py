import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balloc
from balloc.pld import (
    _DIRECT_CONV_LIMIT,
    ADD,
    REMOVE,
    MixGaussPair,
    auto_spacing,
    compose,
    compose_power,
    delta_at,
    discretize,
    dump_csv,
    hockey_stick,
    point_mass_pld,
)
from balloc.pld import _convolve, _loss_range

from oracles import gaussian_profile_delta, hockey_stick_quadrature


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


def test_csv_dump(tmp_path):
    pld = discretize(MixGaussPair([1.0], [1.0], 1.0, REMOVE), 0.05)
    path = tmp_path / "pld.csv"
    dump_csv(pld, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# h=")
    assert lines[1] == "grid_index,loss,mass"
    assert len(lines) == 2 + pld.pmf.size
    idx, loss, mass = lines[2].split(",")
    assert int(idx) == pld.lo_index
    assert float(loss) == pytest.approx(pld.lo_index * pld.h)
    assert float(mass) == pytest.approx(pld.pmf[0])


def test_convolve_is_bitwise_fftconvolve():
    from scipy.signal import fftconvolve  # oracle only; the package avoids it

    rng = np.random.default_rng(5)
    for _ in range(30):
        na = int(rng.integers(50, 20000))
        nb = int(rng.integers(max(50, _DIRECT_CONV_LIMIT + 1 - na), 20000))
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
