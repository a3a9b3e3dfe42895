import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import balloc
from balloc import condcomp
from balloc.condcomp import (
    AllocationPlan,
    DEFAULT_FAMILY,
    STRATEGIES,
    VariationalFamily,
    apply_sharing,
    cond_comp_account,
    hazard_from_tail,
    reverse_hazard_weights,
    step_hazards,
    tail_bound_add,
    tail_bound_remove,
)
from balloc.mechanism import (
    Schedule,
    StrategyMatrix,
    build_identity,
    mixture_means,
    sqrt_toeplitz_coefficients,
)
from balloc.mc import TernaryLoss, mc_exceedance, ternary_loss_samples
from balloc.pld import ADD, REMOVE

from oracles import gaussian_profile_delta, single_step_hazards


def test_reverse_hazard_weights_cases():
    assert reverse_hazard_weights([1.0, 0.5]) == pytest.approx([0.5, 0.5])
    assert reverse_hazard_weights([1.0, 0.5, 0.2]) == pytest.approx([0.4, 0.4, 0.2])
    b = 6
    uniform = reverse_hazard_weights([1.0 / i for i in range(1, b + 1)])
    assert uniform == pytest.approx(np.full(b, 1.0 / b))
    with pytest.raises(ValueError):
        reverse_hazard_weights([1.0, 1.5])
    with pytest.raises(ValueError):
        reverse_hazard_weights([0.9, 0.5])
    with pytest.raises(ValueError):
        reverse_hazard_weights([1.0, 0.0])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8), st.integers(0, 10**6))
def test_weights_sum_to_one_and_dominance(raw, seed):
    lam = np.array([1.0] + raw)
    w = reverse_hazard_weights(lam)
    assert abs(w.sum() - 1.0) < 1e-12
    # pointwise-larger hazards give stochastically larger weights:
    # the tail sums P(rank >= i) only grow
    rng = np.random.default_rng(seed)
    bigger = np.minimum(1.0, lam + rng.uniform(0.0, 0.5, lam.size))
    bigger[0] = 1.0
    w2 = reverse_hazard_weights(bigger)
    tail1 = np.cumsum(w[::-1])[::-1]
    tail2 = np.cumsum(w2[::-1])[::-1]
    assert np.all(tail2 >= tail1 - 1e-12)


def test_hazard_from_tail_values():
    assert hazard_from_tail(2, 0.0) == pytest.approx(0.5)
    assert hazard_from_tail(3, 0.0) == pytest.approx(1.0 / 3.0)
    assert hazard_from_tail(2, np.inf) == 0.0
    assert hazard_from_tail(2, -np.inf) == 1.0
    with pytest.raises(ValueError):
        hazard_from_tail(1, 0.0)


def test_tail_bound_add_single_component():
    beta = float(norm.cdf(-2.0))
    tau = tail_bound_add([np.zeros(3)], np.array([1.0, 0.0, 0.0]), 1.0, beta)
    assert tau == pytest.approx(-1.5, abs=1e-9)


def test_point_mass_member_pays_kl(monkeypatch):
    # two distinct candidates; compare a point-mass member against uniform
    mus = [np.array([2.0, 0.0]), np.array([0.0, 2.0])]
    mu_i = np.array([0.0, 0.0])
    beta = 1e-4
    point = np.array([[1.0, 0.0]])
    uniform = np.array([[0.5, 0.5]])
    z = float(norm.ppf(beta))
    monkeypatch.setattr(condcomp, "DEFAULT_FAMILY", _FixedFamily(point))
    tau_point = tail_bound_add(mus, mu_i, 1.0, beta)
    monkeypatch.setattr(condcomp, "DEFAULT_FAMILY", _FixedFamily(uniform))
    tau_unif = tail_bound_add(mus, mu_i, 1.0, beta)
    # point mass: nu = (0 - 4)/2 - log(2); uniform: nu = (0 - 4)/2 - 0
    assert tau_point == pytest.approx(-2.0 - math.log(2.0) + 2.0 * z, abs=1e-9)
    assert tau_unif == pytest.approx(-2.0 + math.sqrt(2.0) * z, abs=1e-9)
    assert tau_point - tau_unif == pytest.approx(
        -math.log(2.0) + (2.0 - math.sqrt(2.0)) * z, abs=1e-9
    )


class _FixedFamily:
    """The same member rows over the candidates of every problem in a batch."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def members(self, sq_dists, candidates=None):
        sq = np.asarray(sq_dists)
        rows = np.zeros(sq.shape[:-1] + (self.rows.shape[0], sq.shape[-1]))
        rows[..., : self.rows.shape[1]] = self.rows
        return rows


def test_tail_bound_remove_single_reference_matches_analytic():
    beta = float(norm.cdf(-2.0))
    mus = [np.zeros(2)]
    mu_i = np.array([1.0, 0.0])
    tails = [np.array([0.5, 0.0])]
    tau = tail_bound_remove(mus, mu_i, tails, 1.0, beta)
    # single psi on the single candidate: nu = rho.(E[mu]-mu_i) + 0.5 = 0
    assert tau == pytest.approx(-2.0, abs=1e-9)


def test_tail_bound_remove_collapsed_mixture():
    # all reference components identical -> same as analytic inverse
    beta = 1e-3
    mus = [np.zeros(2)]
    mu_i = np.array([1.0, 0.0])
    tails = [np.array([0.2, 0.0])] * 4
    tau = tail_bound_remove(mus, mu_i, tails, 1.0, beta)
    nu = 0.2 * (-1.0) + 0.5
    assert tau == pytest.approx(nu + norm.ppf(beta), abs=1e-9)


def test_tail_bound_remove_cdf_hits_beta():
    rng = np.random.default_rng(9)
    for _ in range(5):
        dim = 6
        mus = [rng.normal(size=dim) for _ in range(2)]
        mu_i = rng.normal(size=dim)
        tails = [mu_i] + [rng.normal(size=dim) for _ in range(2)]
        sigma = float(rng.uniform(0.7, 1.5))
        beta = 10 ** float(rng.uniform(-8, -3))
        tau = tail_bound_remove(mus, mu_i, tails, sigma, beta)
        # re-evaluate the variational mixture CDF at the returned tau for the
        # best member: it must sit in [beta - 1e-10, beta]
        best = -np.inf
        v = np.vstack(mus + [mu_i] + tails)
        h = v @ v.T
        i = len(mus)
        d = np.diag(h)[:i] + h[i, i] - 2 * h[i, :i]
        psis = DEFAULT_FAMILY.members(d)
        sig2 = sigma * sigma
        found = False
        for psi in psis:
            kl = float(np.sum(psi[psi > 0] * np.log(psi[psi > 0]))) + math.log(i)
            const = (h[i, i] - psi @ np.diag(h)[:i]) / (2 * sig2) - kl
            xi = math.sqrt((h[i, i] - 2 * psi @ h[i, :i] + psi @ h[:i, :i] @ psi) / sig2)
            nus = np.array(
                [(h[k, :i] @ psi - h[k, i]) / sig2 + const for k in range(i + 1, h.shape[0])]
            )
            cdf = float(np.mean(norm.cdf((tau - nus) / xi)))
            if cdf <= beta + 1e-15:
                found = found or cdf >= beta - 1e-10
        assert found


def test_hazard_monotone_in_beta():
    # larger beta -> larger tau -> smaller hazard bound
    rng = np.random.default_rng(13)
    mus = [rng.normal(size=4) for _ in range(3)]
    mu_i = rng.normal(size=4)
    taus = [tail_bound_add(mus, mu_i, 1.0, b) for b in (1e-8, 1e-5, 1e-3, 1e-1)]
    assert all(a <= b + 1e-12 for a, b in zip(taus, taus[1:]))
    lams = [hazard_from_tail(4, t) for t in taus]
    assert all(a >= b - 1e-12 for a, b in zip(lams, lams[1:]))


def test_variational_bound_is_valid_elbo():
    rng = np.random.default_rng(17)
    dim, i = 5, 4
    mus = [rng.normal(size=dim) for _ in range(i - 1)]
    mu_i = rng.normal(size=dim)
    sigma = 1.2
    v = np.vstack(mus + [mu_i])
    h = v @ v.T
    d = np.diag(h)[: i - 1] + h[i - 1, i - 1] - 2 * h[i - 1, : i - 1]
    psis = DEFAULT_FAMILY.members(d)
    xs = rng.normal(size=(10**4, dim)) * sigma
    mus_arr = np.array(mus)
    log_comp = (
        -((xs[:, None, :] - mus_arr[None]) ** 2).sum(axis=2) / (2 * sigma**2)
    )
    log_den = -((xs - mu_i) ** 2).sum(axis=1) / (2 * sigma**2)
    losses_ij = log_comp - log_den[:, None]
    true_loss = (
        np.log(np.exp(losses_ij - losses_ij.max(axis=1, keepdims=True)).mean(axis=1))
        + losses_ij.max(axis=1)
    )
    for psi in psis:
        kl = float(np.sum(psi[psi > 0] * np.log(psi[psi > 0] * (i - 1))))
        lower = losses_ij @ psi - kl
        assert np.all(true_loss >= lower - 1e-10)


def test_identical_components_are_excluded_but_bound_finite():
    mus = [np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    mu_i = np.array([1.0, 0.0])  # identical to the first two candidates
    tau = tail_bound_add(mus, mu_i, 1.0, 1e-4)
    assert np.isfinite(tau)
    fam = VariationalFamily((math.inf,))
    v = np.vstack(mus + [mu_i])
    h = v @ v.T
    d = np.diag(h)[:3] + h[3, 3] - 2 * h[3, :3]
    members = fam.members(d)
    # uniform-over-all member plus the identical-excluding member
    assert members.shape[0] == 2
    assert members[0] == pytest.approx([1 / 3, 1 / 3, 1 / 3])
    assert members[1] == pytest.approx([0.0, 0.0, 1.0])


def test_all_identical_candidates_give_zero_tau():
    mus = [np.array([1.0, 0.0])] * 3
    mu_i = np.array([1.0, 0.0])
    assert tail_bound_add(mus, mu_i, 1.0, 1e-6) == 0.0


def test_tail_bounds_statistically_sound_small():
    rng = np.random.default_rng(23)
    n_samples = 10**5
    for _ in range(4):
        dim = int(rng.integers(2, 8))
        i = int(rng.integers(2, 5))
        mus = [rng.normal(size=dim) for _ in range(i - 1)]
        mu_i = rng.normal(size=dim)
        sigma = float(rng.uniform(0.7, 1.5))
        beta = 1e-3
        tau_add = tail_bound_add(mus, mu_i, sigma, beta)
        loss_spec = TernaryLoss(np.array(mus), mu_i, np.zeros((1, dim)), sigma)
        freq = mc_exceedance(loss_spec, tau_add, n_samples, seed=int(rng.integers(2**31)))
        assert freq <= beta + 3 * math.sqrt(beta / n_samples)

        tails = [mu_i] + [rng.normal(size=dim) for _ in range(2)]
        tau_rem = tail_bound_remove(mus, mu_i, tails, sigma, beta)
        loss_spec = TernaryLoss(np.array(mus), mu_i, np.array(tails), sigma)
        freq = mc_exceedance(loss_spec, tau_rem, n_samples, seed=int(rng.integers(2**31)))
        assert freq <= beta + 3 * math.sqrt(beta / n_samples)


def _covered_steps(blocks):
    return [n for first, last, _ in blocks for n in range(first, last + 1)]


def test_allocate_strategies_and_ledger():
    # every strategy's table covers steps 1..N once, in order, and its
    # b-1 bounds per block spend exactly delta_E
    delta_e = 0.5e-5
    for k in (1, 4):
        sched = Schedule(k, 100)
        for strategy in STRATEGIES:
            blocks = AllocationPlan(sched, delta_e, strategy).blocks()
            assert _covered_steps(blocks) == list(range(1, sched.iterations + 1))
            spent = sum(99 * beta for _, _, beta in blocks)
            assert spent == pytest.approx(delta_e, rel=1e-12)
    sched = Schedule(4, 100)
    hybrid = AllocationPlan(sched, delta_e, "hybrid").blocks()
    assert hybrid[4] == (5, 5, delta_e / (400 * 99))
    assert hybrid[-1] == (301, 400, delta_e / (4 * 99))
    assert hybrid[100] == (101, 200, delta_e / (4 * 99))
    union = AllocationPlan(sched, delta_e, "union").blocks()
    assert union[149] == (150, 150, delta_e / (400 * 99))
    assert AllocationPlan(sched, delta_e, "global-max").blocks() == [(1, 400, delta_e / 99)]
    # the plan validates itself: no budget above 1, no unknown strategy
    for bad_delta_e, bad_strategy in [(0.0, "union"), (1.5, "union"), (1e-5, "unoin")]:
        with pytest.raises(ValueError):
            AllocationPlan(sched, bad_delta_e, bad_strategy)


def test_compose_steps_brackets_each_distinct_pair_once(monkeypatch):
    # DP-SGD over 3 epochs of 4 batches: 12 steps per direction, fewer distinct pairs
    seen = []
    spacing = condcomp.pld.auto_spacing

    def recording(pairs):
        pairs = list(pairs)
        seen.append(pairs)
        return spacing(pairs)

    monkeypatch.setattr(condcomp.pld, "auto_spacing", recording)
    sched = Schedule(3, 4)
    condcomp.cond_comp_pld(build_identity(12), sched, 2.0, 1e-6)
    assert len(seen) == 2
    for pairs in seen:
        keys = [pair.key() for pair in pairs]
        assert len(set(keys)) == len(keys) < sched.iterations


def test_compose_steps_computes_each_loss_range_once(monkeypatch):
    # the spacing and every grid of a composition share each distinct pair's range
    ranged, gridded = [], []
    loss_range, discretize = condcomp.pld._loss_range, condcomp.pld.discretize
    monkeypatch.setattr(
        condcomp.pld, "_loss_range", lambda pair: ranged.append(pair.key()) or loss_range(pair)
    )
    monkeypatch.setattr(
        condcomp.pld, "discretize", lambda pair, h: gridded.append(pair.key()) or discretize(pair, h)
    )
    condcomp.cond_comp_pld(build_identity(12), Schedule(3, 4), 2.0, 1e-6)
    assert len(set(ranged)) == len(ranged)
    assert sorted(ranged) == sorted(gridded)


def test_hybrid_equals_union_for_single_epoch():
    sched = Schedule(1, 10)
    hybrid = AllocationPlan(sched, 1e-5, "hybrid")
    union = AllocationPlan(sched, 1e-5, "union")
    assert hybrid.blocks() == union.blocks()


def test_allocate_b_equals_one():
    for strategy in STRATEGIES:
        assert AllocationPlan(Schedule(4, 1), 1e-5, strategy).blocks() == []


def test_apply_sharing_blocks():
    sched = Schedule(2, 3)
    plan = AllocationPlan(sched, 1e-5, "hybrid")
    hazards = np.arange(18, dtype=float).reshape(6, 3) + 1.0
    hazards /= hazards.max()
    shared = apply_sharing(hazards, plan)
    assert np.allclose(shared[:3], hazards[:3])  # epoch 1 untouched
    assert np.allclose(shared[3:], hazards[3:].max(axis=0))


def test_step_pair_first_step_is_uniform():
    # an empty prefix leaves nothing to tell the components apart
    means = mixture_means(build_identity(4), Schedule(1, 4))
    plan = AllocationPlan(Schedule(1, 4), 1e-5, "union")
    for direction in (REMOVE, ADD):
        lam = step_hazards(means, 1.0, plan, direction)[0]
        assert lam == pytest.approx([1.0, 0.5, 1 / 3, 0.25])
        assert reverse_hazard_weights(lam) == pytest.approx(np.full(4, 0.25))
    with pytest.raises(ValueError):
        step_hazards(means, 1.0, plan, "sideways")


def test_step_pair_b_equals_one():
    means = mixture_means(build_identity(3), Schedule(3, 1))
    plan = AllocationPlan(Schedule(3, 1), 1e-5, "hybrid")
    lam = step_hazards(means, 1.5, plan, REMOVE)
    assert lam.shape == (3, 1)
    assert reverse_hazard_weights(lam[1]) == pytest.approx([1.0])
    assert np.sort(means.means[:, 1]) == pytest.approx([1.0])


def _bsr(n):
    return StrategyMatrix.from_toeplitz(sqrt_toeplitz_coefficients(4), size=n)


HAZARD_CASES = [
    (build_identity(12), Schedule(3, 4)),
    (_bsr(12), Schedule(3, 4)),
    (_bsr(12), Schedule(2, 6)),
    (_bsr(28), Schedule(1, 28)),
    (build_identity(96), Schedule(24, 4)),
]


def test_step_hazards_match_single_step_builder():
    # the batched engine (incremental rank-1 Gram update, chunked steps, one
    # bisection per chunk) against one scalar tail bound per (step, rank) on
    # the prefix Gram formed from the raw prefixes, at every step
    for strategy, sched in HAZARD_CASES:
        means = mixture_means(strategy, sched)
        for allocation in STRATEGIES:
            plan = AllocationPlan(sched, 1e-4, allocation)
            for direction in (REMOVE, ADD):
                lam = step_hazards(means, 1.0, plan, direction)
                single = np.array(
                    [
                        single_step_hazards(means, n, 1.0, plan, direction)
                        for n in range(1, sched.iterations + 1)
                    ]
                )
                assert lam == pytest.approx(single, rel=1e-12)


@pytest.mark.parametrize("steps_per_chunk", [1, 3])
def test_step_hazards_do_not_depend_on_chunking(monkeypatch, steps_per_chunk):
    for strategy, sched in (HAZARD_CASES[0], HAZARD_CASES[2]):
        b = sched.batches_per_epoch
        means = mixture_means(strategy, sched)
        plan = AllocationPlan(sched, 1e-4, "hybrid")
        whole = {d: step_hazards(means, 1.3, plan, d) for d in (REMOVE, ADD)}
        per_step = (b - 1) * len(DEFAULT_FAMILY) * b
        monkeypatch.setattr(condcomp, "_HAZARD_CHUNK_ELEMENTS", steps_per_chunk * per_step)
        for direction, lam in whole.items():
            assert step_hazards(means, 1.3, plan, direction) == pytest.approx(lam, rel=1e-12)


def test_remove_bisection_returns_the_pessimistic_end(monkeypatch):
    # every bisected remove column's tau keeps the mixture CDF at or below
    # beta, re-evaluated independently of the engine's own log-CDF
    seen = []
    bisect = condcomp._mixture_lower_tails

    def recording(nus, log_w, xi, log_beta):
        taus = bisect(nus, log_w, xi, log_beta)
        seen.append((nus, log_w, xi, log_beta, taus))
        return taus

    monkeypatch.setattr(condcomp, "_mixture_lower_tails", recording)
    for strategy, sched in (HAZARD_CASES[1], HAZARD_CASES[3]):
        plan = AllocationPlan(sched, 1e-4, "union")
        step_hazards(mixture_means(strategy, sched), 1.2, plan, REMOVE)
    rng = np.random.default_rng(3)
    checked = 0
    for nus, log_w, xi, log_beta, taus in seen:
        for c in rng.choice(taus.size, size=min(taus.size, 40), replace=False):
            live = log_w[c] > -np.inf
            terms = norm.logcdf((taus[c] - nus[c][live]) / xi[c]) + log_w[c][live]
            assert np.logaddexp.reduce(terms) <= log_beta[c]
            checked += 1
    assert checked > 100


def test_cond_comp_single_batch_matches_gaussian_composition():
    # b = 1: per-step pairs are plain unit-shift Gaussians; the N-fold
    # composition is a Gaussian mechanism with sensitivity sqrt(N)
    n, sigma, eps, delta_e = 4, 2.0, 1.0, 1e-6
    delta, _ = cond_comp_account(
        build_identity(n), Schedule(n, 1), sigma, eps, delta_e, grid_spacing=2e-4
    )
    oracle = gaussian_profile_delta(math.sqrt(n), sigma, eps) + delta_e
    assert delta >= oracle - 1e-12
    assert delta - oracle < 1e-4


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from(["identity", "bsr"]),
    st.integers(1, 3),
    st.integers(1, 3),
    st.floats(0.6, 3.0),
)
def test_small_delta_floor_is_pessimistic(kind, epochs, batches, sigma):
    # Below about 1e-14 the composed delta is float dust: the TAIL_MASS cuts
    # and FFT rounding leave it an absolute error of order 1e-16 per step.
    # At every target <= 1e-12 it must never fall more than 1e-15 below a
    # lower bound on the composed pair's divergence: the closed-form Gaussian
    # composition when b = 1, else the largest single step's exact
    # divergence (composition never lowers it).  The composed infinity atom
    # is part of every readout.
    sched = Schedule(epochs, batches)
    n = sched.iterations
    if kind == "identity":
        strategy = build_identity(n)
    else:
        strategy = StrategyMatrix.from_toeplitz(sqrt_toeplitz_coefficients(min(4, n)), size=n)
    composed = condcomp.cond_comp_pld(strategy, sched, sigma, 1e-6)
    means = mixture_means(strategy, sched)
    plan = AllocationPlan(sched, 1e-6, "hybrid")
    for direction in (REMOVE, ADD):
        lam = apply_sharing(step_hazards(means, sigma, plan, direction), plan)
        pairs = [
            condcomp.MixGaussPair(
                np.sort(means.means[:, j]), reverse_hazard_weights(lam[j]), sigma, direction
            )
            for j in range(n)
        ]
        for eps in np.linspace(1.0, 40.0, 27):
            delta = condcomp.pld.delta_at(composed[direction], eps)
            if delta > 1e-12:
                continue
            if batches == 1:
                floor = gaussian_profile_delta(math.sqrt(float(np.sum(means.means**2))), sigma, eps)
            else:
                floor = max(condcomp.pld.hockey_stick(pair, eps) for pair in pairs)
            assert delta >= floor - 1e-15
            assert delta >= composed[direction].infinity_mass


def test_cond_comp_monotone_in_sigma_and_epsilon():
    strategy = build_identity(8)
    sched = Schedule(2, 4)
    deltas_eps = [cond_comp_account(strategy, sched, 1.0, e, 1e-6)[0] for e in (0.5, 1.0, 2.0)]
    assert all(a >= b for a, b in zip(deltas_eps, deltas_eps[1:]))
    deltas_sig = [cond_comp_account(strategy, sched, s, 1.0, 1e-6)[0] for s in (0.7, 1.0, 2.0)]
    assert all(a >= b for a, b in zip(deltas_sig, deltas_sig[1:]))


def test_cond_comp_zero_mechanism():
    zero = StrategyMatrix.from_dense(np.zeros((4, 4)))
    assert cond_comp_account(zero, Schedule(2, 2), 1.0, 0.5, 1e-6) == (
        0.0, {REMOVE: 0.0, ADD: 0.0}
    )
    # Below epsilon = 0 even an identical pair has delta = 1 - e^epsilon, in each direction.
    delta = -math.expm1(-1.0)
    assert cond_comp_account(zero, Schedule(2, 2), 1.0, -1.0, 1e-6) == (
        delta, {REMOVE: delta, ADD: delta}
    )


def test_cond_comp_details_directions():
    delta, per = cond_comp_account(build_identity(6), Schedule(2, 3), 1.0, 1.0, 1e-6)
    assert set(per) == {REMOVE, ADD}
    assert delta == pytest.approx(min(1.0, max(per.values()) + 1e-6))


def test_hazard_trace_script_smoke():
    script = Path(__file__).resolve().parents[1] / "scripts" / "hazard_trace.py"
    src = os.path.dirname(os.path.dirname(balloc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, str(script), "--n", "8", "--epochs", "2", "--sigma", "5"],
        env=env, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    assert lines[0] == "step,lambda_b_union,lambda_b_hybrid,lambda_b_global-max"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, 9))
    assert all(float(v) == 0.25 for v in rows[0][1:])
    sched = Schedule(2, 4)
    lam = step_hazards(
        mixture_means(build_identity(8), sched), 5.0, AllocationPlan(sched, 0.5e-5, "union"), REMOVE
    )[:, -1]
    assert [r[1] for r in rows] == [f"{v:.12g}" for v in lam]
