import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balloc.mechanism import (
    Schedule,
    StrategyMatrix,
    build_identity,
    cyclic_truncate,
    gram,
    gram_summary,
    inv_sqrt_toeplitz_coefficients,
    invert_banded_toeplitz,
    mixture_means,
    read_matrix,
    sqrt_toeplitz_coefficients,
    write_matrix,
)
from balloc.renyi import _check_bandwidth


def test_schedule_validation():
    s = Schedule(3, 4)
    assert s.iterations == 12
    with pytest.raises(ValueError):
        Schedule(0, 4)
    with pytest.raises(ValueError):
        Schedule(2, 0)


def test_build_identity():
    assert np.allclose(build_identity(3).to_dense(), np.eye(3))
    assert np.allclose(build_identity(1).to_dense(), [[1.0]])
    with pytest.raises(ValueError):
        build_identity(0)


def test_identity_stays_lazy_at_large_n():
    big = build_identity(3000)
    assert big.kind == "toeplitz"
    assert big.data.size == 1
    means = mixture_means(big, Schedule(10, 300))
    assert means.means.shape == (300, 3000)


def test_sqrt_coefficients_known_values():
    assert sqrt_toeplitz_coefficients(1) == pytest.approx([1.0])
    assert sqrt_toeplitz_coefficients(4) == pytest.approx([1.0, 0.5, 0.375, 0.3125])


@pytest.mark.parametrize("length", [1, 2, 7, 33, 128])
def test_sqrt_coefficients_square_to_ones(length):
    c = sqrt_toeplitz_coefficients(length)
    assert np.max(np.abs(np.convolve(c, c)[:length] - 1.0)) < 1e-12


def test_inv_sqrt_coefficients_known_values():
    assert inv_sqrt_toeplitz_coefficients(1) == pytest.approx([1.0])
    assert inv_sqrt_toeplitz_coefficients(4) == pytest.approx([1.0, -0.5, -0.125, -0.0625])


@pytest.mark.parametrize("length", [2, 5, 64])
def test_inv_sqrt_is_convolution_inverse(length):
    c = sqrt_toeplitz_coefficients(length)
    d = inv_sqrt_toeplitz_coefficients(length)
    impulse = np.zeros(length)
    impulse[0] = 1.0
    assert np.max(np.abs(np.convolve(c, d)[:length] - impulse)) < 1e-12


def test_inv_sqrt_matrix_product_is_identity():
    n = 32
    c = StrategyMatrix.from_toeplitz(sqrt_toeplitz_coefficients(n)).to_dense()
    d = StrategyMatrix.from_toeplitz(inv_sqrt_toeplitz_coefficients(n)).to_dense()
    assert np.max(np.abs(d @ c - np.eye(n))) < 1e-10


def test_invert_banded_toeplitz_cases():
    assert np.allclose(invert_banded_toeplitz([1.0], 5).to_dense(), np.eye(5))
    prefix_sum = invert_banded_toeplitz([1.0, -1.0], 3)
    assert prefix_sum.data == pytest.approx([1.0, 1.0, 1.0])
    geo = invert_banded_toeplitz([1.0, -0.5], 4)
    assert geo.data == pytest.approx([1.0, 0.5, 0.25, 0.125])
    with pytest.raises(ValueError):
        invert_banded_toeplitz([0.0, 1.0], 3)


@pytest.mark.parametrize("n", [4, 32, 256])
def test_invert_banded_round_trip(n):
    d = np.array([1.0, -0.4, 0.15])
    inv = invert_banded_toeplitz(d, n)
    banded = StrategyMatrix.from_toeplitz(d, size=n).to_dense()
    assert np.max(np.abs(banded @ inv.to_dense() - np.eye(n))) < 1e-9


def test_dense_rejects_above_diagonal():
    bad = np.eye(3)
    bad[0, 2] = 1e-6
    with pytest.raises(ValueError):
        StrategyMatrix.from_dense(bad)
    # dust below tolerance is zeroed, not kept
    ok = np.eye(3)
    ok[0, 2] = 1e-14
    m = StrategyMatrix.from_dense(ok)
    assert m.to_dense()[0, 2] == 0.0


def test_mixture_means_identity():
    means = mixture_means(build_identity(4), Schedule(2, 2))
    assert np.allclose(means.means, [[1, 0, 1, 0], [0, 1, 0, 1]])
    single = mixture_means(build_identity(3), Schedule(1, 3))
    assert np.allclose(single.means, np.eye(3))


def test_mixture_means_uses_absolute_values():
    c = np.array([[1.0, 0.0], [-0.3, 1.0]])
    means = mixture_means(StrategyMatrix.from_dense(c), Schedule(1, 2))
    assert means.means[0] == pytest.approx([1.0, 0.3])


def test_mixture_means_size_mismatch():
    with pytest.raises(ValueError):
        mixture_means(build_identity(4), Schedule(3, 2))


def test_gram_identity_cases():
    g = gram(mixture_means(build_identity(4), Schedule(2, 2)))
    assert np.allclose(g, 2 * np.eye(2))
    g1 = gram(mixture_means(build_identity(5), Schedule(1, 5)))
    assert np.allclose(g1, np.eye(5))


def test_gram_matches_double_loop():
    rng = np.random.default_rng(7)
    c = np.tril(rng.uniform(0, 1, (6, 6)))
    means = mixture_means(StrategyMatrix.from_dense(c), Schedule(2, 3))
    g = gram(means)
    expected = np.array(
        [[means.means[i] @ means.means[j] for j in range(3)] for i in range(3)]
    )
    assert np.max(np.abs(g - expected)) < 1e-12


def test_cyclic_truncate_cases():
    g = 2 * np.eye(2)
    banded, tau = cyclic_truncate(g, 1)
    assert tau == 0.0 and np.allclose(banded, g)
    g = np.arange(16, dtype=float).reshape(4, 4)
    g = (g + g.T) / 2
    banded, tau = cyclic_truncate(g, 4)
    assert tau == 0.0 and np.allclose(banded, g)
    with pytest.raises(ValueError):
        cyclic_truncate(g, 5)
    with pytest.raises(ValueError):
        cyclic_truncate(g, 0)


def test_cyclic_truncate_bisr_tau_small_but_positive():
    # inverse-square-root factor: the Gram decays off the cyclic band but is
    # not exactly banded, so truncation leaves a positive (modest) slack
    d = inv_sqrt_toeplitz_coefficients(64)
    c = invert_banded_toeplitz(d, 3000)
    g = gram(mixture_means(c, Schedule(10, 300)))
    _, tau = cyclic_truncate(g, 64)
    assert tau > 0.0
    assert tau < 0.3 * g.max()


@settings(max_examples=25, deadline=None)
@given(
    b=st.integers(2, 6),
    k=st.integers(1, 3),
    w=st.integers(1, 4),
    seed=st.integers(0, 10**6),
)
def test_gram_psd_and_truncation_monotone(b, k, w, seed):
    rng = np.random.default_rng(seed)
    c = StrategyMatrix.from_toeplitz(rng.uniform(-1, 1, size=min(w, k * b)), size=k * b)
    means = mixture_means(c, Schedule(k, b))
    assert np.all(means.means >= 0)
    g = gram(means)
    assert np.min(np.linalg.eigvalsh(g)) >= -1e-9
    taus = [cyclic_truncate(g, p)[1] for p in range(1, b + 1)]
    assert all(a >= bnext - 1e-15 for a, bnext in zip(taus, taus[1:]))
    assert taus[-1] == 0.0


@settings(max_examples=20, deadline=None)
@given(
    b=st.integers(1, 5),
    k=st.integers(1, 3),
    w=st.integers(1, 5),
    seed=st.integers(0, 10**6),
)
def test_toeplitz_and_dense_forms_agree(b, k, w, seed):
    rng = np.random.default_rng(seed)
    n = k * b
    coeffs = rng.uniform(-1, 1, size=min(w, n))
    toe = StrategyMatrix.from_toeplitz(coeffs, size=n)
    dense = StrategyMatrix.from_dense(toe.to_dense())
    sched = Schedule(k, b)
    m1 = mixture_means(toe, sched).means
    m2 = mixture_means(dense, sched).means
    assert np.max(np.abs(m1 - m2)) < 1e-12


def test_gram_summary_defaults():
    # the default band cap, min(natural bandwidth, 8, b), is the Renyi
    # accountant's; gram_summary takes the bandwidth it is given
    identity, sched = build_identity(6), Schedule(2, 3)
    s = gram_summary(identity, sched, 1.5, _check_bandwidth(identity, sched, None))
    assert s.bandwidth == 1
    assert s.sigma == 1.5
    assert s.tau == 0.0
    bsr = StrategyMatrix.from_toeplitz(sqrt_toeplitz_coefficients(12), size=24)
    s2 = gram_summary(bsr, Schedule(2, 12), 1.0, _check_bandwidth(bsr, Schedule(2, 12), None))
    assert s2.bandwidth == 8  # capped default
    bsr12 = StrategyMatrix.from_toeplitz(sqrt_toeplitz_coefficients(12), size=12)
    assert _check_bandwidth(bsr12, Schedule(2, 6), None) == 6  # b caps it too


def test_matrix_file_round_trip(tmp_path):
    path = tmp_path / "m.txt"
    rng = np.random.default_rng(0)
    dense = StrategyMatrix.from_dense(np.tril(rng.standard_normal((5, 5))))
    write_matrix(dense, path)
    back = read_matrix(path)
    assert back.kind == "dense"
    assert np.array_equal(back.to_dense(), dense.to_dense())

    toe = StrategyMatrix.from_toeplitz(rng.standard_normal(3), size=7)
    write_matrix(toe, path)
    back = read_matrix(path)
    assert back.kind == "toeplitz" and back.size == 7
    assert np.array_equal(back.data, toe.data)


def test_matrix_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# not-a-matrix v9\n1,2\n")
    with pytest.raises(ValueError):
        read_matrix(path)
