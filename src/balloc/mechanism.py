"""Strategy matrices, balls-in-bins schedules, mixture means and Gram summaries.

The dominating pair of a subsampled matrix mechanism is a uniform Gaussian
mixture whose means are per-batch column sums of |C|.  Everything the
accountants consume (mixture means, their Gram matrix, and its cyclic-band
truncation) is built here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

# Dense inputs may carry float dust above the diagonal; anything larger is an error.
ABOVE_DIAGONAL_TOL = 1e-12

_FORMAT_MAGIC = "balloc-matrix"
_FORMAT_VERSION = "v1"


@dataclass(frozen=True)
class Schedule:
    """Balls-in-bins participation: k epochs of b batches, N = k*b iterations.

    Each example lands in one batch index i and contributes to iterations
    i, i+b, ..., i+(k-1)*b.
    """

    epochs: int
    batches_per_epoch: int

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batches_per_epoch < 1:
            raise ValueError(
                f"batches_per_epoch must be >= 1, got {self.batches_per_epoch}"
            )

    @property
    def iterations(self) -> int:
        return self.epochs * self.batches_per_epoch


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class StrategyMatrix:
    """Lower-triangular strategy matrix C, stored dense or as Toeplitz coefficients.

    Toeplitz form stores the leading column coefficients c; the implied matrix is
    C[i, j] = c[i-j] for 0 <= i-j < len(c), zero elsewhere, so len(c) is the
    bandwidth.  Negative entries are allowed (|C| is applied when computing
    mixture means).
    """

    size: int
    kind: str  # "dense" | "toeplitz"
    data: np.ndarray  # (N, N) lower triangular, or (w,) coefficients

    @classmethod
    def from_dense(cls, matrix) -> "StrategyMatrix":
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"dense strategy matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("strategy matrix entries must be finite")
        above = m[np.triu_indices(m.shape[0], k=1)]
        if above.size and np.max(np.abs(above)) > ABOVE_DIAGONAL_TOL:
            raise ValueError(
                "dense strategy matrix has entries above the main diagonal "
                f"(max |entry| = {np.max(np.abs(above)):.3e})"
            )
        return cls(size=m.shape[0], kind="dense", data=_freeze(np.tril(m)))

    @classmethod
    def from_toeplitz(cls, coefficients, size: int | None = None) -> "StrategyMatrix":
        c = np.atleast_1d(np.asarray(coefficients, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("toeplitz coefficients must be a non-empty vector")
        if not np.all(np.isfinite(c)):
            raise ValueError("strategy matrix entries must be finite")
        n = c.size if size is None else int(size)
        if n < 1:
            raise ValueError(f"matrix size must be >= 1, got {n}")
        if c.size > n:
            raise ValueError(f"got {c.size} coefficients for size-{n} matrix")
        return cls(size=n, kind="toeplitz", data=_freeze(c))

    @property
    def bandwidth(self) -> int:
        """Smallest w such that C[i, j] = 0 whenever i - j >= w."""
        if self.kind == "toeplitz":
            nz = np.nonzero(self.data)[0]
            return int(nz[-1]) + 1 if nz.size else 1
        rows, cols = np.nonzero(self.data)
        return int(np.max(rows - cols)) + 1 if rows.size else 1

    def to_dense(self) -> np.ndarray:
        if self.kind == "dense":
            return np.array(self.data)
        n, c = self.size, self.data
        out = np.zeros((n, n))
        for t, v in enumerate(c):
            if t < n and v != 0.0:
                out[np.arange(t, n), np.arange(0, n - t)] = v
        return out


@dataclass(frozen=True)
class MixtureMeans:
    """Per-batch dominating-pair means: means[i-1] = sum_j |C|[:, i + j*b]."""

    means: np.ndarray  # (b, N), non-negative


@dataclass(frozen=True)
class GramSummary:
    """Gram matrix of the mixture means with its cyclic-band truncation.

    banded[i, j] = max(gram[i, j] - tau, 0) on cyclic distance < bandwidth and 0
    elsewhere; tau is the largest out-of-band entry (0 when none exist), so
    gram <= banded + tau holds elementwise.
    """

    gram: np.ndarray  # (b, b) symmetric PSD
    bandwidth: int
    banded: np.ndarray  # (b, b)
    tau: float
    sigma: float

    def at_bandwidth(self, bandwidth: int) -> "GramSummary":
        """The same Gram truncated to another cyclic band; the means are not rebuilt."""
        banded, tau = cyclic_truncate(self.gram, bandwidth)
        return replace(self, bandwidth=int(bandwidth), banded=_freeze(banded), tau=tau)


def build_identity(n: int) -> StrategyMatrix:
    """Identity strategy matrix (plain DP-SGD), stored as Toeplitz (1,)."""
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got {n}")
    return StrategyMatrix.from_toeplitz([1.0], size=n)


def sqrt_toeplitz_coefficients(length: int) -> np.ndarray:
    """Coefficients c of the Toeplitz square root of the all-ones lower-triangular matrix.

    Solves conv(c, c) = (1, 1, ..., 1) by the causal recurrence
    c[t] = (1 - sum_{0<u<t} c[u] c[t-u]) / (2 c[0]) with c[0] = 1.  Truncating
    to the first `length` coefficients gives the banded square-root factor.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    c = np.zeros(length)
    c[0] = 1.0
    for t in range(1, length):
        c[t] = (1.0 - c[1:t] @ c[t - 1 : 0 : -1]) / (2.0 * c[0])
    return c


def inv_sqrt_toeplitz_coefficients(length: int) -> np.ndarray:
    """Coefficients d with conv(c, d) = unit impulse for c = sqrt_toeplitz_coefficients.

    d is the banded inverse-square-root factor; the strategy matrix is the
    triangular-Toeplitz inverse of d's banded expansion.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    c = sqrt_toeplitz_coefficients(length)
    d = np.zeros(length)
    d[0] = 1.0 / c[0]
    for t in range(1, length):
        d[t] = -(c[1 : t + 1] @ d[t - 1 :: -1]) / c[0]
    return d


def invert_banded_toeplitz(d, n: int) -> StrategyMatrix:
    """Inverse of the banded lower-triangular Toeplitz matrix with coefficients d.

    The inverse is triangular Toeplitz, so only its first column is solved (by
    forward substitution) and replicated along diagonals.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got {n}")
    if d[0] == 0.0:
        raise ValueError("banded Toeplitz matrix is singular (d[0] = 0)")
    col = np.zeros(n)
    col[0] = 1.0 / d[0]
    for i in range(1, n):
        w = min(i, d.size - 1)
        acc = d[1 : w + 1] @ col[i - w : i][::-1] if w else 0.0
        col[i] = -acc / d[0]
    return StrategyMatrix.from_toeplitz(col, size=n)


def mixture_means(strategy: StrategyMatrix, schedule: Schedule) -> MixtureMeans:
    """Dominating-pair mixture means m_i = sum_{j=0}^{k-1} |C|[:, i + j*b]."""
    n = schedule.iterations
    if strategy.size != n:
        raise ValueError(
            f"strategy matrix has size {strategy.size} but schedule needs {n}"
        )
    k, b = schedule.epochs, schedule.batches_per_epoch
    means = np.zeros((b, n))
    if strategy.kind == "toeplitz":
        a = np.abs(strategy.data)
        w = a.size
        for i in range(b):
            for j in range(k):
                col = i + j * b
                hi = min(n, col + w)
                means[i, col:hi] += a[: hi - col]
    else:
        a = np.abs(strategy.data)
        for i in range(b):
            means[i] = a[:, i + b * np.arange(k)].sum(axis=1)
    return MixtureMeans(means=_freeze(means))


def gram(means: MixtureMeans) -> np.ndarray:
    """Gram matrix G[i, j] = <m_i, m_j> of the mixture means."""
    m = means.means
    g = m @ m.T
    return (g + g.T) / 2.0


def cyclic_distance_matrix(b: int) -> np.ndarray:
    idx = np.arange(b)
    d = np.abs(idx[:, None] - idx[None, :])
    return np.minimum(d, b - d)


def cyclic_truncate(g: np.ndarray, p: int) -> tuple[np.ndarray, float]:
    """Truncate G to its p-cyclic band; tau is the largest discarded entry.

    Returns (banded, tau) with banded = max(G - tau, 0) inside the band and 0
    outside, so that G <= banded + tau elementwise.  tau = 0 when no index pair
    has cyclic distance >= p.
    """
    g = np.asarray(g, dtype=float)
    b = g.shape[0]
    if g.ndim != 2 or g.shape != (b, b):
        raise ValueError(f"gram matrix must be square, got {g.shape}")
    if not 1 <= p <= b:
        raise ValueError(f"bandwidth must be in [1, {b}], got {p}")
    dist = cyclic_distance_matrix(b)
    out_of_band = dist >= p
    tau = float(g[out_of_band].max()) if out_of_band.any() else 0.0
    banded = np.where(out_of_band, 0.0, np.maximum(g - tau, 0.0))
    return banded, tau


def gram_summary(
    strategy: StrategyMatrix,
    schedule: Schedule,
    sigma: float,
    bandwidth: int,
) -> GramSummary:
    """Build the Gram summary the Renyi accountant consumes, at one bandwidth."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    g = gram(mixture_means(strategy, schedule))
    banded, tau = cyclic_truncate(g, bandwidth)
    return GramSummary(
        gram=_freeze(g),
        bandwidth=int(bandwidth),
        banded=_freeze(banded),
        tau=tau,
        sigma=float(sigma),
    )


def write_matrix(strategy: StrategyMatrix, path) -> None:
    """Write the v1 text format; floats carry 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# {_FORMAT_MAGIC} {_FORMAT_VERSION} kind={strategy.kind} n={strategy.size}\n"
        )
        if strategy.kind == "toeplitz":
            fh.write(",".join(f"{v:.17g}" for v in strategy.data) + "\n")
        else:
            for row in strategy.data:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_matrix(path) -> StrategyMatrix:
    """Read the v1 text format written by write_matrix."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        m = re.fullmatch(
            rf"#\s*{_FORMAT_MAGIC}\s+{_FORMAT_VERSION}\s+kind=(dense|toeplitz)\s+n=(\d+)",
            header,
        )
        if m is None:
            raise ValueError(f"not a {_FORMAT_MAGIC} {_FORMAT_VERSION} file: {header!r}")
        kind, n = m.group(1), int(m.group(2))
        rows = [line.strip() for line in fh if line.strip()]
    if kind == "toeplitz":
        if len(rows) != 1:
            raise ValueError(f"toeplitz matrix file must have 1 data line, got {len(rows)}")
        coeffs = np.array([float(v) for v in rows[0].split(",")])
        return StrategyMatrix.from_toeplitz(coeffs, size=n)
    if len(rows) != n:
        raise ValueError(f"dense matrix file must have {n} data lines, got {len(rows)}")
    dense = np.array([[float(v) for v in row.split(",")] for row in rows])
    if dense.shape != (n, n):
        raise ValueError(f"dense matrix rows must have {n} entries")
    return StrategyMatrix.from_dense(dense)
