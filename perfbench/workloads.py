"""The benchmark's workloads: seeded `balloc` command lines.

Each workload is a fixed list of operation templates (command, method,
matrix, schedule, extra flags).  A pass instantiates every template once and
is run closed loop, one operation at a time.  The first pass of a run uses
the fixed design point of each template: sigma spread over the workload's
range, epsilon cycling through its set, calibration target 1e-5.  Later
passes draw sigma, epsilon and the calibration target from the run's seed.
The draws are continuous, so an argv does not repeat within a run and no
in-process cache can serve one operation from another.  balloc sees only the
generated argv.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

DELTA_TARGET = 1e-5  # calibration target of the design pass
DELTA_TARGET_RANGE = (1e-6, 1e-4)  # drawn log-uniformly in later passes
PROFILE_EPSILONS = "0.25,0.5,1,2,4,8"
STRATA = 4


@dataclass(frozen=True)
class Matrix:
    kind: str  # identity | bsr | bisr
    n: int
    bandwidth: int | None = None

    @property
    def file_name(self) -> str:
        suffix = f"-p{self.bandwidth}" if self.bandwidth else ""
        return f"{self.kind}{suffix}-n{self.n}.txt"

    def gen_argv(self, workdir: str) -> list[str]:
        argv = ["gen-matrix", "--kind", self.kind, "--n", str(self.n)]
        if self.bandwidth:
            argv += ["--bandwidth", str(self.bandwidth)]
        return argv + ["--out", f"{workdir}/{self.file_name}"]


@dataclass(frozen=True)
class Template:
    command: str  # account | calibrate | profile
    method: str  # renyi | condcomp
    kind: str
    epochs: int
    batches: int
    flags: tuple = ()

    @property
    def matrix(self) -> Matrix:
        bandwidth = None if self.kind == "identity" else 4
        return Matrix(self.kind, self.epochs * self.batches, bandwidth)


@dataclass(frozen=True)
class Op:
    command: str
    argv: list
    sigma: float | None = None  # input noise multiplier (account, profile)
    epsilon: float | None = None  # input epsilon (account, calibrate)
    delta_target: float | None = None  # calibrate only


@dataclass(frozen=True)
class Workload:
    name: str
    sigma_range: tuple
    epsilons: tuple
    templates: tuple

    @property
    def matrices(self) -> list[Matrix]:
        return sorted({t.matrix for t in self.templates}, key=lambda m: m.file_name)

    def passes(self, workdir: str, seed: int):
        """Yield the fixed design pass, then seeded passes, without end.

        Seeded passes are stratified so that a run covers the ranges evenly
        and its timings depend little on the seed.  Template i in drawn pass p
        takes sigma log-uniformly from stratum (p + i) mod STRATA of its range
        and epsilon from position p + i of one seeded permutation of the set;
        the calibration target is log-uniform over its whole range.
        """
        n = len(self.templates)
        yield self._make_pass(
            workdir,
            [((i + 0.5) / n, self.epsilons[i % len(self.epsilons)], DELTA_TARGET) for i in range(n)],
        )
        rng = random.Random(seed)
        order = rng.sample(self.epsilons, len(self.epsilons))
        for p in itertools.count():
            draws = []
            for i in range(n):
                sigma_u = ((p + i) % STRATA + rng.random()) / STRATA
                target = _log_uniform(rng.random(), DELTA_TARGET_RANGE)
                draws.append((sigma_u, order[(p + i) % len(order)], target))
            yield self._make_pass(workdir, draws)

    def _make_pass(self, workdir: str, draws) -> list[Op]:
        """One operation per template from its (sigma quantile, epsilon, target) draw."""
        ops = []
        for t, (u, eps, target) in zip(self.templates, draws):
            sigma = _log_uniform(u, self.sigma_range)
            argv = [
                t.command,
                "--matrix", f"{workdir}/{t.matrix.file_name}",
                "--epochs", str(t.epochs),
                "--batches", str(t.batches),
                "--method", t.method,
                *t.flags,
            ]
            if t.command == "account":
                argv += ["--sigma", repr(sigma), "--epsilon", repr(eps)]
                ops.append(Op("account", argv, sigma=sigma, epsilon=eps))
            elif t.command == "calibrate":
                argv += ["--epsilon", repr(eps), "--delta", repr(target)]
                ops.append(Op("calibrate", argv, epsilon=eps, delta_target=target))
            else:
                argv += ["--sigma", repr(sigma), "--epsilons", PROFILE_EPSILONS]
                ops.append(Op("profile", argv, sigma=sigma))
        return ops


def _log_uniform(u: float, bounds) -> float:
    """The u-quantile of the log-uniform law on bounds, to 6 digits."""
    lo, hi = bounds
    return float(f"{lo * (hi / lo) ** u:.6g}")


def _t(command, method, kind, epochs, batches, *flags) -> Template:
    return Template(command, method, kind, epochs, batches, tuple(flags))


WORKLOADS = {
    w.name: w
    for w in (
        # Renyi only: the banded DP on its p=1, p=2 (--bandwidth 2) and p>=3
        # paths, exact (BSR) and tau-truncated (BISR) bands.
        Workload(
            name="renyi-banded",
            sigma_range=(0.8, 2.0),
            epsilons=(1.0, 2.0, 4.0, 8.0),
            templates=(
                _t("account", "renyi", "identity", 1, 200),
                _t("account", "renyi", "bsr", 1, 16, "--alpha-max", "5"),
                _t("account", "renyi", "bisr", 1, 16, "--alpha-max", "4"),
                _t("calibrate", "renyi", "identity", 4, 50, "--alpha-max", "32"),
                _t("calibrate", "renyi", "identity", 2, 50, "--alpha-max", "24"),
                _t("profile", "renyi", "bisr", 1, 24, "--alpha-max", "24", "--bandwidth", "2"),
                _t("profile", "renyi", "bsr", 1, 20, "--alpha-max", "5"),
            ),
        ),
        # One epoch at b up to 32: hazard bounds are the largest layer.  BISR
        # and condcomp calibrations spend more time discretizing than bounding
        # hazards, so there is no BISR here and only one small calibration.
        Workload(
            name="condcomp-single",
            sigma_range=(1.0, 2.0),
            epsilons=(1.0, 2.0, 4.0),
            templates=(
                _t("account", "condcomp", "identity", 1, 32),
                _t("account", "condcomp", "bsr", 1, 28),
                _t("profile", "condcomp", "bsr", 1, 28),
                _t("calibrate", "condcomp", "identity", 1, 2),
            ),
        ),
        # Many epochs of few batches: many distinct per-step pairs and wide
        # composed supports make PLD discretization and composition dominate.
        Workload(
            name="condcomp-epochs",
            sigma_range=(10.0, 30.0),
            epsilons=(0.5, 1.0, 2.0, 4.0),
            templates=(
                _t("account", "condcomp", "identity", 24, 4),
                _t("account", "condcomp", "bsr", 24, 4),
                _t("profile", "condcomp", "bisr", 12, 4),
                _t("profile", "condcomp", "identity", 32, 2),
                _t("calibrate", "condcomp", "identity", 3, 2),
                _t("calibrate", "condcomp", "bsr", 2, 3),
            ),
        ),
    )
}
