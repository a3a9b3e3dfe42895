import json
import os
import subprocess
import sys

import numpy as np
import pytest

from balloc.calibrate import profile
from balloc.cli import main
from balloc.mechanism import (
    Schedule,
    StrategyMatrix,
    build_identity,
    read_matrix,
    sqrt_toeplitz_coefficients,
    write_matrix,
)
from balloc.renyi import renyi_account, renyi_curve, renyi_to_delta


@pytest.fixture()
def identity4(tmp_path):
    path = tmp_path / "id4.txt"
    assert main(["gen-matrix", "--kind", "identity", "--n", "4", "--out", str(path)]) == 0
    return str(path)


def run_and_capture(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_gen_matrix_identity(identity4):
    m = read_matrix(identity4)
    assert np.allclose(m.to_dense(), np.eye(4))


def test_gen_matrix_bsr(tmp_path, capsys):
    path = tmp_path / "bsr.txt"
    code = main(["gen-matrix", "--kind", "bsr", "--n", "8", "--bandwidth", "4", "--out", str(path)])
    assert code == 0
    m = read_matrix(path)
    assert m.kind == "toeplitz"
    assert m.data == pytest.approx([1.0, 0.5, 0.375, 0.3125])


def test_gen_matrix_bisr_round_trip(tmp_path):
    path = tmp_path / "bisr.txt"
    assert main(["gen-matrix", "--kind", "bisr", "--n", "16", "--bandwidth", "4", "--out", str(path)]) == 0
    m = read_matrix(path)
    assert m.size == 16


def test_gen_matrix_import(tmp_path, identity4):
    out = tmp_path / "copy.txt"
    assert main(["gen-matrix", "--kind", "import", "--in", identity4, "--out", str(out)]) == 0
    assert np.allclose(read_matrix(out).to_dense(), np.eye(4))


def test_gen_matrix_usage_errors(tmp_path):
    out = str(tmp_path / "x.txt")
    assert main(["gen-matrix", "--kind", "import", "--out", out]) == 2
    assert main(["gen-matrix", "--kind", "identity", "--out", out]) == 2
    assert main(["gen-matrix", "--kind", "bsr", "--n", "4", "--bandwidth", "9", "--out", out]) == 2
    assert main(["gen-matrix", "--kind", "identity", "--n", "4"]) == 2


def test_account_renyi_passthrough(identity4, capsys):
    code, out = run_and_capture(
        capsys,
        ["account", "--matrix", identity4, "--epochs", "2", "--batches", "2",
         "--sigma", "1", "--epsilon", "1", "--method", "renyi"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    expected, alpha = renyi_account(build_identity(4), Schedule(2, 2), 1.0, 1.0)
    assert payload["delta"] == pytest.approx(expected, rel=1e-9)
    assert payload["alpha"] == alpha
    assert set(payload["direction_breakdown"]) == {"remove", "add"}


@pytest.mark.parametrize("kind", ["bsr", "zero"])
def test_account_renyi_breakdown_is_the_winning_curve_entry(tmp_path, capsys, kind):
    strategy = (
        StrategyMatrix.from_dense(np.zeros((8, 8)))
        if kind == "zero"
        else StrategyMatrix.from_toeplitz(sqrt_toeplitz_coefficients(3), size=8)
    )
    path = tmp_path / "m.txt"
    write_matrix(strategy, path)
    code, out = run_and_capture(
        capsys,
        ["account", "--matrix", str(path), "--epochs", "2", "--batches", "4",
         "--sigma", "2", "--epsilon", "2", "--method", "renyi", "--alpha-max", "12"],
    )
    assert code == 0
    payload = json.loads(out)
    alpha = payload["alpha"]
    if kind == "zero":
        # identical pair: every direction reads the delta, at the first order
        assert (payload["delta"], alpha) == (0.0, 2)
        assert payload["direction_breakdown"] == {"remove": 0.0, "add": 0.0}
        return
    curve = renyi_curve(strategy, Schedule(2, 4), 2.0, (alpha,))
    expected = {
        "remove": renyi_to_delta(float(curve.rho_remove[0]), alpha, 2.0),
        "add": renyi_to_delta(float(curve.rho_add[0]), alpha, 2.0),
    }
    assert payload["direction_breakdown"] == pytest.approx(expected, rel=1e-11)
    assert alpha == 6  # an interior order, not the first curve entry
    assert payload["delta"] == pytest.approx(max(expected.values()), rel=1e-11)


def test_account_mc_contract(identity4, capsys):
    argv = ["account", "--matrix", identity4, "--epochs", "2", "--batches", "2",
            "--sigma", "1", "--epsilon", "1", "--method", "mc", "--samples", "5000"]
    assert main(argv) == 2  # missing seed
    capsys.readouterr()
    code, out = run_and_capture(capsys, argv + ["--seed", "9"])
    assert code == 0
    payload = json.loads(out)
    assert {"ci", "seed", "delta", "direction_breakdown"} <= set(payload)
    assert payload["ci"]["low"] <= payload["delta"] <= payload["ci"]["high"]


def test_account_best_excludes_mc(identity4, capsys):
    code, out = run_and_capture(
        capsys,
        ["account", "--matrix", identity4, "--epochs", "2", "--batches", "2",
         "--sigma", "1", "--epsilon", "1", "--method", "best"],
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload["direction_breakdown"]) == {"renyi", "condcomp"}
    assert payload["delta"] == min(payload["direction_breakdown"].values())


@pytest.mark.parametrize("method", ["condcomp", "best"])
def test_account_reports_the_allocation_of_its_condcomp_half(identity4, capsys, method):
    code, out = run_and_capture(
        capsys,
        ["account", "--matrix", identity4, "--epochs", "2", "--batches", "2", "--sigma", "1",
         "--epsilon", "1", "--method", method, "--allocation", "global-max"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["allocation"] == "global-max"
    assert payload["allocation_note"] == "as-published"
    code, out = run_and_capture(
        capsys,
        ["account", "--matrix", identity4, "--epochs", "2", "--batches", "2", "--sigma", "1",
         "--epsilon", "1", "--method", method],
    )
    payload = json.loads(out)
    assert payload["allocation"] == "hybrid" and "allocation_note" not in payload


def _twelve_digits(value):
    """A float as `account` prints it (12 significant digits)."""
    return float(f"{value:.12g}")


@pytest.mark.parametrize("method, flags, kwargs", [
    ("renyi", ["--alpha-max", "12"], {"alpha_set": tuple(range(2, 13))}),
    ("condcomp", ["--delta-e", "1e-7"], {"delta_e": 1e-7}),
    ("best", ["--alpha-max", "12", "--delta-e", "1e-7"],
     {"alpha_set": tuple(range(2, 13)), "delta_e": 1e-7}),
    ("mc", ["--seed", "6", "--samples", "5000"], {"seed": 6, "n_samples": 5000}),
])
def test_account_is_a_one_epsilon_profile(tmp_path, capsys, method, flags, kwargs):
    strategy = StrategyMatrix.from_toeplitz(sqrt_toeplitz_coefficients(3), size=8)
    path = tmp_path / "bsr.txt"
    write_matrix(strategy, path)
    code, out = run_and_capture(
        capsys,
        ["account", "--matrix", str(path), "--epochs", "2", "--batches", "4",
         "--sigma", "1.5", "--epsilon", "2", "--method", method, *flags],
    )
    assert code == 0
    payload = json.loads(out)
    point = profile(method, strategy, Schedule(2, 4), 1.5, [2.0], **kwargs)[0]
    assert payload["delta"] == _twelve_digits(point.delta)
    assert payload["direction_breakdown"] == {
        k: _twelve_digits(v) for k, v in point.breakdown.items()
    }
    assert payload.get("alpha") == point.alpha
    assert (point.alpha is not None) == (method in ("renyi", "best"))
    if method == "mc":
        est = point.estimate
        assert payload["ci"] == {"low": _twelve_digits(est.ci_low), "high": _twelve_digits(est.ci_high)}
        assert payload["hoeffding"] == {
            "low": _twelve_digits(est.hoeffding_low), "high": _twelve_digits(est.hoeffding_high)
        }
        assert est.point_estimate == point.delta == max(point.breakdown.values())
    else:
        assert point.estimate is None and "ci" not in payload


@pytest.mark.parametrize("kind", ["zero", "identity"])
@pytest.mark.parametrize("argv", [
    ["profile", "--method", "renyi", "--sigma", "1", "--epsilons", "0.5,1", "--bandwidth", "0"],
    ["profile", "--method", "renyi", "--sigma", "-1", "--epsilons", "0.5,1"],
    ["profile", "--method", "condcomp", "--sigma", "-1", "--epsilons", "0.5,1"],
    ["profile", "--method", "condcomp", "--sigma", "1", "--epsilons", "0.5,1", "--delta-e", "5"],
    ["profile", "--method", "best", "--sigma", "1", "--epsilons", "0.5,1", "--delta-e", "5"],
    ["account", "--method", "condcomp", "--sigma", "-1", "--epsilon", "1", "--delta-e", "5"],
    ["account", "--method", "renyi", "--sigma", "-1", "--epsilon", "1"],
    ["account", "--method", "best", "--sigma", "1", "--epsilon", "1", "--bandwidth", "0"],
    ["account", "--method", "mc", "--sigma", "-1", "--epsilon", "1", "--seed", "1",
     "--samples", "1000"],
])
def test_zero_mechanism_is_validated_like_any_other(tmp_path, kind, argv):
    # the zero mechanism's identical-pair shortcut runs after validation, so
    # bad inputs are usage errors whatever the matrix
    n = 4
    strategy = StrategyMatrix.from_dense(np.zeros((n, n))) if kind == "zero" else build_identity(n)
    path = tmp_path / "m.txt"
    write_matrix(strategy, path)
    assert main(argv + ["--matrix", str(path), "--epochs", "2", "--batches", "2"]) == 2


@pytest.mark.parametrize("argv", [
    ["account", "--method", "condcomp", "--sigma", "1", "--epsilon", "nan"],
    ["account", "--method", "renyi", "--sigma", "inf", "--epsilon", "1"],
    ["account", "--method", "best", "--sigma", "nan", "--epsilon", "1"],
    ["account", "--method", "mc", "--sigma", "1", "--epsilon=-inf", "--seed", "1"],
    ["account", "--method", "condcomp", "--sigma", "1", "--epsilon", "1", "--delta-e", "nan"],
    ["profile", "--method", "condcomp", "--sigma", "1", "--epsilons", "nan,1"],
    ["profile", "--method", "renyi", "--sigma", "1", "--epsilons", "0.5,inf"],
    ["profile", "--method", "renyi", "--sigma", "inf", "--epsilons", "0.5,1"],
    ["calibrate", "--method", "condcomp", "--epsilon", "nan", "--delta", "1e-5"],
    ["calibrate", "--method", "renyi", "--epsilon", "1", "--delta", "1e-5", "--tol", "nan"],
    ["compare", "--delta", "1e-5", "--epsilons", "1,nan", "--seed", "1"],
])
def test_non_finite_inputs_are_usage_errors(identity4, capsys, argv):
    # argparse's float() accepts nan and inf; the accountants reject them
    code = main(argv + ["--matrix", identity4, "--epochs", "2", "--batches", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.out == ""


def test_python_dash_m_runs_the_cli(identity4, capsys):
    argv = ["account", "--matrix", identity4, "--epochs", "2", "--batches", "2",
            "--method", "condcomp", "--sigma", "1.0", "--epsilon", "1.0"]
    code, out = run_and_capture(capsys, argv)
    src = os.path.dirname(os.path.dirname(sys.modules["balloc"].__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-m", "balloc", *argv], env=env, capture_output=True, text=True
    )
    assert (run.returncode, code) == (0, 0)
    assert json.loads(run.stdout) == json.loads(out)


def test_account_size_mismatch_is_usage_error(identity4):
    assert main(["account", "--matrix", identity4, "--epochs", "4", "--batches", "2",
                 "--sigma", "1", "--epsilon", "1", "--method", "renyi"]) == 2


def test_account_deterministic_output(identity4, capsys):
    argv = ["account", "--matrix", identity4, "--epochs", "2", "--batches", "2",
            "--sigma", "1", "--epsilon", "1", "--method", "condcomp"]
    _, out1 = run_and_capture(capsys, argv)
    _, out2 = run_and_capture(capsys, argv)
    assert out1 == out2


def test_calibrate_command(identity4, capsys):
    code, out = run_and_capture(
        capsys,
        ["calibrate", "--matrix", identity4, "--epochs", "2", "--batches", "2",
         "--epsilon", "1", "--delta", "1e-5", "--method", "renyi"],
    )
    assert code == 0
    sigma = float(out.strip())
    assert renyi_account(build_identity(4), Schedule(2, 2), sigma, 1.0)[0] <= 1e-5


@pytest.mark.parametrize("fraction", ["0", "1", "1.5"])
def test_calibrate_delta_e_frac_outside_zero_one_is_usage_error(identity4, capsys, fraction):
    code = main(["calibrate", "--matrix", identity4, "--epochs", "1", "--batches", "4",
                 "--epsilon", "1", "--delta", "1e-5", "--method", "condcomp",
                 "--delta-e-frac", fraction])
    assert code == 2
    assert "--delta-e-frac must lie in (0, 1)" in capsys.readouterr().err


def test_profile_csv(identity4, capsys, tmp_path):
    code, out = run_and_capture(
        capsys,
        ["profile", "--matrix", identity4, "--epochs", "2", "--batches", "2",
         "--sigma", "1", "--method", "renyi", "--epsilons", "0.5,1,2"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "epsilon,delta"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [0.5, 1.0, 2.0]
    deltas = [float(r[1]) for r in rows]
    assert all(a >= b for a, b in zip(deltas, deltas[1:]))

    out_path = tmp_path / "profile.csv"
    code = main(["profile", "--matrix", identity4, "--epochs", "2", "--batches", "2",
                 "--sigma", "1", "--method", "renyi", "--epsilons", "0.5,1,2",
                 "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text().splitlines()[0] == "epsilon,delta"


def test_profile_mc_requires_seed(identity4):
    assert main(["profile", "--matrix", identity4, "--epochs", "2", "--batches", "2",
                 "--sigma", "1", "--method", "mc", "--epsilons", "0.5,1"]) == 2


def test_compare_csv(tmp_path, capsys):
    path = tmp_path / "id2.txt"
    main(["gen-matrix", "--kind", "identity", "--n", "2", "--out", str(path)])
    assert main(["compare", "--matrix", str(path), "--epochs", "1", "--batches", "2",
                 "--delta", "1e-3", "--epsilons", "1,2"]) == 2  # no seed
    capsys.readouterr()
    code, out = run_and_capture(
        capsys,
        ["compare", "--matrix", str(path), "--epochs", "1", "--batches", "2",
         "--delta", "1e-3", "--epsilons", "1,2", "--seed", "4",
         "--samples", "2000", "--tol", "0.05"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "epsilon,sigma_renyi,sigma_condcomp,sigma_mc_reference"
    assert len(lines) == 3
    for line in lines[1:]:
        assert len(line.split(",")) == 4


@pytest.mark.parametrize("bandwidth", ["0", "-3", "3"])
@pytest.mark.parametrize("command", [
    ["account", "--sigma", "1", "--epsilon", "1"],
    ["calibrate", "--epsilon", "1", "--delta", "1e-5"],
    ["profile", "--sigma", "1", "--epsilons", "0.5,1"],
])
def test_renyi_bandwidth_outside_one_to_b_is_usage_error(identity4, capsys, command, bandwidth):
    # b = 2, so only bandwidths 1 and 2 exist
    code = main(command + ["--matrix", identity4, "--epochs", "2", "--batches", "2",
                           "--method", "renyi", "--bandwidth", bandwidth])
    assert code == 2
    assert "bandwidth must be in [1, 2]" in capsys.readouterr().err


def test_float_formatting_is_12_significant_digits(identity4, capsys):
    code, out = run_and_capture(
        capsys,
        ["account", "--matrix", identity4, "--epochs", "2", "--batches", "2",
         "--sigma", "1", "--epsilon", "1", "--method", "renyi"],
    )
    payload = json.loads(out)
    as_text = f"{payload['delta']:.17g}"
    # round-trip through the 12-digit formatter is lossless for the output
    assert float(f"{payload['delta']:.12g}") == payload["delta"]
