import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gerk.cli
import gerk.oracles
from gerk.cli import main
from gerk.errors import (
    DimensionMismatch,
    FieldMismatch,
    InvalidRank,
    MissingParameter,
    NonFiniteInput,
    OracleMismatch,
    ParseError,
    TooManyColumns,
    ZeroMatrix,
)
from gerk.experiments import gen_experiment_i, gen_experiment_ii
from gerk.fileio import (
    CERTIFICATE_VERSION,
    METRICS_CSV_VERSION,
    read_vector_csv,
    write_matrix_market,
    write_vector_csv,
)
from gerk.potentials import HuberQuadMisfit
from gerk.rng import RngStream
from gerk.solver import preset


def write_system(tmp_path, m=20, n=10, seed=950, consistent=True, field="real"):
    rng = RngStream(seed)
    A = rng.gaussian_array(m * n, field).reshape(m, n)
    x_true = rng.gaussian_array(n, field)
    b = A @ x_true if consistent else rng.gaussian_array(m, field)
    write_matrix_market(tmp_path / "A.mtx", A)
    write_vector_csv(tmp_path / "b.csv", b)
    return A, x_true, b


def test_solve_consistent_system(tmp_path, capsys):
    A, x_true, b = write_system(tmp_path)
    out = tmp_path / "out"
    rc = main([
        "solve", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.csv"),
        "--preset", "rk", "--iterations", "5000", "--out", str(out),
    ])
    assert rc == 0
    x = read_vector_csv(out / "solution.csv")
    assert np.linalg.norm(x - x_true) <= 1e-6 * np.linalg.norm(x_true)
    metrics = (out / "metrics.csv").read_text()
    assert metrics.startswith(METRICS_CSV_VERSION + "\n")
    assert "iteration,rel_residual" in metrics.splitlines()[1]
    assert "stop reason" in capsys.readouterr().out


def test_solve_reruns_byte_identical(tmp_path):
    write_system(tmp_path)
    args = ["solve", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.csv"),
            "--preset", "srk", "--lambda", "1.0", "--iterations", "400"]
    assert main(args + ["--out", str(tmp_path / "o1")]) == 0
    assert main(args + ["--out", str(tmp_path / "o2")]) == 0
    for name in ("solution.csv", "metrics.csv"):
        a = (tmp_path / "o1" / name).read_bytes()
        b = (tmp_path / "o2" / name).read_bytes()
        assert a == b


def test_solve_complex_system(tmp_path):
    write_system(tmp_path, field="complex", m=12, n=6)
    rc = main([
        "solve", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.csv"),
        "--preset", "srk", "--lambda", "0.1", "--iterations", "2000",
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    x = read_vector_csv(tmp_path / "out" / "solution.csv")
    assert np.iscomplexobj(x)


def test_malformed_matrix_exit_code(tmp_path, capsys):
    bad = tmp_path / "A.mtx"
    bad.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\noops\n")
    write_vector_csv(tmp_path / "b.csv", np.ones(2))
    rc = main(["solve", "--matrix", str(bad), "--rhs", str(tmp_path / "b.csv"),
               "--preset", "rk", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{bad}:4:" in err


def test_non_finite_matrix_entry_exit_code(tmp_path, capsys):
    bad = tmp_path / "A.mtx"
    bad.write_text("%%MatrixMarket matrix array real general\n2 1\n1.0\nnan\n")
    write_vector_csv(tmp_path / "b.csv", np.ones(2))
    rc = main(["solve", "--matrix", str(bad), "--rhs", str(tmp_path / "b.csv"),
               "--preset", "rk", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"{bad}:4: non-finite entry" in capsys.readouterr().err
    assert not (tmp_path / "out" / "solution.csv").exists()


def test_zero_rhs_exit_code(tmp_path, capsys):
    write_system(tmp_path, m=6, n=3)
    write_vector_csv(tmp_path / "b.csv", np.zeros(6))
    rc = main(["solve", "--matrix", str(tmp_path / "A.mtx"),
               "--rhs", str(tmp_path / "b.csv"), "--preset", "rek",
               "--out", str(tmp_path / "out")])
    assert rc == 4
    assert "right-hand side b is zero" in capsys.readouterr().err
    assert not (tmp_path / "out" / "solution.csv").exists()


@pytest.mark.parametrize("scale, code", [(1e-170, 2), (1e-150, 0), (1e200, 0)])
def test_tiny_rhs_exit_code(tmp_path, capsys, scale, code):
    # a nonzero b whose norm underflows is refused, asking to rescale b, not
    # called zero; b at 1e-150, or at 1e200 (its norm recomputed scaled),
    # solves (negative controls)
    _, _, b = write_system(tmp_path, m=8, n=4)
    write_vector_csv(tmp_path / "b.csv", scale * b)
    rc = main(["solve", "--matrix", str(tmp_path / "A.mtx"),
               "--rhs", str(tmp_path / "b.csv"), "--preset", "rek",
               "--out", str(tmp_path / "out")])
    assert rc == code
    refused = "the norm of b overflows or underflows; rescale b" in capsys.readouterr().err
    assert refused == (code == 2)
    assert (tmp_path / "out" / "solution.csv").exists() == (code == 0)


def test_tiny_rhs_residual_is_not_read_as_zero(tmp_path, capsys):
    # at b near 1e-160 the squares of the residual underflow to zero; the
    # residual's norm, computed scaled, is the rounding error of a solved
    # system, not 0
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 4))
    write_matrix_market(tmp_path / "A.mtx", A)
    write_vector_csv(tmp_path / "b.csv", 1e-160 * (A @ rng.standard_normal(4)))
    rc = main(["solve", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.csv"),
               "--preset", "rk", "--out", str(tmp_path / "out")])
    assert rc == 0
    printed = float(re.search(r"final rel residual (\S+),", capsys.readouterr().out).group(1))
    assert 0.0 < printed < 1e-12


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_out_of_range_scale_exit_code(tmp_path, capsys, scale):
    A, _, b = write_system(tmp_path, m=8, n=4)
    write_matrix_market(tmp_path / "A.mtx", scale * A)
    write_vector_csv(tmp_path / "b.csv", scale * b)
    rc = main(["solve", "--matrix", str(tmp_path / "A.mtx"),
               "--rhs", str(tmp_path / "b.csv"), "--preset", "rek",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "squared row norms of A overflow or underflow; rescale A" in capsys.readouterr().err
    assert not (tmp_path / "out" / "solution.csv").exists()


def test_missing_matrix_exit_code(tmp_path):
    write_vector_csv(tmp_path / "b.csv", np.ones(2))
    rc = main(["solve", "--matrix", str(tmp_path / "nope.mtx"),
               "--rhs", str(tmp_path / "b.csv"), "--preset", "rk",
               "--out", str(tmp_path / "out")])
    assert rc == 2


def test_dimension_mismatch_exit_code(tmp_path, capsys):
    write_system(tmp_path, m=6, n=3)
    write_vector_csv(tmp_path / "b.csv", np.ones(5))  # wrong length
    rc = main(["solve", "--matrix", str(tmp_path / "A.mtx"),
               "--rhs", str(tmp_path / "b.csv"), "--preset", "rk",
               "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "rows" in capsys.readouterr().err


def test_missing_preset_parameter_exit_code(tmp_path):
    write_system(tmp_path, m=6, n=3)
    rc = main(["solve", "--matrix", str(tmp_path / "A.mtx"),
               "--rhs", str(tmp_path / "b.csv"), "--preset", "srk",
               "--out", str(tmp_path / "out")])  # srk without --lambda
    assert rc == 2


def test_experiment_tiny_run(tmp_path, capsys):
    out = tmp_path / "runs"
    args = ["experiment", "--which", "i", "--m", "16", "--n", "8", "--rank", "4",
            "--sparsity", "2", "--noise-level", "1.0", "--sv-lo", "0.5", "--sv-hi", "2.0",
            "--lambda", "2.0", "--trials", "2", "--epochs", "5",
            "--presets", "srk,rek", "--out", str(out)]
    assert main(args) == 0
    text = capsys.readouterr().out
    assert "sparsity" in text
    assert (out / "i" / "sparsity.csv").exists()
    assert (out / "i" / "srk" / "rel_error.csv").exists()
    assert (out / "i" / "rek" / "z_error.csv").exists()
    assert not (out / "i" / "srk" / "z_error.csv").exists()


def test_experiment_invalid_rank_exit_code(tmp_path):
    rc = main(["experiment", "--which", "i", "--m", "6", "--n", "6", "--rank", "6",
               "--sparsity", "2", "--noise-level", "1.0", "--sv-lo", "0.5",
               "--sv-hi", "2.0", "--lambda", "1.0", "--trials", "1", "--epochs", "1",
               "--out", str(tmp_path / "out")])
    assert rc == 4


def test_experiment_zero_trials_exit_code(tmp_path, capsys):
    rc = main(["experiment", "--which", "i", "--m", "16", "--n", "8", "--rank", "4",
               "--sparsity", "2", "--lambda", "2.0", "--trials", "0", "--epochs", "1",
               "--presets", "srk", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "trials" in capsys.readouterr().err


def test_experiment_zero_sparsity_exit_code(tmp_path, capsys):
    rc = main(["experiment", "--which", "ii", "--m", "16", "--n", "8", "--rank", "4",
               "--sparsity", "0", "--lambda", "2.0", "--trials", "1", "--epochs", "1",
               "--presets", "srk", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "sparsity" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["i", "ii"])
def test_experiment_sparsity_above_n_exit_code(tmp_path, capsys, which):
    rc = main(["experiment", "--which", which, "--m", "16", "--n", "8", "--rank", "4",
               "--sparsity", "9", "--lambda", "2.0", "--trials", "1", "--epochs", "1",
               "--presets", "srk", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "sparsity" in capsys.readouterr().err


@pytest.mark.parametrize("which, flag, text, name", [
    ("i", "--sv-hi", "inf", "sv_hi"),
    ("ii", "--noise-level", "nan", "noise_level"),
    ("i", "--noise-level", "nan", "noise_level"),
    ("i", "--noise-level", "-3", "noise_level"),
])
def test_experiment_generator_parameter_exit_code(tmp_path, capsys, which, flag, text, name):
    rc = main(["experiment", "--which", which, "--m", "16", "--n", "8", "--rank", "4",
               "--sparsity", "2", "--lambda", "2.0", "--trials", "1", "--epochs", "1",
               "--presets", "srk", flag, text, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert name in err
    # the library raises the same error
    params = dict(m=16, n=8, rank=4, sparsity=2, noise_level=5.0, sv_lo=0.1, sv_hi=10.0)
    params[name] = float(text)
    with pytest.raises(ValueError) as info:
        (gen_experiment_i if which == "i" else gen_experiment_ii)(**params, field="real",
                                                                  rng=RngStream(0))
    assert f"gerk: error: {info.value}" in err


def test_experiment_unknown_preset_exit_code(tmp_path):
    rc = main(["experiment", "--which", "i", "--presets", "srk,warp",
               "--out", str(tmp_path / "out")])
    assert rc == 2


def test_certify_identity_record(tmp_path, capsys):
    write_matrix_market(tmp_path / "I.mtx", np.eye(2))
    write_vector_csv(tmp_path / "x.csv", np.array([1.0, 0.0]))
    rc = main(["certify", "--matrix", str(tmp_path / "I.mtx"),
               "--xhat", str(tmp_path / "x.csv"), "--lambda", "1.0",
               "--samples", "100", "--out", str(tmp_path / "cert.txt")])
    assert rc == 0
    text = (tmp_path / "cert.txt").read_text()
    assert text.startswith(CERTIFICATE_VERSION + "\n")
    assert "gamma = 3.0" in text
    assert "violations = 0" in text
    assert "embedded = false\nregularizer = elastic net: lam*sum_j |x_j| + ||x||^2/2\n" in text
    assert text == capsys.readouterr().out


def test_certify_rhs_route(tmp_path):
    rng = RngStream(951)
    A = rng.normal_array(8 * 4).reshape(8, 4)
    b = rng.normal_array(8)
    write_matrix_market(tmp_path / "A.mtx", A)
    write_vector_csv(tmp_path / "b.csv", b)
    rc = main(["certify", "--matrix", str(tmp_path / "A.mtx"),
               "--rhs", str(tmp_path / "b.csv"), "--lambda", "0.5",
               "--samples", "50", "--out", str(tmp_path / "cert.txt")])
    assert rc == 0
    assert "violations = 0" in (tmp_path / "cert.txt").read_text()


def test_certify_rhs_xhat_is_exact_on_its_support(tmp_path, monkeypatch):
    # a 30x12 full-column-rank system with a 3-sparse planted x_hat, which is then
    # the only feasible point: the certified x_hat is the plant, whose smallest
    # nonzero sets gamma, not an entry of order 1e-11 where the plant is 0
    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 12)) * rng.uniform(0.2, 3.0, (30, 1))
    x_hat = np.zeros(12)
    x_hat[rng.choice(12, 3, replace=False)] = rng.standard_normal(3)
    write_matrix_market(tmp_path / "A.mtx", A)
    write_vector_csv(tmp_path / "b.csv", A @ x_hat)
    planted = np.abs(x_hat[x_hat != 0.0]).min()

    def certify():
        assert main(["certify", "--matrix", str(tmp_path / "A.mtx"),
                     "--rhs", str(tmp_path / "b.csv"), "--lambda", "0.5",
                     "--samples", "200", "--out", str(tmp_path / "cert.txt")]) == 0
        record = dict(line.split(" = ") for line in
                      (tmp_path / "cert.txt").read_text().splitlines()[1:])
        assert record["violations"] == "0"
        return float(record["xhat_min_abs"]), float(record["gamma"])

    def exact(min_abs, gamma):
        return abs(min_abs - planted) <= 1e-12 * planted and gamma < 10.0

    assert exact(*certify())
    # negative control: without the closed form at full column rank and without the
    # support finish, the dual iteration's near-zeros set gamma
    monkeypatch.setattr(gerk.oracles, "rank_cutoff", lambda shape, sigma_max: np.inf)
    monkeypatch.setattr(gerk.oracles, "FINISH_AFTER", 10**7)
    assert not exact(*certify())


def test_certify_complex_embeds(tmp_path):
    rng = RngStream(952)
    A = rng.complex_normal_array(6).reshape(3, 2)
    x = np.array([1.0 + 0.0j, 0.0 + 0.0j])
    write_matrix_market(tmp_path / "A.mtx", A)
    write_vector_csv(tmp_path / "x.csv", x)
    rc = main(["certify", "--matrix", str(tmp_path / "A.mtx"),
               "--xhat", str(tmp_path / "x.csv"), "--lambda", "1.0",
               "--samples", "20", "--out", str(tmp_path / "cert.txt")])
    assert rc == 0
    text = (tmp_path / "cert.txt").read_text()
    assert ("embedded = true\nregularizer = real elastic net on the real and imaginary parts: "
            "lam*sum_j (|Re x_j| + |Im x_j|) + ||x||^2/2\n") in text
    assert "n = 4" in text  # 2 complex unknowns -> 4 real ones


def test_certify_too_many_columns_exit_code(tmp_path):
    rng = RngStream(953)
    write_matrix_market(tmp_path / "A.mtx", rng.normal_array(16 * 16).reshape(16, 16))
    write_vector_csv(tmp_path / "x.csv", np.ones(16))
    rc = main(["certify", "--matrix", str(tmp_path / "A.mtx"),
               "--xhat", str(tmp_path / "x.csv"), "--lambda", "1.0",
               "--samples", "10"])
    assert rc == 5


def test_certify_xhat_length_mismatch_exit_code(tmp_path, capsys):
    write_matrix_market(tmp_path / "A.mtx", RngStream(954).normal_array(8 * 4).reshape(8, 4))
    write_vector_csv(tmp_path / "x.csv", np.ones(8))
    rc = main(["certify", "--matrix", str(tmp_path / "A.mtx"), "--xhat", str(tmp_path / "x.csv"),
               "--lambda", "1.0", "--samples", "5"])
    assert rc == 3
    assert "x_hat has length 8, but the matrix has 4 columns" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["real", "complex", "coordinate"])
def test_certify_rhs_on_a_zero_matrix_exit_code(tmp_path, capsys, kind):
    # the projection of b onto range(0) is 0, so x_hat = 0; the certificate then
    # refuses the matrix as --xhat does, with no traceback
    if kind == "coordinate":
        (tmp_path / "A.mtx").write_text(
            "%%MatrixMarket matrix coordinate real general\n3 2 1\n1 1 0\n")
        b = np.array([1.0, 2.0, 3.0])
    else:
        A = np.zeros((8, 4)) if kind == "real" else np.zeros((6, 3), complex)
        write_matrix_market(tmp_path / "A.mtx", A)
        b = np.arange(1.0, A.shape[0] + 1) * (1 if kind == "real" else 1 - 1j)
    write_vector_csv(tmp_path / "b.csv", b)
    rc = main(["certify", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.csv"),
               "--lambda", "1.0", "--samples", "5", "--out", str(tmp_path / "cert.txt")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err == "gerk: error: matrix has no nonzero column submatrix\n"
    assert not (tmp_path / "cert.txt").exists()


@pytest.mark.parametrize("scale, message", [
    # every sample's ||A x - y_hat||^2 overflows: the bound held vacuously, max_ratio 0.0
    (1e150, "a sample's Bregman distance or squared residual is not finite; rescale A or x_hat"),
    # ||y_hat|| overflows, and so would sigma_tilde_min**2 in gamma after it
    (1e160, "the norm of y_hat is not finite; rescale A or x_hat"),
    # sigma_tilde_min**2 underflows to 0: gamma would divide by it
    (1e-160, "the certificate constant gamma = 22.2738 / 8.95371e-161**2 is not a finite "
             "normal double; rescale A or lambda"),
], ids=["1e150", "1e160", "1e-160"])
def test_certify_at_a_scale_past_the_doubles_is_refused(tmp_path, capsys, scale, message):
    rng = np.random.default_rng(0)
    write_matrix_market(tmp_path / "A.mtx", scale * rng.standard_normal((6, 4)))
    write_vector_csv(tmp_path / "x.csv", rng.standard_normal(4))
    argv = ["certify", "--matrix", str(tmp_path / "A.mtx"), "--xhat", str(tmp_path / "x.csv"),
            "--lambda", "1", "--samples", "20", "--out", str(tmp_path / "cert.txt")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"gerk: error: {message}\n"
    assert not (tmp_path / "cert.txt").exists()
    # control: the unit-scale system is certified, with a ratio actually sampled
    write_matrix_market(tmp_path / "A.mtx", np.random.default_rng(0).standard_normal((6, 4)))
    assert main(argv) == 0
    record = dict(line.split(" = ") for line in
                  (tmp_path / "cert.txt").read_text().splitlines()[1:])
    assert record["violations"] == "0" and float(record["max_ratio"]) > 0.0


def test_certify_rhs_whose_norm_overflows_is_refused_without_a_warning(tmp_path, capsys):
    # ||y_hat|| overflows: refused before the oracle's first step, with no
    # RuntimeWarning from the norm first
    rng = np.random.default_rng(0)
    A = 1e160 * rng.standard_normal((6, 4))
    write_matrix_market(tmp_path / "A.mtx", A)
    write_vector_csv(tmp_path / "b.csv", A @ rng.standard_normal(4))
    argv = ["certify", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.csv"),
            "--lambda", "1", "--out", str(tmp_path / "cert.txt")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert capsys.readouterr().err == (
        "gerk: error: the norm of y_hat is not finite; rescale A or x_hat\n")
    assert not (tmp_path / "cert.txt").exists()


def test_certify_with_no_sampled_ratio_says_so(tmp_path):
    # no sample, so no ratio: the record reads none, not a max_ratio of 0.0
    write_matrix_market(tmp_path / "A.mtx", np.eye(2))
    write_vector_csv(tmp_path / "x.csv", np.array([1.0, 0.0]))
    argv = ["certify", "--matrix", str(tmp_path / "A.mtx"), "--xhat", str(tmp_path / "x.csv"),
            "--lambda", "1.0", "--out", str(tmp_path / "cert.txt"), "--samples"]
    assert main(argv + ["0"]) == 0
    assert (tmp_path / "cert.txt").read_text().endswith("violations = 0\nmax_ratio = none\n")
    assert main(argv + ["3"]) == 0
    assert not (tmp_path / "cert.txt").read_text().endswith("max_ratio = none\n")


def test_certify_refuses_xhat_and_rhs_together_before_reading(tmp_path, capsys):
    # each flag alone certifies; both are refused, whatever b.csv holds, before any
    # file is read (a missing --matrix is not reported) and with no --out file
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 4))
    write_matrix_market(tmp_path / "A.mtx", A)
    write_vector_csv(tmp_path / "x.csv", rng.standard_normal(4))
    write_vector_csv(tmp_path / "b.csv", rng.standard_normal(6))
    argv = ["certify", "--lambda", "1", "--samples", "5", "--out", str(tmp_path / "cert.txt")]
    for flag in ("--xhat", "--rhs"):
        source = tmp_path / ("x.csv" if flag == "--xhat" else "b.csv")
        assert main(argv + ["--matrix", str(tmp_path / "A.mtx"), flag, str(source)]) == 0
    (tmp_path / "cert.txt").unlink()
    capsys.readouterr()
    both = ["--xhat", str(tmp_path / "x.csv"), "--rhs", str(tmp_path / "b.csv")]
    for matrix in ("A.mtx", "missing.mtx"):
        assert main(argv + ["--matrix", str(tmp_path / matrix)] + both) == 2
        err = capsys.readouterr().err
        assert err == "gerk: error: certify takes --xhat or --rhs, not both\n"
        assert not (tmp_path / "cert.txt").exists()


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_certify_max_cols_below_one_exit_code(tmp_path, capsys, cap):
    write_matrix_market(tmp_path / "I.mtx", np.eye(2))
    write_vector_csv(tmp_path / "x.csv", np.array([1.0, 0.0]))
    rc = main(["certify", "--matrix", str(tmp_path / "I.mtx"), "--xhat", str(tmp_path / "x.csv"),
               "--lambda", "1.0", "--samples", "5", "--max-cols", cap])
    assert rc == 2
    assert f"max_cols must be >= 1, got {cap}" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("solve", ["--preset", "srk", "--lambda", "nan"]),
    ("solve", ["--preset", "gerk_bd", "--lambda", "inf", "--eps", "0.1", "--tau", "1"]),
    ("solve", ["--preset", "srk", "--config", "nan.json"]),
    ("certify", ["--lambda", "inf"]),
    ("certify", ["--lambda", "nan"]),
    ("certify", ["--lambda", "nan", "--xhat", "x.csv"]),
])
def test_non_finite_lambda_exit_code(tmp_path, capsys, command, flags):
    write_system(tmp_path, m=8, n=4)
    write_vector_csv(tmp_path / "x.csv", np.ones(4))
    (tmp_path / "nan.json").write_text('{"lambda": "NaN"}')
    flags = [str(tmp_path / f) if f.endswith((".csv", ".json")) else f for f in flags]
    rhs = [] if "--xhat" in flags else ["--rhs", str(tmp_path / "b.csv")]
    rc = main([command, "--matrix", str(tmp_path / "A.mtx"), *rhs, *flags,
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "lam must be finite and >= 0, got " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["eps", "tau"])
@pytest.mark.parametrize("text", ["nan", "inf", "0", "-0.5"])
def test_huber_parameter_exit_code(tmp_path, capsys, name, text):
    write_system(tmp_path, m=4, n=2)
    params = {"eps": "0.1", "tau": "0.1", name: text}
    rc = main(["solve", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.csv"),
               "--preset", "gerk_bd", "--lambda", "1", "--eps", params["eps"],
               "--tau", params["tau"], "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"{name} must be " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # the library raises the same error
    with pytest.raises(ValueError, match=f"^{name} must be "):
        HuberQuadMisfit(**{"eps": 0.1, "tau": 0.1, name: float(text)})


def test_huber_eps_whose_inverse_overflows(tmp_path, capsys):
    # 1/eps = inf would make every z-step 0 and leave x = 0 with exit 0
    message = "eps must be large enough that 1/eps + tau is finite, got 1e-320"
    with pytest.raises(ValueError, match=re.escape(message)):
        HuberQuadMisfit(1e-320, 0.1)
    with pytest.raises(ValueError, match=re.escape(message)):
        preset("gerk_bd", np.eye(2), lam=1.0, eps=1e-320, tau=0.1, max_iterations=1, seed=0)
    write_system(tmp_path, m=4, n=2)
    rc = main(["solve", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.csv"),
               "--preset", "gerk_bd", "--lambda", "1", "--eps", "1e-320", "--tau", "0.1",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    HuberQuadMisfit(1e-300, 0.1)  # 1/eps is still finite


def test_z_stepsize_flag_is_gone(tmp_path, capsys):
    write_system(tmp_path, m=4, n=2)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.csv"),
              "--preset", "rek", "--z-stepsize", "residual_adaptive",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --z-stepsize" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_certify_missing_lambda_exit_code(tmp_path):
    write_matrix_market(tmp_path / "I.mtx", np.eye(2))
    write_vector_csv(tmp_path / "x.csv", np.ones(2))
    rc = main(["certify", "--matrix", str(tmp_path / "I.mtx"),
               "--xhat", str(tmp_path / "x.csv")])
    assert rc == 2
    rc = main(["certify", "--matrix", str(tmp_path / "I.mtx"), "--lambda", "1.0"])
    assert rc == 2  # neither --xhat nor --rhs


def test_config_file_supplies_defaults(tmp_path, capsys):
    write_matrix_market(tmp_path / "I.mtx", np.eye(2))
    write_vector_csv(tmp_path / "x.csv", np.array([1.0, 0.0]))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": 5.0, "samples": 50}))
    rc = main(["certify", "--config", str(cfg), "--matrix", str(tmp_path / "I.mtx"),
               "--xhat", str(tmp_path / "x.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gamma = 11.0" in out  # (1 + 2*5)/1
    assert "samples = 50" in out


def test_flag_overrides_config(tmp_path, capsys):
    write_matrix_market(tmp_path / "I.mtx", np.eye(2))
    write_vector_csv(tmp_path / "x.csv", np.array([1.0, 0.0]))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": 5.0, "samples": 50}))
    rc = main(["certify", "--config", str(cfg), "--matrix", str(tmp_path / "I.mtx"),
               "--xhat", str(tmp_path / "x.csv"), "--lambda", "1.0"])
    assert rc == 0
    assert "gamma = 3.0" in capsys.readouterr().out


def test_invalid_json_config_exit_code(tmp_path, capsys):
    write_matrix_market(tmp_path / "I.mtx", np.eye(2))
    write_vector_csv(tmp_path / "x.csv", np.ones(2))
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    rc = main(["certify", "--config", str(cfg), "--matrix", str(tmp_path / "I.mtx"),
               "--xhat", str(tmp_path / "x.csv"), "--lambda", "1.0"])
    assert rc == 2
    assert str(cfg) in capsys.readouterr().err


def test_config_preset_bypassing_choices_still_fails_cleanly(tmp_path):
    write_system(tmp_path, m=4, n=2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "warp"}))
    rc = main(["solve", "--config", str(cfg), "--matrix", str(tmp_path / "A.mtx"),
               "--rhs", str(tmp_path / "b.csv"), "--out", str(tmp_path / "out")])
    assert rc == 2


@pytest.mark.parametrize("exc, code", [
    (ParseError("A.mtx", 3, "bad entry"), 2),
    (MissingParameter("needs lam"), 2),
    (OSError("disk full"), 2),
    (ValueError("unknown preset"), 2),
    (DimensionMismatch("3 rows, 4 entries"), 3),
    (FieldMismatch("real and complex"), 3),
    (InvalidRank("rank 0"), 4),
    (ZeroMatrix("zero row"), 4),
    (TooManyColumns("16 > 15 columns"), 5),
    (NonFiniteInput("nan in A"), 1),
    (OracleMismatch("x_hat off"), 1),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_error_exit_codes(monkeypatch, capsys, exc, code):
    def failing_command(args):
        raise exc

    monkeypatch.setattr(gerk.cli, "cmd_certify", failing_command)
    assert main(["certify", "--matrix", "A.mtx"]) == code
    assert capsys.readouterr().err == f"gerk: error: {exc}\n"


def test_unreadable_size_line_and_bytes_name_the_line(tmp_path, capsys):
    write_vector_csv(tmp_path / "b.csv", np.ones(2))
    bad = tmp_path / "A.mtx"
    for body, line in ((b"2\xc2\xb2 1\n1\n2\n", 2), (b"% note\n2 1\n1\n\xff2\n", 5)):
        bad.write_bytes(b"%%MatrixMarket matrix array real general\n" + body)
        rc = main(["solve", "--matrix", str(bad), "--rhs", str(tmp_path / "b.csv"),
                   "--preset", "rk", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"gerk: error: {bad}:{line}: " in capsys.readouterr().err


BASE_ARGV = {
    "solve": ["solve", "--matrix", "A.mtx", "--rhs", "b.csv", "--out", "out"],
    "experiment": ["experiment", "--which", "ii", "--out", "out"],
    "certify": ["certify", "--matrix", "A.mtx"],
}

# every option a config file may set: (command, dest, flag, flag text, config
# key, JSON value); each value differs from the built-in and profile defaults
CONFIG_OPTIONS = [
    ("solve", "seed", "--seed", "17", "seed", 17),
    ("solve", "preset", "--preset", "gerk_bd", "preset", "gerk_bd"),
    ("solve", "lam", "--lambda", "0.25", "lambda", 0.25),
    ("solve", "eps", "--eps", "1e-3", "eps", 1e-3),
    ("solve", "tau", "--tau", "2.5", "tau", "2.5"),
    ("solve", "iterations", "--iterations", "123", "iterations", 123),
    ("solve", "checkpoint_interval", "--checkpoint-interval", "9", "checkpoint-interval", 9),
    ("experiment", "seed", "--seed", "5", "seed", "5"),
    ("experiment", "profile", "--profile", "paper", "profile", "paper"),
    ("experiment", "field", "--field", "complex", "field", "complex"),
    ("experiment", "presets", "--presets", "rek,gerk_bd", "presets", ["rek", "gerk_bd"]),
    ("experiment", "m", "--m", "37", "m", 37),
    ("experiment", "n", "--n", "19", "n", 19),
    ("experiment", "rank", "--rank", "7", "rank", 7),
    ("experiment", "sparsity", "--sparsity", "3", "sparsity", 3),
    ("experiment", "noise_level", "--noise-level", "0.5", "noise_level", 0.5),
    ("experiment", "sv_lo", "--sv-lo", "0.2", "sv-lo", 0.2),
    ("experiment", "sv_hi", "--sv-hi", "3", "sv_hi", 3),
    ("experiment", "lam", "--lambda", "2", "lam", 2),
    ("experiment", "eps", "--eps", "0.05", "eps", 0.05),
    ("experiment", "tau", "--tau", "1e-4", "tau", 1e-4),
    ("experiment", "trials", "--trials", "4", "trials", 4),
    ("experiment", "epochs", "--epochs", "6", "epochs", "6"),
    ("experiment", "checkpoint_interval", "--checkpoint-interval", "11",
     "checkpoint_interval", 11),
    ("certify", "seed", "--seed", "3", "seed", 3),
    ("certify", "lam", "--lambda", "0.75", "lambda", 0.75),
    ("certify", "samples", "--samples", "0", "samples", 0),
    ("certify", "max_cols", "--max-cols", "12", "max-cols", 12),
]


def resolved_args(monkeypatch, argv, config=None, tmp_path=None):
    """The args a command receives from main, with the command stubbed out."""
    seen = []
    for name in ("cmd_solve", "cmd_experiment", "cmd_certify"):
        monkeypatch.setattr(gerk.cli, name, lambda args: seen.append(args) or 0)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 0
    return seen[0]


def test_config_options_cover_every_option():
    options = gerk.cli.build_parser().options
    declared = {(command, dest) for command in options for dest in options[command]}
    assert declared == {(command, dest) for command, dest, *_ in CONFIG_OPTIONS}


@pytest.mark.parametrize("command, dest, flag, text, key, value", CONFIG_OPTIONS,
                         ids=lambda v: v if isinstance(v, str) else None)
def test_config_value_equals_flag_value(monkeypatch, tmp_path, command, dest, flag, text,
                                        key, value):
    base = BASE_ARGV[command]
    from_flag = getattr(resolved_args(monkeypatch, base + [flag, text]), dest)
    from_config = getattr(resolved_args(monkeypatch, base, {key: value}, tmp_path), dest)
    default = getattr(resolved_args(monkeypatch, base), dest)
    assert from_config == from_flag
    assert type(from_config) is type(from_flag)
    assert from_flag != default
    # a config value the flag overrides gives way to it
    assert getattr(resolved_args(monkeypatch, base + [flag, text], {key: default}, tmp_path),
                   dest) == from_flag


def test_option_precedence(monkeypatch, tmp_path):
    solve, experiment = BASE_ARGV["solve"], BASE_ARGV["experiment"]
    # flag over config over built-in default; null is unset
    # z_stepsize, a deleted option, is ignored like any unknown key
    args = resolved_args(monkeypatch, solve + ["--iterations", "9"],
                         {"iterations": 7, "seed": 4, "tau": None, "z_stepsize": "warp"},
                         tmp_path)
    assert (args.iterations, args.seed, args.tau) == (9, 4, None)
    assert "z_stepsize" not in vars(args)
    # config over profile over built-in default
    args = resolved_args(monkeypatch, experiment, {"m": 37}, tmp_path)
    assert (args.profile, args.m, args.n, args.lam, args.seed) == ("desk", 37, 100, 10.0, 0)
    args = resolved_args(monkeypatch, experiment + ["--profile", "paper"])
    assert (args.m, args.n, args.trials, args.field) == (1000, 500, 50, "real")
    # --profile by flag beats "profile" in the config; the profile comes from the config
    args = resolved_args(monkeypatch, experiment + ["--profile", "desk"],
                         {"profile": "paper"}, tmp_path)
    assert (args.profile, args.m) == ("desk", 200)
    args = resolved_args(monkeypatch, experiment, {"profile": "paper", "n": 60}, tmp_path)
    assert (args.profile, args.m, args.n) == ("paper", 1000, 60)
    # flag-only options and keys that are not options are ignored; lam beats lambda
    args = resolved_args(monkeypatch, experiment,
                         {"threads": "x", "out": 5, "which": "i", "matrix": [1],
                          "lambda": 1, "lam": 3}, tmp_path)
    assert (args.out, args.which, args.lam) == ("out", "ii", 3.0)


@pytest.mark.parametrize("command, config, message", [
    ("solve", {"iterations": [1]}, "iterations: expected a string or a number"),
    ("solve", {"iterations": 2.5}, "iterations: invalid int value '2.5'"),
    ("solve", {"checkpoint_interval": True}, "checkpoint-interval: expected a string"),
    ("solve", {"lambda": "five"}, "lambda: invalid float value 'five'"),
    ("solve", {"preset": "banana"}, "preset: invalid choice 'banana'"),
    ("experiment", {"epochs": 1.9}, "epochs: invalid int value '1.9'"),
    ("experiment", {"presets": {"srk": 1}}, "presets: expected a string or a number"),
    ("experiment", {"profile": "huge"}, "profile: invalid choice 'huge'"),
    ("experiment", {"field": 1}, "field: invalid choice '1'"),
    ("certify", {"max_cols": 2.5}, "max-cols: invalid int value '2.5'"),
    ("certify", {"samples": "1e3"}, "samples: invalid int value '1e3'"),
    ("experiment", {"trials": 1.5}, "trials: invalid int value '1.5'"),
])
def test_bad_config_value_exit_code(tmp_path, capsys, command, config, message):
    # a value has no line of its own: the message names the file and the key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(BASE_ARGV[command] + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"gerk: error: {cfg}: {message}")


def test_config_strings_run_like_flags(tmp_path):
    write_system(tmp_path, m=8, n=4)
    solve = ["solve", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.csv"),
             "--preset", "srk"]
    experiment = ["experiment", "--which", "ii", "--m", "12", "--n", "6", "--rank", "3",
                  "--sparsity", "2", "--sv-hi", "2", "--lambda", "1", "--trials", "2",
                  "--epochs", "3"]
    cfg = tmp_path / "cfg.json"
    for argv, flags, config, name in (
        (solve, ["--lambda", "5", "--checkpoint-interval", "2"],
         {"lambda": "5", "checkpoint_interval": "2"}, "metrics.csv"),
        (experiment + ["--presets", "srk"], ["--noise-level", "5", "--sv-lo", "0.1"],
         {"noise_level": "5", "sv_lo": "0.1"}, "ii/srk/rel_error.csv"),
    ):
        cfg.write_text(json.dumps(config))
        assert main(argv + flags + ["--out", str(tmp_path / "flag")]) == 0
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "config")]) == 0
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "config" / name).read_bytes()
    cfg.write_text(json.dumps({"presets": 5}))
    assert main(experiment + ["--config", str(cfg), "--out", str(tmp_path / "five")]) == 2


def test_experiment_checkpoint_interval_zero_exit_code(tmp_path, capsys):
    argv = ["experiment", "--which", "i", "--m", "12", "--n", "6", "--rank", "3",
            "--sparsity", "2", "--lambda", "1", "--trials", "1", "--epochs", "1",
            "--presets", "srk", "--out", str(tmp_path / "out")]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"checkpoint_interval": 0}))
    for extra in (["--checkpoint-interval", "0"], ["--config", str(cfg)]):
        assert main(argv + extra) == 2
        assert "checkpoint_interval must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_byte_that_is_not_utf8_names_its_line(tmp_path, capsys):
    write_system(tmp_path, m=6, n=3)
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{\n  "lambda": "caf\xe9"\n}\n')
    rc = main(["solve", "--config", str(cfg), "--matrix", str(tmp_path / "A.mtx"),
               "--rhs", str(tmp_path / "b.csv"), "--preset", "srk",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"gerk: error: {cfg}:2: byte 0xe9 is not UTF-8\n"


def test_certify_negative_samples_exit_code(tmp_path, capsys):
    write_matrix_market(tmp_path / "I.mtx", np.eye(2))
    write_vector_csv(tmp_path / "x.csv", np.array([1.0, 0.0]))
    rc = main(["certify", "--matrix", str(tmp_path / "I.mtx"), "--xhat", str(tmp_path / "x.csv"),
               "--lambda", "1.0", "--samples", "-3", "--out", str(tmp_path / "cert.txt")])
    assert rc == 2
    assert "n_samples must be >= 0, got -3" in capsys.readouterr().err
    assert not (tmp_path / "cert.txt").exists()


def test_experiment_empty_preset_list_exit_code(tmp_path, capsys):
    for presets in (",", " , "):
        rc = main(["experiment", "--which", "i", "--m", "12", "--n", "6", "--rank", "3",
                   "--sparsity", "2", "--trials", "1", "--epochs", "1",
                   "--presets", presets, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "name at least one preset" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_entry_point_exit_codes(tmp_path):
    A, _, _ = write_system(tmp_path, m=6, n=3)
    write_vector_csv(tmp_path / "short.csv", np.ones(5))
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    solve = [sys.executable, "-m", "gerk.cli", "solve", "--matrix", str(tmp_path / "A.mtx"),
             "--preset", "rk", "--iterations", "50", "--out", str(tmp_path / "out")]
    for argv, code, err in (
        (solve + ["--rhs", str(tmp_path / "b.csv")], 0, ""),
        ([sys.executable, "-m", "gerk.cli", "experiment", "--which", "i", "--trials", "x",
          "--out", str(tmp_path / "e")], 2, "argument --trials: invalid int value: 'x'"),
        (solve + ["--rhs", str(tmp_path / "short.csv")], 3, "gerk: error: "),
    ):
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert err in proc.stderr


@pytest.mark.parametrize("which", ["i", "ii"])
def test_experiment_noise_level_that_overflows_exit_code(tmp_path, capsys, which):
    rc = main(["experiment", "--which", which, "--m", "10", "--n", "5", "--rank", "2",
               "--sparsity", "1", "--trials", "1", "--epochs", "2", "--noise-level", "1e308",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "noise_level" in err
    assert "Warning" not in err


def test_unusable_step_size_exit_code(tmp_path, capsys):
    # L_g ||a_j||^2 = 2e-200 * ||a_j||^2 underflows to 0 on A x 1e-100: the run
    # exited 0 with solution.csv all NaN after 5 iterations
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 4))
    b = A @ rng.standard_normal(4)
    argv = ["solve", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.csv"),
            "--preset", "gerk_bd", "--lambda", "1", "--eps", "1e200", "--tau", "1e-200"]
    for scale, code in ((1e-100, 2), (1.0, 0)):  # the unscaled system is the positive control
        write_matrix_market(tmp_path / "A.mtx", scale * A)
        write_vector_csv(tmp_path / "b.csv", scale * b)
        out = tmp_path / f"out-{scale}"
        assert main(argv + ["--iterations", "2000", "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err == ("gerk: error: a column step size 1/(L ||block||^2) at L = 2e-200 is not "
                   "finite and positive; rescale A or the parameters\n")
    assert not (tmp_path / "out-1e-100").exists()
    assert np.isfinite(read_vector_csv(tmp_path / "out-1.0" / "solution.csv")).all()


def test_misfit_gradient_of_b_that_overflows_exit_code(tmp_path, capsys):
    # z_0 = (1/max(eps, |b_i|) + tau) b_i overflows at tau = 1e300 on b x 1e10:
    # the run exited 0 with solution.csv all NaN
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 4))
    b = A @ rng.standard_normal(4)
    write_matrix_market(tmp_path / "A.mtx", A)
    argv = ["solve", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.csv"),
            "--preset", "gerk_bd", "--lambda", "1", "--eps", "0.1", "--tau", "1e300"]
    for scale, code in ((1e10, 2), (1.0, 0)):  # the unscaled system is the positive control
        write_vector_csv(tmp_path / "b.csv", scale * b)
        out = tmp_path / f"out-{scale:g}"
        assert main(argv + ["--iterations", "2000", "--out", str(out)]) == code
    assert capsys.readouterr().err == ("gerk: error: z_0 = grad g*(b) of the huber_quad misfit "
                                       "overflows; rescale b or the misfit's parameters\n")
    assert not (tmp_path / "out-1e+10").exists()
    x = read_vector_csv(tmp_path / "out-1" / "solution.csv")
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_iterate_that_goes_non_finite_exit_code(tmp_path, capsys):
    # A x 1e126 and b x 1e238 more: a_j^H z overflows in rek's and gerk_ad's
    # z-step, and the run exited 0 with solution.csv all NaN
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 4))
    b = A @ rng.standard_normal(4)
    argv = ["--lambda", "1", "--iterations", "200"]
    # the unscaled system is the positive control
    for a_scale, b_scale, code in ((1e126, 1e238, 2), (1.0, 1.0, 0)):
        write_matrix_market(tmp_path / "A.mtx", a_scale * A)
        write_vector_csv(tmp_path / "b.csv", b_scale * b)
        for name in ("rek", "gerk_ad"):
            out = tmp_path / f"out-{name}-{code}"
            assert main(["solve", "--matrix", str(tmp_path / "A.mtx"), "--rhs",
                         str(tmp_path / "b.csv"), "--preset", name, "--out", str(out)] + argv) == code
            err = capsys.readouterr().err
            if code:
                assert re.fullmatch(r"gerk: error: the iterate z\* is not finite at iteration \d+; "
                                    r"rescale A, b or the parameters\n", err)
                assert not out.exists()
            else:
                assert err == "" and (out / "solution.csv").exists()


def test_experiment_singular_values_whose_norms_overflow_exit_code(tmp_path, capsys):
    # ||b_hat|| overflowed on a finite b_hat: numpy warned, and the error blamed
    # noise_level; the scaled norm leaves the check of A's row norms to refuse it
    argv = ["experiment", "--which", "i", "--m", "20", "--n", "10", "--rank", "5",
            "--sparsity", "2", "--trials", "1", "--epochs", "2"]
    assert main(argv + ["--sv-lo", "1e200", "--sv-hi", "1e200", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("gerk: error: the squared row norms of A overflow or "
                                       "underflow; rescale A\n")
    assert main(argv + ["--out", str(tmp_path)]) == 0  # positive control: the desk values


def test_solve_needs_a_preset(tmp_path, capsys):
    write_system(tmp_path, m=4, n=2)
    rc = main(["solve", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.csv"),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "gerk: error: solve needs --preset\n"


@pytest.mark.parametrize("kind, message", [
    ("list", ":1: config must be a JSON object"),
    ("missing", ":0: cannot read file: No such file or directory"),
    ("directory", ":0: cannot read file: Is a directory"),
])
def test_config_that_is_not_a_readable_object_exit_code(tmp_path, capsys, kind, message):
    write_system(tmp_path, m=4, n=2)
    cfg = tmp_path / "cfg.json"
    if kind == "list":
        cfg.write_text('["preset", "rk"]')
    elif kind == "directory":
        cfg.mkdir()
    rc = main(["solve", "--config", str(cfg), "--matrix", str(tmp_path / "A.mtx"),
               "--rhs", str(tmp_path / "b.csv"), "--preset", "rk", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"gerk: error: {cfg}{message}\n"


def test_three_calls_build_the_parser_once(tmp_path):
    # a fresh process counts the parsers named gerk that three main calls construct
    write_matrix_market(tmp_path / "I.mtx", np.eye(2))
    write_vector_csv(tmp_path / "x.csv", np.array([1.0, 0.0]))
    argv = ["certify", "--matrix", str(tmp_path / "I.mtx"), "--xhat", str(tmp_path / "x.csv"),
            "--lambda", "1", "--samples", "10"]
    code = ("import argparse, sys\n"
            "import gerk.cli\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "assert [gerk.cli.main(sys.argv[1:]) for _ in range(3)] == [0, 0, 0]\n"
            "print(built.count('gerk'))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1"


# each profile's defaults, written out: a change to the table must show here
PROFILE_DEFAULTS = {
    ("desk", "i"): (200, 100, 50, 5, 5.0, 0.1, 10.0, 5.0, 1e-2, 1e-3, 10, 200),
    ("desk", "ii"): (200, 100, 50, 5, 5.0, 0.1, 10.0, 10.0, 1e-2, 1e-3, 10, 200),
    ("paper", "i"): (1000, 500, 250, 25, 5.0, 0.001, 100.0, 5.0, 1e-2, 1e-3, 50, 500),
    ("paper", "ii"): (1000, 500, 250, 25, 5.0, 0.001, 10.0, 10.0, 1e-2, 1e-3, 50, 500),
}


@pytest.mark.parametrize("profile, which", PROFILE_DEFAULTS)
def test_profile_defaults(monkeypatch, tmp_path, profile, which):
    experiment = ["experiment", "--which", which, "--out", "out", "--profile", profile]
    args = resolved_args(monkeypatch, experiment)
    dests = ("m", "n", "rank", "sparsity", "noise_level", "sv_lo", "sv_hi", "lam", "eps",
             "tau", "trials", "epochs")
    assert tuple(getattr(args, dest) for dest in dests) == PROFILE_DEFAULTS[(profile, which)]
    presets = ["srk", "rek", "gerk_ad"] + (["gerk_bd"] if which == "ii" else [])
    assert list(args.presets) == presets
    assert args.checkpoint_interval is None  # the session's default, one epoch
    # a config list beats the profile's, and a flag beats both
    args = resolved_args(monkeypatch, experiment, {"presets": ["srk"]}, tmp_path)
    assert args.presets == ["srk"]
    args = resolved_args(monkeypatch, experiment + ["--presets", "rek"], {"presets": ["srk"]},
                         tmp_path)
    assert args.presets == ["rek"]


def test_no_option_carries_over_to_the_next_call(monkeypatch, tmp_path):
    # a call whose config sets the profile and lambda leaves nothing behind: the
    # next call resolves the desk profile and the built-in defaults, as a fresh
    # process does
    experiment = BASE_ARGV["experiment"]
    args = resolved_args(monkeypatch, experiment, {"profile": "paper", "lambda": 0.5}, tmp_path)
    assert (args.profile, args.m, args.lam) == ("paper", 1000, 0.5)
    fresh = dict(command="experiment", config=None, which="ii", out="out", profile="desk",
                 field="real", seed=0, checkpoint_interval=None,
                 **gerk.cli.PROFILES[("desk", "ii")])
    for argv in (experiment, experiment + ["--profile", "desk"]):
        assert vars(resolved_args(monkeypatch, argv)) == fresh


def test_main_without_argv_reads_sys_argv(monkeypatch, tmp_path, capsys):
    write_matrix_market(tmp_path / "I.mtx", np.eye(2))
    write_vector_csv(tmp_path / "x.csv", np.array([1.0, 0.0]))
    argv = ["certify", "--matrix", str(tmp_path / "I.mtx"), "--xhat", str(tmp_path / "x.csv"),
            "--lambda", "1", "--samples", "10"]
    assert main(argv) == 0
    given = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["gerk"] + argv)
    assert main() == 0
    assert capsys.readouterr().out == given
    assert "violations = 0" in given


def test_experiment_band_of_a_metric_past_the_largest_double_reads_inf(tmp_path):
    # srk's residual norm passes the largest double; np.quantile wrote its
    # bands as nan and warned, which pytest turns into a failure
    rc = main(["experiment", "--which", "ii", "--m", "20", "--n", "10", "--rank", "5",
               "--sparsity", "2", "--trials", "1", "--epochs", "1", "--noise-level", "1e308",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    for name in ("rel_residual", "rel_grad_quadratic", "rel_grad_misfit"):
        lines = (tmp_path / "o" / "ii" / "srk" / f"{name}.csv").read_text().splitlines()
        assert lines[-1] == "20,inf,inf,inf,inf,inf"
    assert not any("nan" in p.read_text() for p in (tmp_path / "o").rglob("*.csv"))
