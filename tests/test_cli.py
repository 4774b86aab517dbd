import json

import numpy as np
import pytest

import gerk.cli
from gerk.cli import main
from gerk.errors import (
    DegenerateNullspace,
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
from gerk.fileio import (
    CERTIFICATE_VERSION,
    METRICS_CSV_VERSION,
    read_vector_csv,
    write_matrix_market,
    write_vector_csv,
)
from gerk.rng import RngStream


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


def test_experiment_threads_do_not_change_output(tmp_path):
    base = ["experiment", "--which", "ii", "--m", "14", "--n", "7", "--rank", "3",
            "--sparsity", "2", "--noise-level", "2.0", "--sv-lo", "0.5", "--sv-hi", "2.0",
            "--lambda", "1.0", "--eps", "0.01", "--tau", "0.001",
            "--trials", "3", "--epochs", "4", "--presets", "srk,gerk_bd"]
    assert main(base + ["--out", str(tmp_path / "a")]) == 0
    assert main(base + ["--threads", "3", "--out", str(tmp_path / "b")]) == 0
    for rel in ("ii/sparsity.csv", "ii/srk/rel_error.csv", "ii/gerk_bd/rel_residual.csv"):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


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
    assert "embedded = false" in text
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
    assert "embedded = true" in text
    assert "n = 4" in text  # 2 complex unknowns -> 4 real ones


def test_certify_too_many_columns_exit_code(tmp_path):
    rng = RngStream(953)
    write_matrix_market(tmp_path / "A.mtx", rng.normal_array(16 * 16).reshape(16, 16))
    write_vector_csv(tmp_path / "x.csv", np.ones(16))
    rc = main(["certify", "--matrix", str(tmp_path / "A.mtx"),
               "--xhat", str(tmp_path / "x.csv"), "--lambda", "1.0",
               "--samples", "10"])
    assert rc == 5


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
    (DegenerateNullspace("trivial nullspace"), 4),
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
