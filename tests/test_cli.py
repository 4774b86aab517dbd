import json
import os
import subprocess
import sys
from pathlib import Path

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
from gerk.experiments import make_generator
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
        make_generator(which, params, "real")(RngStream(0))
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


def test_certify_xhat_length_mismatch_exit_code(tmp_path, capsys):
    write_matrix_market(tmp_path / "A.mtx", RngStream(954).normal_array(8 * 4).reshape(8, 4))
    write_vector_csv(tmp_path / "x.csv", np.ones(8))
    rc = main(["certify", "--matrix", str(tmp_path / "A.mtx"), "--xhat", str(tmp_path / "x.csv"),
               "--lambda", "1.0", "--samples", "5"])
    assert rc == 3
    assert "x_hat has length 8, but the matrix has 4 columns" in capsys.readouterr().err


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
    ("solve", "z_stepsize", "--z-stepsize", "residual_adaptive", "z_stepsize",
     "residual_adaptive"),
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
    args = resolved_args(monkeypatch, solve + ["--iterations", "9"],
                         {"iterations": 7, "seed": 4, "tau": None}, tmp_path)
    assert (args.iterations, args.seed, args.tau, args.z_stepsize) == (9, 4, None, "constant")
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
    ("solve", {"z-stepsize": "adaptive"}, "z-stepsize: invalid choice 'adaptive'"),
    ("experiment", {"epochs": 1.9}, "epochs: invalid int value '1.9'"),
    ("experiment", {"presets": {"srk": 1}}, "presets: expected a string or a number"),
    ("experiment", {"profile": "huge"}, "profile: invalid choice 'huge'"),
    ("experiment", {"field": 1}, "field: invalid choice '1'"),
    ("certify", {"max_cols": 2.5}, "max-cols: invalid int value '2.5'"),
    ("certify", {"samples": "1e3"}, "samples: invalid int value '1e3'"),
])
def test_bad_config_value_exit_code(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(BASE_ARGV[command] + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"gerk: error: {cfg}:0: {message}")


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
