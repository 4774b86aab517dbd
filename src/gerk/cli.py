"""Command-line interface.

Three subcommands:

    gerk solve       run one preset on a MatrixMarket system, write the
                     solution vector and a per-checkpoint metrics CSV
    gerk experiment  run the reproducible trial harness, write band CSVs and
                     a sparsity summary, print the sparsity table
    gerk certify     compute and sample-check an error-bound certificate

Flag values override a JSON config file (--config), which overrides profile
defaults.  Exit codes: 0 success, 2 I/O or parse failure (message names file
and line), 3 dimension mismatch, 4 degenerate problem (generator degeneracy,
zero matrix, zero right-hand side), 5 enumeration cap exceeded.  All outputs
are written atomically and contain no timestamps, so repeated identical
invocations produce byte-identical files.
"""

import argparse
import json
import os
import sys

import numpy as np

from .certificates import verify_error_bound
from .errors import (
    DegenerateNullspace,
    DimensionMismatch,
    FieldMismatch,
    GerkError,
    InvalidRank,
    MissingParameter,
    ParseError,
    TooManyColumns,
    ZeroMatrix,
)
from .experiments import (
    DEFAULT_PRESETS,
    PROFILES,
    PresetSpec,
    make_generator,
    run_trials,
    sparsity_count,
    sparsity_table,
    write_experiment_csvs,
)
from .fileio import (
    CERTIFICATE_VERSION,
    METRICS_CSV_VERSION,
    _fmt,
    atomic_write,
    read_matrix_market,
    read_vector_csv,
    write_vector_csv,
)
from .linalg import embed_complex_as_real, embed_vec
from .oracles import constrained_regularizer_min, range_projection_quadratic
from .potentials import ElasticNet, QuadraticMisfit
from .solver import PRESET_NAMES, preset, run

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_DEGENERATE = 4
EXIT_ENUMERATION = 5


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read config: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, f"invalid JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError(path, 1, "config must be a JSON object")
    out = {str(k).replace("-", "_"): v for k, v in data.items()}
    if "lambda" in out:  # the flag is spelled --lambda, keep config files consistent
        out.setdefault("lam", out.pop("lambda"))
    return out


def _resolve(args, config, keys, profile=None):
    """Per key: command-line flag, then config file, then profile default."""
    out = {}
    for key in keys:
        val = getattr(args, key, None)
        if val is None:
            val = config.get(key)
        if val is None and profile is not None:
            val = profile.get(key)
        out[key] = val
    return out


class _SolveRecorder:
    """Metrics for user systems, where no ground truth is available."""

    def __init__(self, A, b, g):
        self.A = A
        self.Ah = A.conj().T
        self.b = b
        self.g = g
        self.b_norm = float(np.linalg.norm(b))
        self.rows = []

    def __call__(self, state):
        x = state.x
        anti_residual = self.b - self.A @ x
        self.rows.append(
            (
                state.k,
                float(np.linalg.norm(anti_residual)) / self.b_norm,
                float(np.linalg.norm(self.Ah @ anti_residual)) / self.b_norm,
                float(np.linalg.norm(self.Ah @ self.g.gradient(anti_residual))) / self.b_norm,
                sparsity_count(x),
            )
        )
        return False


def cmd_solve(args):
    config = _load_config(args.config)
    opts = _resolve(
        args,
        config,
        (
            "preset",
            "lam",
            "eps",
            "tau",
            "iterations",
            "checkpoint_interval",
            "seed",
            "z_stepsize",
        ),
    )
    if opts["preset"] is None:
        raise MissingParameter("solve needs --preset")
    A = read_matrix_market(args.matrix)
    b = read_vector_csv(args.rhs)
    if np.linalg.norm(b) == 0.0:  # every solve metric is relative to ||b||
        raise ZeroMatrix(f"{args.rhs}: right-hand side b is zero")
    iterations = opts["iterations"] if opts["iterations"] is not None else 200 * A.shape[0]
    cfg = preset(
        opts["preset"],
        A,
        lam=opts["lam"],
        eps=opts["eps"],
        tau=opts["tau"],
        max_iterations=int(iterations),
        seed=int(opts["seed"] or 0),
        checkpoint_interval=opts["checkpoint_interval"],
        z_stepsize_mode=opts["z_stepsize"] or "constant",
    )
    recorder = _SolveRecorder(A, b, cfg.g or QuadraticMisfit())
    report = run(A, b, cfg, hooks=(recorder,))
    write_vector_csv(os.path.join(args.out, "solution.csv"), report.state.x)
    lines = [METRICS_CSV_VERSION, "iteration,rel_residual,rel_grad_quadratic,rel_grad_misfit,sparsity"]
    for k, res, gq, gm, sp in recorder.rows:
        lines.append(f"{k},{_fmt(res)},{_fmt(gq)},{_fmt(gm)},{sp}")
    atomic_write(os.path.join(args.out, "metrics.csv"), "\n".join(lines) + "\n")
    print(f"{opts['preset']}: {report.iterations} iterations, stop reason {report.stop_reason}")
    print(f"final rel residual {recorder.rows[-1][1]:.3e}, sparsity {recorder.rows[-1][4]}")
    return EXIT_OK


def cmd_experiment(args):
    config = _load_config(args.config)
    which = args.which
    profile_name = args.profile or config.get("profile") or "desk"
    if (profile_name, which) not in PROFILES:
        raise MissingParameter(f"unknown profile {profile_name!r}")
    profile = PROFILES[(profile_name, which)]
    keys = (
        "m", "n", "rank", "sparsity", "noise_level", "sv_lo", "sv_hi",
        "lam", "eps", "tau", "trials", "epochs",
    )
    params = _resolve(args, config, keys, profile)
    field = args.field or config.get("field") or "real"
    seed = int(args.seed if args.seed is not None else config.get("seed", 0))
    names = args.presets or config.get("presets") or ",".join(DEFAULT_PRESETS[which])
    if isinstance(names, str):
        names = [p.strip() for p in names.split(",") if p.strip()]
    for name in names:
        if name not in PRESET_NAMES:
            raise MissingParameter(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    specs = [
        PresetSpec(name=name, lam=params["lam"], eps=params["eps"], tau=params["tau"])
        for name in names
    ]
    iterations = int(params["epochs"]) * int(params["m"])
    interval = args.checkpoint_interval or config.get("checkpoint_interval") or int(params["m"])
    generator = make_generator(which, {k: params[k] for k in keys}, field)
    result = run_trials(
        generator,
        specs,
        trials=int(params["trials"]),
        iterations=iterations,
        base_seed=seed,
        checkpoint_interval=int(interval),
    )
    paths = write_experiment_csvs(result, args.out, which)
    print(sparsity_table(result))
    print(f"wrote {len(paths)} files under {os.path.join(args.out, which)}")
    return EXIT_OK


def cmd_certify(args):
    config = _load_config(args.config)
    opts = _resolve(args, config, ("lam", "samples", "seed", "max_cols"))
    if opts["lam"] is None:
        raise MissingParameter("certify needs --lambda")
    lam = float(opts["lam"])
    samples = int(opts["samples"] if opts["samples"] is not None else 1000)
    seed = int(opts["seed"] or 0)
    max_cols = int(opts["max_cols"] if opts["max_cols"] is not None else 15)
    A = read_matrix_market(args.matrix)
    embedded = False
    if args.xhat is None and args.rhs is None:
        raise MissingParameter("certify needs --xhat or --rhs")
    if args.xhat is not None:
        x_hat = read_vector_csv(args.xhat)
        if np.iscomplexobj(A) or np.iscomplexobj(x_hat):
            A, x_hat = embed_complex_as_real(A.astype(complex)), embed_vec(x_hat.astype(complex))
            embedded = True
        y_hat = A @ x_hat
    else:
        b = read_vector_csv(args.rhs)
        if np.iscomplexobj(A) or np.iscomplexobj(b):
            A, b = embed_complex_as_real(A.astype(complex)), embed_vec(b.astype(complex))
            embedded = True
        y_hat = range_projection_quadratic(A, b).value
        x_hat = constrained_regularizer_min(A, y_hat, ElasticNet(lam)).value
    report = verify_error_bound(
        A, x_hat, y_hat, lam, n_samples=samples, seed=seed, max_cols=max_cols
    )
    cert = report.certificate
    lines = [
        CERTIFICATE_VERSION,
        f"n = {cert.n}",
        f"lam = {_fmt(cert.lam)}",
        f"embedded = {'true' if embedded else 'false'}",
        f"sigma_tilde_min = {_fmt(cert.sigma_tilde_min)}",
        f"sigma_min_positive = {_fmt(cert.sigma_min_positive)}",
        f"xhat_min_abs = {'none' if cert.xhat_min_abs is None else _fmt(cert.xhat_min_abs)}",
        f"gamma = {_fmt(cert.gamma)}",
        f"samples = {report.samples}",
        f"violations = {report.violations}",
        f"max_ratio = {_fmt(report.max_ratio)}",
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        atomic_write(args.out, text)
    print(text, end="")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gerk",
        description="Randomized block Kaczmarz solvers with sparse regularization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("solve", help="run one preset on a MatrixMarket system")
    p.add_argument("--matrix", required=True, help="MatrixMarket matrix file")
    p.add_argument("--rhs", required=True, help="right-hand side vector CSV")
    p.add_argument("--preset", choices=PRESET_NAMES)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--checkpoint-interval", type=int, default=None)
    p.add_argument("--z-stepsize", choices=("constant", "residual_adaptive"), default=None)
    p.add_argument("--out", required=True, help="output directory")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("experiment", help="run the reproducible trial harness")
    p.add_argument("--which", choices=("i", "ii"), required=True)
    p.add_argument("--profile", choices=("desk", "paper"), default=None)
    p.add_argument("--field", choices=("real", "complex"), default=None)
    p.add_argument("--presets", help="comma-separated preset names")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--sparsity", type=int, default=None)
    p.add_argument("--noise-level", dest="noise_level", type=float, default=None)
    p.add_argument("--sv-lo", dest="sv_lo", type=float, default=None)
    p.add_argument("--sv-hi", dest="sv_hi", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--checkpoint-interval", type=int, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="accepted and ignored, as is the 'threads' config key: "
                        "trials run in lockstep in one thread")
    p.add_argument("--out", required=True, help="output directory")
    common(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("certify", help="error-bound certificate for a system")
    p.add_argument("--matrix", required=True)
    p.add_argument("--xhat", default=None, help="planted solution vector CSV")
    p.add_argument("--rhs", default=None, help="derive x_hat from this rhs instead")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--max-cols", dest="max_cols", type=int, default=None)
    p.add_argument("--out", default=None, help="certificate record file")
    common(p)
    p.set_defaults(func=cmd_certify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, MissingParameter, OSError) as exc:
        print(f"gerk: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        # config files can smuggle values argparse choices would have caught
        print(f"gerk: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DimensionMismatch, FieldMismatch) as exc:
        print(f"gerk: error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except (InvalidRank, DegenerateNullspace, ZeroMatrix) as exc:
        print(f"gerk: error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except TooManyColumns as exc:
        print(f"gerk: error: {exc}", file=sys.stderr)
        return EXIT_ENUMERATION
    except GerkError as exc:
        print(f"gerk: error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
