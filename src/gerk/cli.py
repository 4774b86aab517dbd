"""Command-line interface.

Three subcommands:

    gerk solve       run one preset on a MatrixMarket system, write the
                     solution vector and a per-checkpoint metrics CSV
    gerk experiment  run the reproducible trial harness, write band CSVs and
                     a sparsity summary, print the sparsity table
    gerk certify     compute and sample-check an error-bound certificate

Every option is declared once, in build_parser.  main resolves each value
once: the flag, then the JSON config file (--config), whose values are parsed
like flag text, then the profile (experiment only), then the built-in
default.  Exit codes: 0 success, 2 I/O or parse failure (message names file
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
    MetricRecorder,
    PresetSpec,
    ProblemInstance,
    make_generator,
    run_trials,
    sparsity_table,
    write_experiment_csvs,
)
from .fileio import (
    CERTIFICATE_VERSION,
    METRICS_CSV_VERSION,
    _fmt,
    _names_undecodable_line,
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


@_names_undecodable_line
def _load_config(path):
    """Read the JSON config object: keys spelled as flags, numbers kept as their text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_int=str, parse_float=str, parse_constant=str)
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


def _config_value(path, action, value):
    """Parse a config value as the text of its flag, with the flag's type and choices."""
    names = isinstance(value, list) and all(isinstance(v, str) for v in value)
    if action.dest == "presets" and names:  # the one option that takes a list
        value = ",".join(value)
    key = action.option_strings[0][2:]
    if not isinstance(value, str):
        raise ParseError(path, 0, f"{key}: expected a string or a number")
    try:
        parsed = value if action.type is None else action.type(value)
    except ValueError:
        message = f"{key}: invalid {action.type.__name__} value {value!r}"
        raise ParseError(path, 0, message) from None
    if action.choices is not None and parsed not in action.choices:
        raise ParseError(path, 0, f"{key}: invalid choice {value!r} "
                                  f"(choose from {', '.join(action.choices)})")
    return parsed


def _resolve_options(parser, args, argv):
    """Re-parse argv so each option takes the flag, then the config file, then
    the profile (experiment only), then the built-in default."""
    options = parser.options[args.command]
    config = {}
    if args.config is not None:
        for key, value in _load_config(args.config).items():
            if key in options and value is not None:
                config[key] = options[key].default = _config_value(args.config, options[key], value)
        args = parser.parse_args(argv)
    if args.command == "experiment":
        for key, value in PROFILES[(args.profile, args.which)].items():
            options[key].default = config.get(key, value)
        args = parser.parse_args(argv)
    return args


def _preset_names(text):
    """--presets: comma-separated preset names."""
    return [name.strip() for name in text.split(",") if name.strip()]


def cmd_solve(args):
    if args.preset is None:
        raise MissingParameter("solve needs --preset")
    A = read_matrix_market(args.matrix)
    b = read_vector_csv(args.rhs)
    if np.linalg.norm(b) == 0.0:  # every solve metric is relative to ||b||
        raise ZeroMatrix(f"{args.rhs}: right-hand side b is zero")
    cfg = preset(
        args.preset,
        A,
        lam=args.lam,
        eps=args.eps,
        tau=args.tau,
        max_iterations=200 * A.shape[0] if args.iterations is None else args.iterations,
        seed=args.seed,
        checkpoint_interval=args.checkpoint_interval,
        z_stepsize_mode=args.z_stepsize,
    )
    # no ground truth: residuals are relative to b itself, and there is no rel_error
    field = "complex" if np.iscomplexobj(A) else "real"
    system = ProblemInstance(A, b, b_hat=b, x_hat=None, field=field, noise_kind="none",
                             noise_level=0.0)
    recorder = MetricRecorder(system, cfg.g or QuadraticMisfit())
    report = run(A, b, cfg, hooks=(recorder,))
    write_vector_csv(os.path.join(args.out, "solution.csv"), report.state.x)
    rows = recorder.rows
    lines = [METRICS_CSV_VERSION, "iteration,rel_residual,rel_grad_quadratic,rel_grad_misfit,sparsity"]
    for k, res, gq, gm, sp in zip(recorder.checkpoints, rows["rel_residual"],
                                  rows["rel_grad_quadratic"], rows["rel_grad_misfit"],
                                  rows["sparsity"]):
        lines.append(f"{k},{_fmt(res)},{_fmt(gq)},{_fmt(gm)},{int(sp)}")
    atomic_write(os.path.join(args.out, "metrics.csv"), "\n".join(lines) + "\n")
    print(f"{args.preset}: {report.iterations} iterations, stop reason {report.stop_reason}")
    print(f"final rel residual {rows['rel_residual'][-1]:.3e}, "
          f"sparsity {int(rows['sparsity'][-1])}")
    return EXIT_OK


def cmd_experiment(args):
    names = DEFAULT_PRESETS[args.which] if args.presets is None else args.presets
    specs = [PresetSpec(name=name, lam=args.lam, eps=args.eps, tau=args.tau) for name in names]
    interval = args.m if args.checkpoint_interval is None else args.checkpoint_interval
    result = run_trials(
        make_generator(args.which, vars(args), args.field),
        specs,
        trials=args.trials,
        iterations=args.epochs * args.m,
        base_seed=args.seed,
        checkpoint_interval=interval,
    )
    paths = write_experiment_csvs(result, args.out, args.which)
    print(sparsity_table(result))
    print(f"wrote {len(paths)} files under {os.path.join(args.out, args.which)}")
    return EXIT_OK


def cmd_certify(args):
    if args.lam is None:
        raise MissingParameter("certify needs --lambda")
    A = read_matrix_market(args.matrix)
    if args.xhat is None and args.rhs is None:
        raise MissingParameter("certify needs --xhat or --rhs")
    v = read_vector_csv(args.rhs if args.xhat is None else args.xhat)
    if args.xhat is not None and v.size != A.shape[1]:
        raise DimensionMismatch(f"{args.xhat}: x_hat has length {v.size}, "
                                f"but the matrix has {A.shape[1]} columns")
    embedded = np.iscomplexobj(A) or np.iscomplexobj(v)
    if embedded:
        A, v = embed_complex_as_real(A.astype(complex)), embed_vec(v.astype(complex))
    if args.xhat is not None:
        x_hat, y_hat = v, A @ v
    else:
        y_hat = range_projection_quadratic(A, v).value
        x_hat = constrained_regularizer_min(A, y_hat, ElasticNet(args.lam)).value
    report = verify_error_bound(
        A, x_hat, y_hat, args.lam, n_samples=args.samples, seed=args.seed, max_cols=args.max_cols
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
    """Declare every option once: its flag, type, choices and built-in default.

    parser.options[command] maps the dest of each option a config file may
    also set to its argparse action.  --matrix, --rhs, --xhat, --out, --which
    and --config are flag-only.
    """
    parser = argparse.ArgumentParser(
        prog="gerk",
        description="Randomized block Kaczmarz solvers with sparse regularization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.options = {}

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file; flags override it")
        options = parser.options[name] = {}

        def option(*flags, **kwargs):
            action = p.add_argument(*flags, **kwargs)
            options[action.dest] = action

        option("--seed", type=int, default=0)
        return p, option

    p, option = command("solve", cmd_solve, "run one preset on a MatrixMarket system")
    p.add_argument("--matrix", required=True, help="MatrixMarket matrix file")
    p.add_argument("--rhs", required=True, help="right-hand side vector CSV")
    p.add_argument("--out", required=True, help="output directory")
    option("--preset", choices=PRESET_NAMES)
    option("--lambda", dest="lam", type=float)
    option("--eps", type=float)
    option("--tau", type=float)
    option("--iterations", type=int, help="default: 200 per row of the matrix")
    option("--checkpoint-interval", type=int)
    option("--z-stepsize", choices=("constant", "residual_adaptive"), default="constant")

    p, option = command("experiment", cmd_experiment, "run the reproducible trial harness")
    p.add_argument("--which", choices=("i", "ii"), required=True)
    p.add_argument("--out", required=True, help="output directory")
    option("--profile", choices=("desk", "paper"), default="desk")
    option("--field", choices=("real", "complex"), default="real")
    option("--presets", type=_preset_names, help="comma-separated preset names")
    option("--m", type=int)
    option("--n", type=int)
    option("--rank", type=int)
    option("--sparsity", type=int)
    option("--noise-level", type=float)
    option("--sv-lo", type=float)
    option("--sv-hi", type=float)
    option("--lambda", dest="lam", type=float)
    option("--eps", type=float)
    option("--tau", type=float)
    option("--trials", type=int)
    option("--epochs", type=int)
    option("--checkpoint-interval", type=int, help="default: one epoch")

    p, option = command("certify", cmd_certify, "error-bound certificate for a system")
    p.add_argument("--matrix", required=True)
    p.add_argument("--xhat", help="planted solution vector CSV")
    p.add_argument("--rhs", help="derive x_hat from this rhs instead")
    p.add_argument("--out", help="certificate record file")
    option("--lambda", dest="lam", type=float)
    option("--samples", type=int, default=1000)
    option("--max-cols", type=int, default=15)
    return parser


# exit code of each error type, first match wins; a ValueError is an option
# value the library rejects, such as --trials 0
EXIT_CODES = (
    ((ParseError, MissingParameter, OSError, ValueError), EXIT_PARSE),
    ((DimensionMismatch, FieldMismatch), EXIT_DIMENSION),
    ((InvalidRank, DegenerateNullspace, ZeroMatrix), EXIT_DEGENERATE),
    (TooManyColumns, EXIT_ENUMERATION),
    (GerkError, 1),
)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _resolve_options(parser, args, argv)
        return args.func(args)
    except (GerkError, OSError, ValueError) as exc:
        print(f"gerk: error: {exc}", file=sys.stderr)
        return next(code for types, code in EXIT_CODES if isinstance(exc, types))


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
