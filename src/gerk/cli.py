"""Command-line interface.

Three subcommands:

    gerk solve       run one preset on a MatrixMarket system, write the
                     solution vector and a per-checkpoint metrics CSV
    gerk experiment  run the reproducible trial harness, write band CSVs and
                     a sparsity summary, print the sparsity table
    gerk certify     compute and sample-check an error-bound certificate

Every option is declared once, in build_parser.  The parser is built once per
process and never written to, so main may be called repeatedly and no state
carries from one call to the next.  Each call parses argv once, then fills
each value no flag gave from the JSON config file (--config), whose values are
parsed like flag text, then the profile (experiment only), then the built-in
default.  Exit codes: 0 success, 2 I/O or parse failure (message names file
and line) or an input to rescale (norms past the doubles, an iterate that
goes non-finite mid-run: NonFiniteIterate), 3 dimension mismatch, 4
degenerate problem (generator degeneracy, zero matrix, zero right-hand
side), 5 enumeration cap exceeded.  All outputs are written atomically and
contain no timestamps, so repeated identical invocations produce
byte-identical files.
"""

import argparse
import functools
import math
import os
import sys

import numpy as np

from .certificates import verify_error_bound
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    GerkError,
    InvalidRank,
    MissingParameter,
    NonFiniteIterate,
    ParseError,
    TooManyColumns,
    ZeroMatrix,
)
from .experiments import (
    PROFILES,
    MetricRecorder,
    PresetSpec,
    ProblemInstance,
    gen_experiment_i,
    gen_experiment_ii,
    run_trials,
    sparsity_table,
    write_experiment_csvs,
)
from .fileio import (
    CERTIFICATE_VERSION,
    METRICS_CSV_VERSION,
    atomic_write,
    format_record,
    read_config,
    read_matrix_market,
    read_vector_csv,
    write_csv,
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
    """The config file's object (fileio.read_config), its keys spelled as dests."""
    out = {str(k).replace("-", "_"): v for k, v in read_config(path).items()}
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
        raise ParseError(path, None, f"{key}: expected a string or a number")
    try:
        parsed = value if action.type is None else action.type(value)
    except ValueError:
        message = f"{key}: invalid {action.type.__name__} value {value!r}"
        raise ParseError(path, None, message) from None
    if action.choices is not None and parsed not in action.choices:
        raise ParseError(path, None, f"{key}: invalid choice {value!r} "
                                     f"(choose from {', '.join(action.choices)})")
    return parsed


def _resolve_options(args):
    """Fill each option no flag gave from the config file, then the profile
    (experiment only), then the built-in default."""
    options = build_parser().options[args.command]
    config = {}
    if args.config is not None:
        for key, value in _load_config(args.config).items():
            if key in options and value is not None:
                config[key] = _config_value(args.config, options[key][0], value)
    profile = {}
    if args.command == "experiment":
        args.profile = args.profile or config.get("profile", options["profile"][1])
        profile = PROFILES[(args.profile, args.which)]
    for dest, (_, default) in options.items():
        if getattr(args, dest) is None:
            setattr(args, dest, config.get(dest, profile.get(dest, default)))


def _preset_names(text):
    """--presets: comma-separated preset names."""
    return [name.strip() for name in text.split(",") if name.strip()]


def cmd_solve(args):
    if args.preset is None:
        raise MissingParameter("solve needs --preset")
    A = read_matrix_market(args.matrix)
    b = read_vector_csv(args.rhs)
    cfg = preset(
        args.preset,
        A,
        lam=args.lam,
        eps=args.eps,
        tau=args.tau,
        max_iterations=200 * A.shape[0] if args.iterations is None else args.iterations,
        seed=args.seed,
        checkpoint_interval=args.checkpoint_interval,
    )
    if not b.any():
        raise ZeroMatrix(f"{args.rhs}: right-hand side b is zero")
    # no ground truth: residuals are relative to b itself, and there is no rel_error
    field = "complex" if np.iscomplexobj(A) else "real"
    system = ProblemInstance(A, b, b_hat=b, x_hat=None, field=field, noise_kind="none",
                             noise_level=0.0)
    recorder = MetricRecorder(system, cfg.g or QuadraticMisfit())
    # every metric divides by ||b||, refused where it overflows or its square
    # underflows to zero
    if not math.sqrt(np.finfo(float).smallest_subnormal) <= recorder.b_norm < np.inf:
        raise ValueError(f"{args.rhs}: the norm of b overflows or underflows; rescale b")
    report = run(A, b, cfg, hooks=(recorder,))
    write_vector_csv(os.path.join(args.out, "solution.csv"), report.state.x)
    rows = recorder.rows
    names = ("rel_residual", "rel_grad_quadratic", "rel_grad_misfit")
    write_csv(os.path.join(args.out, "metrics.csv"), METRICS_CSV_VERSION,
              ("iteration",) + names + ("sparsity",),
              zip(recorder.checkpoints, *map(rows.get, names), map(int, rows["sparsity"])))
    print(f"{args.preset}: {report.iterations} iterations, stop reason {report.stop_reason}")
    print(f"final rel residual {rows['rel_residual'][-1]:.3e}, "
          f"sparsity {int(rows['sparsity'][-1])}")
    return EXIT_OK


def cmd_experiment(args):
    specs = [PresetSpec(name, args.lam, args.eps, args.tau) for name in args.presets]
    gen = gen_experiment_i if args.which == "i" else gen_experiment_ii
    result = run_trials(
        lambda rng: gen(args.m, args.n, args.rank, args.sparsity, args.noise_level, args.sv_lo,
                        args.sv_hi, args.field, rng),
        specs,
        trials=args.trials,
        iterations=args.epochs * args.m,
        base_seed=args.seed,
        checkpoint_interval=args.checkpoint_interval,
    )
    paths = write_experiment_csvs(result, args.out, args.which)
    print(sparsity_table(result))
    print(f"wrote {len(paths)} files under {os.path.join(args.out, args.which)}")
    return EXIT_OK


# the certificate record's `regularizer` line: the function its x_hat minimizes
CERTIFIED_REAL = "elastic net: lam*sum_j |x_j| + ||x||^2/2"
CERTIFIED_COMPLEX = ("real elastic net on the real and imaginary parts: "
                     "lam*sum_j (|Re x_j| + |Im x_j|) + ||x||^2/2")


def cmd_certify(args):
    """Certify --xhat, or the elastic-net solution of --rhs, for --matrix.

    A complex system is certified in its real embedding: the real elastic
    net on the 2n real and imaginary parts, lam * sum(|Re x_j| + |Im x_j|).
    That is not the regularizer `solve` applies to complex input
    (ComplexElasticNet, lam * sum(|x_j|)), so the two x_hat can differ.
    """
    if args.lam is None:
        raise MissingParameter("certify needs --lambda")
    if args.xhat is None and args.rhs is None:
        raise MissingParameter("certify needs --xhat or --rhs")
    if args.xhat is not None and args.rhs is not None:
        raise ValueError("certify takes --xhat or --rhs, not both")
    A = read_matrix_market(args.matrix)
    v = read_vector_csv(args.rhs if args.xhat is None else args.xhat)
    if args.xhat is not None and v.size != A.shape[1]:
        raise DimensionMismatch(f"{args.xhat}: x_hat has length {v.size}, "
                                f"but the matrix has {A.shape[1]} columns")
    embedded = np.iscomplexobj(A) or np.iscomplexobj(v)
    if embedded:
        A, v = embed_complex_as_real(A.astype(complex)), embed_vec(v.astype(complex))
    if args.xhat is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # refused by verify_error_bound
            x_hat, y_hat = v, A @ v
    else:
        y_hat = range_projection_quadratic(A, v).value
        x_hat = constrained_regularizer_min(A, y_hat, ElasticNet(args.lam)).value
    report = verify_error_bound(
        A, x_hat, y_hat, args.lam, n_samples=args.samples, seed=args.seed, max_cols=args.max_cols
    )
    cert = report.certificate
    text = format_record(CERTIFICATE_VERSION, [
        ("n", cert.n), ("lam", cert.lam), ("embedded", "true" if embedded else "false"),
        ("regularizer", CERTIFIED_COMPLEX if embedded else CERTIFIED_REAL),
        ("sigma_tilde_min", cert.sigma_tilde_min), ("sigma_min_positive", cert.sigma_min_positive),
        ("xhat_min_abs", "none" if cert.xhat_min_abs is None else cert.xhat_min_abs),
        ("gamma", cert.gamma), ("samples", report.samples), ("violations", report.violations),
        ("max_ratio", report.max_ratio if report.ratio_samples else "none"),
    ])
    if args.out:
        atomic_write(args.out, text)
    print(text, end="")
    return EXIT_OK


@functools.cache
def build_parser():
    """Declare every option once: its flag, type, choices and built-in default.

    Built once per process, never written to.  parser.options[command] maps the
    dest of each option a config file may also set to its argparse action, whose
    default None means not given, and its built-in default.  --matrix, --rhs,
    --xhat, --out, --which and --config are flag-only.
    """
    parser = argparse.ArgumentParser(
        prog="gerk",
        description="Randomized block Kaczmarz solvers with sparse regularization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.options = {}

    def command(name, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config file; flags override it")
        options = parser.options[name] = {}

        def option(*flags, default=None, **kwargs):
            action = p.add_argument(*flags, **kwargs)
            options[action.dest] = action, default

        option("--seed", type=int, default=0)
        return p, option

    p, option = command("solve", "run one preset on a MatrixMarket system")
    p.add_argument("--matrix", required=True, help="MatrixMarket matrix file")
    p.add_argument("--rhs", required=True, help="right-hand side vector CSV")
    p.add_argument("--out", required=True, help="output directory")
    option("--preset", choices=PRESET_NAMES)
    option("--lambda", dest="lam", type=float)
    option("--eps", type=float)
    option("--tau", type=float)
    option("--iterations", type=int, help="default: 200 per row of the matrix")
    option("--checkpoint-interval", type=int)

    p, option = command("experiment", "run the reproducible trial harness")
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

    p, option = command("certify", "error-bound certificate for a system")
    p.add_argument("--matrix", required=True)
    p.add_argument("--xhat", help="planted solution vector CSV")
    p.add_argument("--rhs", help="derive x_hat from this rhs instead")
    p.add_argument("--out", help="certificate record file")
    option("--lambda", dest="lam", type=float)
    option("--samples", type=int, default=1000)
    option("--max-cols", type=int, default=15)
    return parser


# exit code of each error type, first match wins; a ValueError is an option
# value the library rejects, such as --trials 0; NonFiniteIterate asks to rescale
EXIT_CODES = (
    ((ParseError, MissingParameter, NonFiniteIterate, OSError, ValueError), EXIT_PARSE),
    ((DimensionMismatch, FieldMismatch), EXIT_DIMENSION),
    ((InvalidRank, ZeroMatrix), EXIT_DEGENERATE),
    (TooManyColumns, EXIT_ENUMERATION),
    (GerkError, 1),
)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _resolve_options(args)
        return globals()[f"cmd_{args.command}"](args)
    except (GerkError, OSError, ValueError) as exc:
        print(f"gerk: error: {exc}", file=sys.stderr)
        return next(code for types, code in EXIT_CODES if isinstance(exc, types))


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
