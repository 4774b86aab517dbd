"""Seeded fuzz of `gerk solve`: a finite result or a documented refusal.

Each draw writes a small real or complex system, with a zero row in about
one draw in five, A scaled by 10^U(-150, 150) and, in half the draws, b by a
further 10^U(-150, 150), and solves it in-process with one of the five
presets at lambda, eps and tau drawn from 10^U(-300, 300).  Every run must
either exit 0 with a finite solution.csv and no `nan` in metrics.csv, or exit
with a documented nonzero code and one `gerk: error:` line, having written
nothing.  No exception may escape, nor a RuntimeWarning, which the test
configuration turns into an error.
"""

import numpy as np

from gerk.cli import main
from gerk.fileio import write_matrix_market, write_vector_csv
from gerk.solver import PRESET_NAMES

DRAWS = 300
REFUSALS = (2, 3, 4)  # parse or rescale, dimension, degenerate


def draw_case(rng):
    m, n = rng.integers(1, 9, size=2)
    is_complex = rng.random() < 0.5
    A = rng.standard_normal((m, n))
    x0 = rng.standard_normal(n)
    if is_complex:
        A = A + 1j * rng.standard_normal((m, n))
        x0 = x0 + 1j * rng.standard_normal(n)
    if rng.random() < 0.2:
        A[rng.integers(m)] = 0.0
    A *= 10.0 ** rng.uniform(-150, 150)
    b = A @ x0
    if rng.random() < 0.5:
        b *= 10.0 ** rng.uniform(-150, 150)
    lam, eps, tau = (repr(float(v)) for v in 10.0 ** rng.uniform(-300, 300, size=3))
    options = ["--preset", str(rng.choice(PRESET_NAMES)), "--iterations", str(rng.integers(300)),
               "--lambda", lam, "--eps", eps, "--tau", tau]
    return A, b, options


def outcome(case, argv, capsys):
    """None when the run is finite or refused as documented, else what went wrong."""
    try:
        code = main(argv)
    except Exception as exc:  # a RuntimeWarning too
        return f"escaped: {exc!r}"
    err = capsys.readouterr().err
    if code != 0:
        if code not in REFUSALS:
            return f"exit {code}: {err}"
        if not err.startswith("gerk: error: ") or err.count("\n") != 1:
            return f"stderr {err!r}"
        return "wrote output" if (case / "out").exists() else None
    solution = (case / "out" / "solution.csv").read_text()
    if "nan" in solution or "inf" in solution:
        return "non-finite solution"
    if "nan" in (case / "out" / "metrics.csv").read_text():
        return "nan metric"
    return None


def test_solve_fuzz_is_finite_or_refused(tmp_path, capsys):
    rng = np.random.default_rng(0)
    failures = []
    for draw in range(DRAWS):
        A, b, options = draw_case(rng)
        case = tmp_path / str(draw)
        case.mkdir()
        write_matrix_market(case / "A.mtx", A)
        write_vector_csv(case / "b.csv", b)
        argv = ["solve", "--matrix", str(case / "A.mtx"), "--rhs", str(case / "b.csv"),
                "--out", str(case / "out")] + options
        problem = outcome(case, argv, capsys)
        if problem is not None:
            failures.append((draw, options, problem))
    assert failures == []
