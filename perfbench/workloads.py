"""The benchmark workloads: generated inputs, CLI invocations and output checks.

Each workload is a closed loop of `gerk` command-line invocations made in one
process.  A *pass* is the list of invocations one workload makes; the full
pass is what a user runs, the setup pass is the same command with its main
loop cut to zero work (`--epochs 0`, `--iterations 0`, or a column cap just
below the system's width for `certify`), so its wall time is everything the
command does before its first loop iteration.

Inputs come from `numpy.random.default_rng(seed)` and the benchmark's own
file writers; the program sees only the files and flags.  Outputs are read
back with the benchmark's own parsers.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

# rel_error tolerances at the pinned run lengths below.  Worst values seen
# over seeds 0..59 (0..29 for solve): 0.44, 0.11 and 0.044.  x = 0 gives
# 1.0, so a solver that stalls or diverges exceeds them.
DESK_II_TOL = 0.8
PAPER_I_TOL = 0.5
SOLVE_TOL = 0.25


@dataclass
class Invocation:
    argv: list
    expect_rc: int = 0


@dataclass
class Instance:
    """One planted system, handed to the per-layer measurements."""

    A: np.ndarray
    b: np.ndarray
    b_hat: np.ndarray
    x_hat: np.ndarray
    field: str
    rank: int
    sv_lo: float
    sv_hi: float
    sparsity: int
    noise: str
    noise_level: float
    lam: float = 10.0
    eps: float = 1e-2
    tau: float = 1e-3


def gaussian(rng, shape, field):
    g = rng.standard_normal(shape)
    if field == "complex":
        g = (g + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return g


def planted_system(rng, m, n, rank, sv_lo, sv_hi, field, sparsity, noise, noise_level):
    """A = U diag(sv) V^H with `sparsity` planted nonzeros in x_hat.

    noise is "impulsive" (ceil(n/20) corrupted rows), "nullspace" (noise
    orthogonal to range(A)) or None (consistent system).
    """
    u, _ = np.linalg.qr(gaussian(rng, (m, rank), field))
    v, _ = np.linalg.qr(gaussian(rng, (n, rank), field))
    sv = np.sort(rng.uniform(sv_lo, sv_hi, rank))[::-1]
    A = (u * sv) @ v.conj().T
    x_hat = np.zeros(n, dtype=A.dtype)
    x_hat[rng.choice(n, sparsity, replace=False)] = gaussian(rng, sparsity, field)
    b_hat = A @ x_hat
    b = b_hat.copy()
    if noise == "impulsive":
        rows = rng.choice(m, math.ceil(n / 20), replace=False)
        spikes = rng.choice([-1.0, 1.0], rows.size)
        if field == "complex":
            spikes = (spikes + 1j * rng.choice([-1.0, 1.0], rows.size)) / np.sqrt(2.0)
        b[rows] += noise_level * float(np.max(np.abs(b_hat))) * spikes
    elif noise == "nullspace":
        g = gaussian(rng, m, field)
        g -= u @ (u.conj().T @ g)
        b += noise_level * float(np.linalg.norm(b_hat)) * g / np.linalg.norm(g)
    return Instance(A, b, b_hat, x_hat, field, rank, sv_lo, sv_hi, sparsity, noise, noise_level)


# ------------------------------------------------------------- file formats


def _lines(values, sep):
    # repr is the shortest text that reads back to the same double
    if np.iscomplexobj(values):
        return [f"{z.real!r}{sep}{z.imag!r}" for z in values.tolist()]
    return [repr(x) for x in values.tolist()]


def write_mtx(path, A):
    """Dense MatrixMarket array file, column-major."""
    field = "complex" if np.iscomplexobj(A) else "real"
    head = [f"%%MatrixMarket matrix array {field} general", "% benchmark input",
            f"{A.shape[0]} {A.shape[1]}"]
    with open(path, "w") as fh:
        fh.write("\n".join(head + _lines(A.T.reshape(-1), " ")) + "\n")


def write_vector(path, v):
    head = ["re,im" if np.iscomplexobj(v) else "value"]
    with open(path, "w") as fh:
        fh.write("\n".join(head + _lines(v, ",")) + "\n")


def read_vector(path):
    rows = [ln.strip() for ln in open(path) if ln.strip() and not ln.startswith("#")]
    vals = np.array([[float(p) for p in ln.split(",")] for ln in rows[1:]])
    return vals[:, 0] + 1j * vals[:, 1] if rows[0] == "re,im" else vals[:, 0]


def read_csv_rows(path):
    rows = [ln.strip() for ln in open(path) if ln.strip() and not ln.startswith("#")]
    return [ln.split(",") for ln in rows[1:]]


def read_record(path):
    out = {}
    for ln in open(path):
        if "=" in ln and not ln.startswith("#"):
            key, val = ln.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def rel_err(x, x_hat):
    return float(np.linalg.norm(x - x_hat) / np.linalg.norm(x_hat))


# ---------------------------------------------------------------- workloads


class Workload:
    name = ""
    why = ""
    solver_loop = True  # False: the loop is certificate enumeration

    def __init__(self, seed, work_dir, smoke):
        self.seed = int(seed)
        self.work = work_dir
        self.smoke = smoke
        self.rng = np.random.default_rng([self.seed, 0x9E3779B9])
        os.makedirs(os.path.join(work_dir, "in"), exist_ok=True)

    def path(self, name):
        return os.path.join(self.work, "in", name)

    def prepare(self):
        """Write input files; return the Instance the layer measurements use."""
        raise NotImplementedError

    def matrix_file(self, inst):
        """A MatrixMarket file of the workload's matrix, for the reader's layer timing."""
        path = self.path("A.mtx")
        if not os.path.exists(path):
            write_mtx(path, inst.A)
        return path

    def setup_pass(self, out):
        raise NotImplementedError

    def full_pass(self, out):
        raise NotImplementedError

    def loop_iterations(self):
        """Solver iterations (or enumerated subset SVDs) in one full pass."""
        raise NotImplementedError

    def check(self, out):
        """({check: failure text or None}, rel_error) for one full pass's output tree."""
        raise NotImplementedError


class ExperimentWorkload(Workload):
    which = ""
    profile = ""
    presets = ()
    headline = ""
    tol = 1.0
    noise = ""
    # sizes pinned to the profile's values, and pinned run lengths
    dims = {}
    smoke_dims = dict(m=100, n=50, rank=25, sparsity=3)
    trials = epochs = 0
    smoke_trials, smoke_epochs = 2, 30
    sv_lo = sv_hi = noise_level = 0.0

    def _dims(self):
        return self.smoke_dims if self.smoke else self.dims

    def _run_len(self):
        return (self.smoke_trials, self.smoke_epochs) if self.smoke else (self.trials, self.epochs)

    def _argv(self, out, epochs):
        d = self._dims()
        argv = ["experiment", "--which", self.which, "--profile", self.profile,
                "--presets", ",".join(self.presets)]
        for key in ("m", "n", "rank", "sparsity"):
            argv += [f"--{key}", str(d[key])]
        # trial t runs on seed base + t: a stride keeps the trials of
        # different workload seeds apart
        return argv + ["--trials", str(self._run_len()[0]), "--epochs", str(epochs),
                       "--seed", str(self.seed * 1000), "--out", out]

    def prepare(self):
        d = self._dims()
        inst = planted_system(self.rng, d["m"], d["n"], d["rank"], self.sv_lo, self.sv_hi,
                              "real", d["sparsity"], self.noise, self.noise_level)
        inst.lam = 10.0 if self.which == "ii" else 5.0
        return inst

    def setup_pass(self, out):
        return [Invocation(self._argv(out, 0))]

    def full_pass(self, out):
        return [Invocation(self._argv(out, self._run_len()[1]))]

    def loop_iterations(self):
        trials, epochs = self._run_len()
        return trials * len(self.presets) * epochs * self._dims()["m"]

    def check(self, out):
        rows = read_csv_rows(os.path.join(out, self.which, self.headline, "rel_error.csv"))
        rel = float(rows[-1][3])  # median over trials
        return {
            "iterations": last_checkpoint(rows, self._run_len()[1] * self._dims()["m"]),
            "rel_error": within(f"{self.headline} median rel_error", rel, self.tol),
        }, rel


class ExpDeskII(ExperimentWorkload):
    name = "exp_desk_ii"
    why = ("many small real systems, all five presets: the per-iteration overhead of the "
           "solver loop, index draws and both updaters dominates")
    which, profile, headline = "ii", "desk", "gerk_bd"
    presets = ("rk", "srk", "rek", "gerk_ad", "gerk_bd")
    dims = dict(m=200, n=100, rank=50, sparsity=5)
    trials, epochs = 4, 25
    sv_lo, sv_hi, noise_level, noise = 0.1, 10.0, 5.0, "impulsive"
    tol = DESK_II_TOL


class ExpPaperI(ExperimentWorkload):
    name = "exp_paper_i"
    why = ("paper-size real systems with short runs: instance generation (full SVDs) and "
           "the range-projection oracle are a large share of the time")
    which, profile, headline = "i", "paper", "gerk_ad"
    presets = ("srk", "rek", "gerk_ad")  # the profile's defaults, pinned
    dims = dict(m=1000, n=500, rank=250, sparsity=25)
    trials, epochs = 1, 24
    sv_lo, sv_hi, noise_level, noise = 0.001, 100.0, 5.0, "nullspace"
    tol = PAPER_I_TOL


class SolveComplex(Workload):
    name = "solve_complex"
    why = ("one large complex system read from a dense MatrixMarket file: parsing, "
           "complex updaters and long vectors; a single system, nothing to batch")
    lam, eps, tau = 10.0, 1e-2, 1e-3

    def _shape(self):
        return (60, 30, 15, 3) if self.smoke else (800, 400, 200, 20)

    def _iterations(self):
        return 8000 if self.smoke else 40000

    def prepare(self):
        m, n, rank, sparsity = self._shape()
        inst = planted_system(self.rng, m, n, rank, 0.1, 10.0, "complex", sparsity,
                              "impulsive", 5.0)
        inst.lam, inst.eps, inst.tau = self.lam, self.eps, self.tau
        write_mtx(self.path("A.mtx"), inst.A)
        write_vector(self.path("b.csv"), inst.b)
        self.x_hat = inst.x_hat
        return inst

    def _argv(self, out, iterations):
        return ["solve", "--matrix", self.path("A.mtx"), "--rhs", self.path("b.csv"),
                "--preset", "gerk_bd", "--lambda", repr(self.lam), "--eps", repr(self.eps),
                "--tau", repr(self.tau), "--iterations", str(iterations),
                "--seed", str(self.seed), "--out", out]

    def setup_pass(self, out):
        return [Invocation(self._argv(out, 0))]

    def full_pass(self, out):
        return [Invocation(self._argv(out, self._iterations()))]

    def loop_iterations(self):
        return self._iterations()

    def check(self, out):
        rows = read_csv_rows(os.path.join(out, "metrics.csv"))
        rel = rel_err(read_vector(os.path.join(out, "solution.csv")), self.x_hat)
        return {
            "iterations": last_checkpoint(rows, self._iterations()),
            "rel_error": within("rel_error", rel, SOLVE_TOL),
        }, rel


class CertifyEnum(Workload):
    name = "certify_enum"
    why = ("certificates on small systems up to the 15-column cap: 2^n-1 subset SVDs and "
           "the oracles, with no Kaczmarz loop; hot-loop changes must leave it flat")
    solver_loop = False
    lam = 1.0
    samples = 1000

    def _systems(self):
        # (m, n, field); a complex system of n columns embeds to 2n real columns
        if self.smoke:
            return [(12, 6, "real"), (10, 3, "complex")]
        return [(30, 15, "real"), (30, 13, "real"), (24, 7, "complex")]

    @staticmethod
    def _width(n, field):
        return 2 * n if field == "complex" else n

    def prepare(self):
        for k, (m, n, field) in enumerate(self._systems()):
            inst = planted_system(self.rng, m, n, n, 1.0, 3.0, field, n, None, 0.0)
            # a consistent, well-conditioned system whose solution has every
            # entry away from zero: the constrained-minimum oracle then takes a
            # similar number of steps for every seed
            inst.x_hat = self.rng.choice([-1.0, 1.0], n) * self.rng.uniform(1.0, 2.0, n)
            inst.b = inst.b_hat = inst.A @ inst.x_hat
            write_mtx(self.path(f"A{k}.mtx"), inst.A)
            write_vector(self.path(f"b{k}.csv"), inst.b)
            if k == 0:
                first = inst
        first.lam = self.lam
        return first

    def matrix_file(self, inst):
        return self.path("A0.mtx")

    def _argv(self, k, out):
        return ["certify", "--matrix", self.path(f"A{k}.mtx"), "--rhs", self.path(f"b{k}.csv"),
                "--lambda", repr(self.lam), "--samples", str(self.samples),
                "--seed", str(self.seed), "--out", os.path.join(out, f"cert{k}.txt")]

    def setup_pass(self, out):
        # a cap one below the width refuses (exit 5) after parsing and both
        # oracles, just before the enumeration
        return [
            Invocation(self._argv(k, out) + ["--max-cols", str(self._width(n, f) - 1)], 5)
            for k, (_, n, f) in enumerate(self._systems())
        ]

    def full_pass(self, out):
        return [Invocation(self._argv(k, out)) for k in range(len(self._systems()))]

    def loop_iterations(self):
        return sum(2 ** self._width(n, f) - 1 for _, n, f in self._systems())

    def check(self, out):
        checks = {}
        for k, (_, n, field) in enumerate(self._systems()):
            record = read_record(os.path.join(out, f"cert{k}.txt"))
            # the certificate covers every column, draws every sample, holds on all
            for key, want in (("n", self._width(n, field)), ("samples", self.samples),
                              ("violations", 0)):
                got = record.get(key)
                checks[f"cert{k}.{key}"] = None if got == str(want) else f"{key} = {got}, expected {want}"
        return checks, None


def last_checkpoint(rows, expected):
    got = int(rows[-1][0])
    return None if got == expected else f"last checkpoint {got}, expected {expected}"


def within(label, value, tol):
    return None if value <= tol else f"{label} {value:.4g} > {tol}"


WORKLOADS = {w.name: w for w in (ExpDeskII, ExpPaperI, SolveComplex, CertifyEnum)}
