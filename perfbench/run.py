"""Benchmark of the gerk command line: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload exp_desk_ii --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Each run imports gerk from `src/` of the checkout it sits in and calls the CLI
entry point in this process, one invocation after another (closed loop, one
client).  After one untimed warm-up set it repeats sets until `--seconds`
have passed (at least three sets).  A set is the workload's setup pass (the
same command with zero loop work, repeated until it has run 0.3 s) followed
by its full pass; see workloads.py.

--trace 0 prints the end-to-end metrics, each the median over sets.  Times
are wall-clock seconds scaled to a reference host speed measured between
passes (calibrate.py); the unscaled medians are printed too.
    wall_s       wall time of the full pass
    setup_s      wall time of the setup pass: parsing or instance generation,
                 oracle targets and partitions, before the first loop iteration
    iters_per_s  loop iterations / (wall_s - setup_s) per set; the loop is the
                 Kaczmarz iterations summed over trials and presets, and on
                 certify_enum (no Kaczmarz loop) the enumerated subset SVDs
    peak_rss_mb  peak resident memory of the process
rel_error and failed_frac are printed with them but are not gated metrics:
rel_error is fixed by the seed and not defined for certify_enum, and
failed_frac is 0 on a good run; failures also show in `failed`.

--trace 1 prints the per-layer metrics: direct timings of each layer's public
functions on the workload's system (layers.py), and counts, self-time shares
and tracing overhead from sets run with every public gerk function wrapped in
a span (tracer.py), alternating with untraced sets.

Every run checks its outputs: each invocation's exit code, byte-identical
output trees across the sets of the run, rel_error within the workload's
tolerance, and zero certificate violations.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.  A fuller record
(environment, sample counts, percentiles, trace summary) and the raw spans of
the first traced set are written under perfbench/results/.

--smoke runs every workload at tiny sizes in both modes, checks that every
metric named in BENCHMARK.json is emitted with its unit, and runs negative
controls showing that each output check fires.
"""

import os

# Fixed single-threaded BLAS: steadier timings on a shared machine, and the
# hot loop is per-call overhead, not flops.  Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from calibrate import NOMINAL_S, Reference  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, CertifyEnum, SolveComplex, read_vector, write_vector  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
MIN_SETS = 3
SETUP_MIN_S = 0.3  # short setup passes repeat within a set, averaging host jitter


def load_gerk():
    """Import gerk from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "gerk", "cli.py")):
        sys.exit(f"perfbench: no gerk sources at {os.path.relpath(SRC)}/gerk")
    sys.path.insert(0, SRC)
    import gerk.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(gerk.__file__))) != SRC:
        sys.exit(f"perfbench: imported gerk from {gerk.__file__}, not from {SRC}")
    return gerk.cli.main


def environment(seed):
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout varies across numpy versions
        blas = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return dict(nproc=nproc, cpu_model=cpu, python=platform.python_version(),
                numpy=np.__version__, blas=blas, blas_threads=int(BLAS_THREADS),
                git_commit=git_commit(), src_sha256=src_digest(), seed=seed)


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head_file = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_file):
        return None
    head = open(head_file).read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_file = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_file):
        return open(ref_file).read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        for line in open(packed):
            if line.rstrip().endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "gerk")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0" + open(os.path.join(pkg, name), "rb").read())
    return h.hexdigest()


def tree_digest(path):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Checker:
    """Counts attempted and failed operations: invocations and output checks."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.rel_errors = []

    def _record(self, name, failure):
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {failure}")

    def invocation(self, inv, rc, output):
        failure = None
        if rc != inv.expect_rc:
            failure = f"exit {rc}, expected {inv.expect_rc}\n{output}"
        self._record(inv.argv[0], failure)

    def output(self, out):
        """Check one full pass's output tree; returns {check: failure or None}."""
        try:
            checks, rel = self.workload.check(out)
        except Exception as exc:  # a missing or malformed output file
            checks, rel = {"readable": f"{type(exc).__name__}: {exc}"}, None
        digest = tree_digest(out)
        if self.reference is None:
            self.reference = digest
        checks["identical"] = None if digest == self.reference else "output tree differs"
        for name, failure in checks.items():
            self._record(name, failure)
        if rel is not None:
            self.rel_errors.append(rel)
        return checks


def invoke(cli_main, inv):
    """Run one CLI invocation in this process; (exit code, seconds, output tail)."""
    gc.collect()
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli_main(inv.argv)
    except SystemExit as exc:  # argparse rejects a flag
        rc = exc.code
    except Exception:
        rc = "exception"
        sink.write(traceback.format_exc(limit=3))
    seconds = time.perf_counter() - t0
    return rc, seconds, sink.getvalue()[-500:]


def run_pass(cli_main, invocations, checker):
    total = 0.0
    for inv in invocations:
        rc, seconds, output = invoke(cli_main, inv)
        checker.invocation(inv, rc, output)
        total += seconds
    return total


def stats(samples, unit):
    """Median, the highest percentile with at least ten samples beyond it, count."""
    samples = [float(s) for s in samples]
    n = len(samples)
    pct = math.floor(100 * (1 - 10 / n)) if n >= 20 else 100
    return dict(value=float(np.median(samples)), unit=unit, n=n, p_label=f"p{pct}",
                p_value=float(np.percentile(samples, pct)))


class Run:
    """One benchmark run of one workload."""

    def __init__(self, cli_main, name, seed, seconds, smoke):
        self.cli_main = cli_main
        self.work = os.path.join(HERE, f"work-{os.getpid()}-{name}")
        shutil.rmtree(self.work, ignore_errors=True)
        self.workload = WORKLOADS[name](seed, self.work, smoke)
        self.seconds = seconds
        self.min_sets = 2 if smoke else MIN_SETS
        self.instance = self.workload.prepare()
        self.checker = Checker(self.workload)
        self.reference = Reference()
        self.sets = 0

    def out_dir(self, tag):
        return os.path.join(self.work, "out", f"{self.sets}-{tag}")

    def setup_pass(self, min_time=SETUP_MIN_S):
        """Mean seconds of the setup pass, repeated until it has run min_time."""
        total, count = 0.0, 0
        while count == 0 or total < min_time:
            out = self.out_dir(f"setup{count}")
            total += run_pass(self.cli_main, self.workload.setup_pass(out), self.checker)
            shutil.rmtree(out, ignore_errors=True)
            count += 1
        return total / count

    def full_pass(self, tracer=None):
        out = self.out_dir("full")
        cli_main = self.cli_main if tracer is None else tracer.wrap("cli.main", self.cli_main)
        if tracer is not None:
            tracer.install()
        try:
            seconds = run_pass(cli_main, self.workload.full_pass(out), self.checker)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.checker.output(out)
        shutil.rmtree(out, ignore_errors=True)
        self.sets += 1
        return seconds

    def until_done(self, deadline, count):
        return count < self.min_sets or time.perf_counter() < deadline

    def end_to_end(self):
        self.setup_pass(min_time=0.0)
        self.full_pass()  # warm-up: imports, caches, first-touch pages
        iters = self.workload.loop_iterations()
        refs = [self.reference.seconds()]
        raw_setups, raw_walls, setups, walls, rates = [], [], [], [], []
        deadline = time.perf_counter() + self.seconds
        while self.until_done(deadline, len(walls)):
            raw_setups.append(self.setup_pass())
            raw_walls.append(self.full_pass())
            refs.append(self.reference.seconds())
            # both passes scaled by the reference speed measured on either side of the set
            scale = 2 * NOMINAL_S / (refs[-2] + refs[-1])
            setups.append(raw_setups[-1] * scale)
            walls.append(raw_walls[-1] * scale)
            rates.append(iters / max(walls[-1] - setups[-1], 1e-9))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = dict(wall_s=stats(walls, "s"), setup_s=stats(setups, "s"),
                       iters_per_s=stats(rates, "1/s"), peak_rss_mb=stats([peak], "MB"))
        raw = dict(wall_s=raw_walls, setup_s=raw_setups, reference_s=refs)
        return metrics, dict(detail=dict(raw=raw))

    def per_layer(self):
        import layers  # imports gerk, so only after load_gerk()

        self.full_pass()  # warm-up
        start = time.perf_counter()
        values = layers.measure(self.instance, self.workload.matrix_file(self.instance),
                                self.work, self.workload.seed,
                                certify=isinstance(self.workload, CertifyEnum))
        # the traced and untraced sets share what is left of the run time
        deadline = start + self.seconds
        plain, traced, summaries, first = [], [], [], None
        while self.until_done(deadline, len(traced)):
            plain.append(self.full_pass())
            tracer = Tracer()
            traced.append(self.full_pass(tracer))
            summaries.append(tracer.summary())
            if first is None:
                first = tracer
        s0 = summaries[0]
        iters = self.workload.loop_iterations()
        values["rng.draws_per_iter"] = s0["solver_draws"] / iters if self.workload.solver_loop else 0.0
        values["certificates.svds"] = float(s0["svds"])
        values["fileio.write_s"] = float(np.median([s["fileio_write_s"] for s in summaries]))
        values["trace.overhead_s"] = float(np.median(traced) - np.median(plain))
        traced_total = float(np.sum(traced))
        for layer in ("cli",) + LAYERS:
            own = sum(s["by_layer"].get(layer, 0.0) for s in summaries)
            values[f"trace.self_share.{layer}"] = own / traced_total
        values["trace.coverage"] = sum(s["self_sum_s"] for s in summaries) / traced_total
        metrics = {k: dict(value=float(v), unit=LAYER_UNITS[k], n=1) for k, v in values.items()}
        metrics["trace.overhead_s"]["n"] = len(traced)
        detail = dict(traced_wall_s=traced, untraced_wall_s=plain, first_trace=dict(
            spans=s0["spans"], root_s=s0["root_s"], self_sum_s=s0["self_sum_s"],
            by_layer=s0["by_layer"], by_name=s0["by_name"]))
        return metrics, dict(detail=detail, tracer=first)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


LAYER_UNITS = {
    "rng.draw_ns": "ns", "rng.draws_per_iter": "count",
    "solver.setup_s": "s", "solver.step_us": "us",
    "blocks.partition_s": "s",
    "potentials.f_update_us": "us", "potentials.g_update_us": "us",
    "experiments.instance_s": "s", "experiments.recorder_us": "us",
    "experiments.hook_share": "fraction", "experiments.write_s": "s",
    "linalg.rank_deficient_s": "s", "linalg.nullspace_s": "s",
    "oracles.range_projection_s": "s", "oracles.constrained_min_s": "s",
    "oracles.constrained_min_iters": "count",
    "certificates.sigma_tilde_min_s": "s", "certificates.svds": "count",
    "certificates.verify_us_per_sample": "us",
    "fileio.read_mtx_s": "s", "fileio.read_mtx_mb_per_s": "MB/s", "fileio.write_s": "s",
    "trace.overhead_s": "s", "trace.coverage": "fraction",
    **{f"solver.us_per_iter.{p}": "us" for p in ("rk", "srk", "rek", "gerk_ad", "gerk_bd")},
    **{f"trace.self_share.{layer}": "fraction" for layer in ("cli",) + LAYERS},
}

REFERENCE_FILE = os.path.join(HERE, "reference_baseline.json")


def print_report(name, seed, trace, seconds, env, metrics, checker, extra):
    print(f"gerk benchmark: workload={name} seed={seed} trace={trace} seconds={seconds}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for key, st in metrics.items():
        spread = f"  {st['p_label']} {st['p_value']:.6g}" if "p_label" in st else ""
        print(f"  {key:<36} {st['value']:<14.6g} {st['unit']:<9} median{spread}  n={st['n']}")
    if trace == 0:
        for key, samples in extra["detail"]["raw"].items():
            print(f"  {'raw ' + key + ' (not gated)':<36} {float(np.median(samples)):<14.6g} "
                  f"{'s':<9} median  n={len(samples)}")
        rel = checker.rel_errors
        if rel:
            print(f"  {'rel_error (not gated)':<36} {float(np.median(rel)):<14.6g} {'1':<9} "
                  f"median  n={len(rel)}")
    frac = checker.failed / max(checker.attempted, 1)
    print(f"  {'failed_frac (not gated)':<36} {frac:<14.6g} {'1':<9} "
          f"{checker.failed} of {checker.attempted} operations")
    for failure in checker.failures:
        print(f"  FAILED {failure}")
    if trace == 1:
        ref = json.load(open(REFERENCE_FILE))
        print(f"reference ({ref['label']}):")
        for shape, row in ref["us_per_iter"].items():
            print(f"  {shape:<10} " + "  ".join(f"{p} {v}" for p, v in row.items()))
        first = extra["detail"]["first_trace"]
        print(f"first traced set: {first['spans']} spans, self times sum to "
              f"{first['self_sum_s']:.4f} s of {first['root_s']:.4f} s in CLI calls")


def write_results(name, seed, trace, env, metrics, checker, extra):
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{name}-seed{seed}-trace{trace}")
    record = dict(workload=name, trace=trace, environment=env, metrics=metrics,
                  attempted=checker.attempted, failed=checker.failed,
                  failures=checker.failures, rel_error=checker.rel_errors,
                  **extra.get("detail", {}))
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if extra.get("tracer") is not None:
        extra["tracer"].save(stem + "-spans.npz")


def bench(cli_main, name, seed, seconds, trace, smoke=False):
    """One run; returns (metrics, checker, extra)."""
    run = Run(cli_main, name, seed, seconds, smoke)
    try:
        metrics, extra = run.per_layer() if trace else run.end_to_end()
    finally:
        run.close()
    return metrics, run.checker, extra


def result_line(metrics, checker):
    return json.dumps(dict(
        correct=checker.failed == 0, attempted=checker.attempted, failed=checker.failed,
        metrics={k: dict(value=st["value"], unit=st["unit"]) for k, st in metrics.items()}))


# ------------------------------------------------------------------- smoke


def negative_controls(cli_main):
    """Each output check must fail on an output broken in the way it guards against."""
    work = os.path.join(HERE, f"work-{os.getpid()}-controls")
    shutil.rmtree(work, ignore_errors=True)
    fired = {}
    try:
        wl = SolveComplex(1, os.path.join(work, "solve"), smoke=True)
        wl.prepare()
        checker = Checker(wl)
        out = os.path.join(work, "solve-out")
        run_pass(cli_main, wl.full_pass(out), checker)
        clean = checker.output(out)
        fired["clean solve passes"] = not any(clean.values()) and checker.failed == 0
        path = os.path.join(out, "metrics.csv")
        data = bytearray(open(path, "rb").read())
        data[-2] ^= 0x01  # one corrupted output byte
        open(path, "wb").write(bytes(data))
        fired["corrupted byte"] = checker.output(out)["identical"] is not None
        x = read_vector(os.path.join(out, "solution.csv"))
        write_vector(os.path.join(out, "solution.csv"), x + 0.5 * np.abs(x).max())
        fired["perturbed solution"] = checker.output(out)["rel_error"] is not None
        solve_frac = checker.failed / checker.attempted

        wl = CertifyEnum(1, os.path.join(work, "certify"), smoke=True)
        inst = wl.prepare()
        checker = Checker(wl)
        out = os.path.join(work, "certify-out")
        run_pass(cli_main, wl.full_pass(out), checker)
        fired["clean certify passes"] = not any(checker.output(out).values())
        from gerk.oracles import constrained_regularizer_min, range_projection_quadratic
        from gerk.potentials import ElasticNet
        from gerk.certificates import verify_error_bound

        y_hat = range_projection_quadratic(inst.A, inst.b).value
        x_hat = constrained_regularizer_min(inst.A, y_hat, ElasticNet(wl.lam)).value
        honest = verify_error_bound(inst.A, x_hat, y_hat, wl.lam, wl.samples, wl.seed)
        cut = verify_error_bound(inst.A, x_hat, y_hat, wl.lam, wl.samples, wl.seed,
                                 gamma=honest.max_ratio / 10.0)
        path = os.path.join(out, "cert0.txt")
        text = open(path).read().replace("violations = 0", f"violations = {cut.violations}")
        open(path, "w").write(text)
        fired["cut gamma"] = checker.output(out)["cert0.violations"] is not None
        fired["failed_frac rises"] = solve_frac > 0 and checker.failed > 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return fired


def smoke(cli_main):
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    problems = []
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            metrics, checker, _ = bench(cli_main, wl["name"], 1, 0.2, trace, smoke=True)
            for m in spec[key]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{wl['name']} trace={trace}: {m['name']} missing")
                elif got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{wl['name']} trace={trace}: {m['name']} = {got}")
            extra = set(metrics) - {m["name"] for m in spec[key]}
            problems += [f"{wl['name']} trace={trace}: {k} not in BENCHMARK.json" for k in extra]
            problems += [f"{wl['name']} trace={trace}: {f}" for f in checker.failures]
            print(f"smoke {wl['name']} trace={trace}: {len(metrics)} metrics, "
                  f"{checker.attempted} operations, {checker.failed} failed")
    for control, ok in negative_controls(cli_main).items():
        print(f"control {control}: {'ok' if ok else 'DID NOT FIRE'}")
        if not ok:
            problems.append(f"control {control} did not fire")
    for p in problems:
        print("SMOKE FAILURE " + p)
    print(json.dumps(dict(smoke_ok=not problems, problems=len(problems))))
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, check metrics and controls")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke")
    cli_main = load_gerk()
    if args.smoke:
        return smoke(cli_main)
    env = environment(args.seed)
    metrics, checker, extra = bench(cli_main, args.workload, args.seed, args.seconds, args.trace)
    print_report(args.workload, args.seed, args.trace, args.seconds, env, metrics, checker, extra)
    write_results(args.workload, args.seed, args.trace, env, metrics, checker, extra)
    print(result_line(metrics, checker))
    return 0


if __name__ == "__main__":
    sys.exit(main())
