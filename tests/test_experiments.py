import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gerk import blocks, experiments, solver
from gerk.experiments import (
    MetricRecorder,
    MetricTrace,
    PresetSpec,
    ProblemInstance,
    gen_experiment_i,
    gen_experiment_ii,
    run_trials,
    sparsity_count,
    sparsity_rows,
    write_experiment_csvs,
)
from gerk.linalg import make_rank_deficient, range_projector_apply
from gerk.oracles import range_projection_quadratic
from gerk.potentials import HuberQuadMisfit, QuadraticMisfit
from gerk.rng import BLOCK, RngStream
from gerk.solver import preset, run


def small_generator(which="i", field="real", noise=2.0):
    gen = gen_experiment_i if which == "i" else gen_experiment_ii

    def generator(rng):
        return gen(m=24, n=12, rank=6, sparsity=2, noise_level=noise,
                   sv_lo=0.5, sv_hi=2.0, field=field, rng=rng)

    return generator


def test_nullspace_noise_instance_invariants():
    for field in ("real", "complex"):
        inst = small_generator("i", field)(RngStream(800))
        assert inst.noise_kind == "nullspace"
        noise = inst.b - inst.b_hat
        # exact noise magnitude relative to the clean data
        target = 2.0 * np.linalg.norm(inst.b_hat)
        assert abs(np.linalg.norm(noise) - target) <= 1e-10 * target
        # and the noise is invisible to the adjoint
        assert np.linalg.norm(inst.A.conj().T @ noise) <= 1e-8 * np.linalg.norm(inst.b)
        assert np.array_equal(inst.b_hat, inst.A @ inst.x_hat)
        assert sparsity_count(inst.x_hat) == 2
        assert np.count_nonzero(inst.x_hat) == 2


def test_impulsive_noise_instance_invariants():
    for field in ("real", "complex"):
        inst = small_generator("ii", field, noise=3.0)(RngStream(801))
        assert inst.noise_kind == "impulsive"
        diff = inst.b - inst.b_hat
        hit = np.abs(diff) > 0
        # ceil(12/20) = 1 corrupted row with the prescribed amplitude
        assert int(hit.sum()) == 1
        amp = 3.0 * np.max(np.abs(inst.b_hat))
        assert abs(np.abs(diff[hit][0]) - amp) <= 1e-10 * amp


def test_impulse_count_scales_with_columns():
    def gen(rng):
        return gen_experiment_ii(m=60, n=50, rank=10, sparsity=3, noise_level=1.0,
                                 sv_lo=0.5, sv_hi=2.0, field="real", rng=rng)

    inst = gen(RngStream(802))
    assert int(np.count_nonzero(inst.b - inst.b_hat)) == 3  # ceil(50/20)


def test_zero_noise_levels():
    inst = small_generator("i", "real", noise=0.0)(RngStream(803))
    assert np.array_equal(inst.b, inst.b_hat)
    inst2 = small_generator("ii", "real", noise=0.0)(RngStream(803))
    assert np.linalg.norm(inst2.b - inst2.b_hat) == 0.0


def test_generator_determinism():
    a = small_generator()(RngStream(804))
    b = small_generator()(RngStream(804))
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.b, b.b)
    c = small_generator()(RngStream(805))
    assert not np.array_equal(a.A, c.A)


def test_recorder_matches_manual_metrics():
    inst = small_generator()(RngStream(806))
    z_target = inst.b - range_projection_quadratic(inst.A, inst.b).value
    recorder = MetricRecorder(inst, QuadraticMisfit(), z_target=z_target)
    cfg = preset("rek", inst.A, max_iterations=100, seed=3, checkpoint_interval=25)
    report = run(inst.A, inst.b, cfg, hooks=(recorder,))
    trace = recorder.trace()
    assert trace.checkpoints.tolist() == [0, 25, 50, 75, 100]
    x = report.state.x
    assert trace.metrics["rel_residual"][-1] == pytest.approx(
        np.linalg.norm(inst.A @ x - inst.b_hat) / np.linalg.norm(inst.b_hat)
    )
    assert trace.metrics["rel_error"][-1] == pytest.approx(
        np.linalg.norm(x - inst.x_hat) / np.linalg.norm(inst.x_hat)
    )
    r = inst.b - inst.A @ x
    assert trace.metrics["rel_grad_quadratic"][-1] == pytest.approx(
        np.linalg.norm(inst.A.T @ r) / np.linalg.norm(inst.b)
    )
    assert trace.metrics["z_error"][-1] == pytest.approx(
        np.linalg.norm(report.state.zstar - z_target)
    )
    assert trace.metrics["sparsity"][-1] == sparsity_count(x)
    # at iteration zero the iterate is x = 0
    assert trace.metrics["rel_error"][0] == pytest.approx(1.0)


def test_recorder_skips_z_without_target():
    inst = small_generator()(RngStream(807))
    recorder = MetricRecorder(inst, QuadraticMisfit())
    run(inst.A, inst.b, preset("srk", inst.A, lam=1.0, max_iterations=50, seed=1),
        hooks=(recorder,))
    assert "z_error" not in recorder.trace().metrics


def test_recorders_of_one_instance_share_its_norms(monkeypatch):
    # the presets' recorders of a trial take ||b_hat||, ||b|| and ||x_hat|| once, and
    # hold no array of A's size but A itself (no conjugate copy)
    calls = []
    norm = experiments._norm
    monkeypatch.setattr(experiments, "_norm", lambda v: calls.append(v) or norm(v))
    inst = small_generator(field="complex")(RngStream(809))
    calls.clear()
    recorders = [MetricRecorder(inst, g) for g in (QuadraticMisfit(), HuberQuadMisfit(0.1, 0.01))]
    assert len(calls) == 3
    for rec in recorders:
        assert (rec.b_hat_norm, rec.b_norm, rec.x_hat_norm) == (
            norm(inst.b_hat), norm(inst.b), norm(inst.x_hat))
        big = [v for v in vars(rec).values() if isinstance(v, np.ndarray) and v.size >= inst.A.size]
        assert len(big) == 1 and big[0] is inst.A


def _signed_zero_systems(rng):
    """Complex (A, r) pairs whose products A^H r hold exact zeros: real-valued
    entries, and imaginary parts of -0.0 beside +0.0."""
    for t in range(24):
        m, n = (int(k) for k in rng.integers(1, 300, 2))
        A = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        r = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        if t % 3 == 1:
            A, r = A.real + 0j, r.real + 0j
        elif t % 3 == 2:
            A.imag[:, ::2] = -0.0
            r.imag[::3] = -0.0
            r.real[::5] = -0.0
        yield A, r


def test_recorder_adjoint_is_bit_equal_to_the_conjugate_product():
    # A^H r without a conjugate copy of A, bit for bit, signed zeros included; a
    # plain conjugate of A^T conj(r) turns the +0.0 of an exact zero into -0.0
    rng = np.random.default_rng(31)
    zeros = 0
    for A, r in _signed_zero_systems(rng):
        inst = ProblemInstance(A, r, r, None, "complex", "none", 0.0)
        got = MetricRecorder(inst, QuadraticMisfit())._adjoint(r)
        want = A.conj().T @ r
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        plain = (A.T @ r.conj()).conj()
        zeros += plain.tobytes() != want.tobytes()
    assert zeros  # negative control: the cases hold zeros whose sign a plain conj flips
    A = np.random.default_rng(32).standard_normal((30, 20))
    r = np.random.default_rng(33).standard_normal(30)
    inst = ProblemInstance(A, r, r, None, "real", "none", 0.0)
    assert MetricRecorder(inst, QuadraticMisfit())._adjoint(r).tobytes() == (A.T @ r).tobytes()


def test_recorder_misfit_gradient_matches_full_formula():
    # a quadratic misfit reuses A^H r; both misfits are bit-equal to
    # ||A^H grad g(b - A x)|| / ||b|| computed in full
    for field in ("real", "complex"):
        inst = small_generator(field=field)(RngStream(808))
        for name, g in (("rek", QuadraticMisfit()), ("gerk_bd", HuberQuadMisfit(0.1, 0.01))):
            recorder = MetricRecorder(inst, g)
            cfg = preset(name, inst.A, lam=1.0, eps=0.1, tau=0.01, max_iterations=60, seed=2,
                         checkpoint_interval=20)
            xs = []
            run(inst.A, inst.b, cfg, hooks=(recorder, lambda s: xs.append(s.x.copy())))
            full = [float(np.linalg.norm(inst.A.conj().T @ g.gradient(inst.b - inst.A @ x)))
                    / float(np.linalg.norm(inst.b)) for x in xs]
            assert recorder.g_identity == (name == "rek")
            assert np.array_equal(recorder.trace().metrics["rel_grad_misfit"], full)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_recorder_builds_its_misfit_kernel_once(field, monkeypatch):
    # a Huber misfit's kernel is built with the recorder and runs into its own
    # buffer: rel_grad_misfit is byte-equal to the allocating form's, which
    # builds a kernel a call
    inst = small_generator(field=field)(RngStream(811))
    g = HuberQuadMisfit(0.1, 0.01)
    cfg = preset("gerk_bd", inst.A, lam=1.0, eps=0.1, tau=0.01, max_iterations=90, seed=3,
                 checkpoint_interval=15)
    states = []
    run(inst.A, inst.b, cfg, hooks=(lambda s: states.append(
        SimpleNamespace(k=s.k, x=s.x.copy(), zstar=None)),))
    recorder = MetricRecorder(inst, g)
    built = []
    updater = HuberQuadMisfit.updater
    monkeypatch.setattr(HuberQuadMisfit, "updater",
                        lambda self, *args: built.append(1) or updater(self, *args))
    for state in states:
        recorder(state)
    assert built == []
    want = [recorder._rel_grad(g.gradient(inst.b - inst.A @ s.x)) for s in states]
    assert len(built) == len(states) == 7
    assert recorder.trace().metrics["rel_grad_misfit"].tobytes() == np.array(want).tobytes()


def test_recorder_norms_survive_overflow():
    # at entries near 1e150, ||A^H r|| (about 1e300) squares past the largest
    # double; the recorder recomputes it scaled instead of reading inf
    rng = np.random.default_rng(7)
    A = 1e150 * rng.standard_normal((8, 4))
    b = A @ rng.standard_normal(4)
    system = experiments.ProblemInstance(A, b, b, None, "real", "none", 0.0)
    recorder = MetricRecorder(system, QuadraticMisfit())
    xs = []
    run(A, b, preset("rk", A, max_iterations=800, seed=1, checkpoint_interval=400),
        hooks=(recorder, lambda s: xs.append(s.x.copy())))
    metrics = recorder.trace().metrics
    assert metrics["rel_residual"][-1] <= 1e-12  # rk converges
    grads = [A.T @ (b - A @ x) for x in xs]
    # negative control: the plain norm of the first gradient overflows
    with np.errstate(over="ignore"):
        assert np.linalg.norm(grads[0]) == np.inf
    for name in ("rel_grad_quadratic", "rel_grad_misfit"):
        assert np.isfinite(metrics[name]).all()
        want = [np.linalg.norm(g / 1e150) * 1e150 / np.linalg.norm(b) for g in grads]
        assert metrics[name] == pytest.approx(want, rel=1e-12)


def test_recorder_gradient_of_a_product_past_the_largest_double():
    # A x 1e126 and b = A x0 x 1e238: A^T b holds entries past the largest
    # double of both signs, so A^T r read nan (inf - inf) at every checkpoint
    # of a converging rk run, and numpy warned; the recorder takes A^T (r / max|r|)
    rng = np.random.default_rng(0)
    A0 = rng.standard_normal((8, 4))
    b0 = A0 @ rng.standard_normal(4)
    A, b = 1e126 * A0, 1e238 * b0
    system = experiments.ProblemInstance(A, b, b, None, "real", "none", 0.0)
    recorder = MetricRecorder(system, QuadraticMisfit())
    xs = []
    run(A, b, preset("rk", A, max_iterations=200, seed=0, checkpoint_interval=8),
        hooks=(recorder, lambda s: xs.append(s.x.copy())))
    metrics = recorder.trace().metrics
    # negative control: the plain product is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(A.T @ (b - A @ xs[0])).all()
    # the reference scales A and b down first
    want = [np.linalg.norm(A0.T @ (b - A @ x) / 1e238) / np.linalg.norm(b0) * 1e126 for x in xs]
    for name in ("rel_grad_quadratic", "rel_grad_misfit"):
        assert np.isfinite(metrics[name]).all()
        assert metrics[name] == pytest.approx(want, rel=1e-12)
    # a complex norm past the largest double reads inf, not nan, though the
    # modulus of its entry overflows
    with np.errstate(over="ignore"):
        assert experiments._norm(np.array([1.5e308 - 1.5e308j, 1.0])) == math.inf


def test_recorder_norms_survive_underflow():
    # at b near 1e-160 the squares of b's entries are subnormal and those of
    # the residual underflow to zero: the recorder recomputes both norms
    # scaled, agreeing with math.hypot, which scales as it sums
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 4))
    b = 1e-160 * (A @ rng.standard_normal(4))
    system = experiments.ProblemInstance(A, b, b, None, "real", "none", 0.0)
    recorder = MetricRecorder(system, QuadraticMisfit())
    assert recorder.b_norm == pytest.approx(math.hypot(*b), rel=1e-15, abs=0.0)
    xs = []
    run(A, b, preset("rk", A, max_iterations=800, seed=1, checkpoint_interval=400),
        hooks=(recorder, lambda s: xs.append(s.x.copy())))
    residual = A @ xs[-1] - b
    # negative controls: the plain norms are off by 3.6e-5 and read 0
    assert abs(np.linalg.norm(b) / math.hypot(*b) - 1.0) > 1e-5
    assert np.linalg.norm(residual) == 0.0 < math.hypot(*residual)
    got = recorder.trace().metrics["rel_residual"][-1]
    assert got == pytest.approx(math.hypot(*residual) / math.hypot(*b), rel=1e-12, abs=0.0)
    # in range, the norm is the plain one, byte for byte
    v = rng.standard_normal(9)
    assert experiments._norm(v) == float(np.linalg.norm(v))


def test_sparsity_above_n_names_sparsity():
    for gen in (gen_experiment_i, gen_experiment_ii):
        with pytest.raises(ValueError, match="sparsity"):
            gen(m=24, n=12, rank=6, sparsity=13, noise_level=1.0, sv_lo=0.5, sv_hi=2.0,
                field="real", rng=RngStream(809))


def run_small(trials=4, base_seed=900, specs=None, field="real"):
    specs = specs or (PresetSpec("srk", lam=2.0), PresetSpec("rek"),
                      PresetSpec("gerk_ad", lam=2.0))
    return run_trials(small_generator(field=field), specs, trials=trials, iterations=200,
                      base_seed=base_seed, checkpoint_interval=50)


def assert_trials_equal(res_a, t_a, res_b, t_b=0):
    """Trial t_a of res_a is bit-equal to trial t_b of res_b: trace and final x."""
    for label in res_a.preset_labels:
        a, b = res_a.traces[label][t_a], res_b.traces[label][t_b]
        assert np.array_equal(a.checkpoints, b.checkpoints)
        assert a.metrics.keys() == b.metrics.keys()
        for name in a.metrics:
            assert np.array_equal(a.metrics[name], b.metrics[name]), (label, name)
        assert np.array_equal(res_a.final_x[label][t_a], res_b.final_x[label][t_b]), label


def test_band_quantile_ordering():
    result = run_small()
    assert result.preset_labels == ["srk", "rek", "gerk_ad"]
    for label in result.preset_labels:
        for name, band in result.bands[label].items():
            assert np.all(band.min <= band.q25 + 1e-15)
            assert np.all(band.q25 <= band.median + 1e-15)
            assert np.all(band.median <= band.q75 + 1e-15)
            assert np.all(band.q75 <= band.max + 1e-15)
    # z_error bands exist exactly for the z-enabled quadratic presets
    assert "z_error" not in result.bands["srk"]
    assert "z_error" in result.bands["rek"]
    assert "z_error" in result.bands["gerk_ad"]


def run_with_one_overflowing_trial(trials):
    # trial 0 has impulses of 1e308 times ||b_hat||_inf: srk's residual norm
    # passes the largest double and reads inf, while the other trials stay finite
    levels = iter([1e308] + [5.0] * (trials - 1))

    def generator(rng):
        return gen_experiment_ii(m=20, n=10, rank=5, sparsity=2, noise_level=next(levels),
                                 sv_lo=0.1, sv_hi=10.0, field="real", rng=rng)

    return run_trials(generator, [PresetSpec("srk", lam=10.0)], trials=trials, iterations=20,
                      base_seed=0)


OVERFLOWING = ("rel_residual", "rel_grad_quadratic", "rel_grad_misfit")


def test_band_of_one_trial_past_the_largest_double_is_inf():
    # np.quantile read each band of a one-trial inf as nan, and warned
    result = run_with_one_overflowing_trial(1)
    for name in OVERFLOWING:
        trace = result.traces["srk"][0].metrics[name]
        assert trace[-1] == np.inf
        band = result.bands["srk"][name]
        for quantile in (band.min, band.q25, band.median, band.q75, band.max):
            assert np.array_equal(quantile, trace)


@pytest.mark.parametrize("trials", [4, 5])
def test_band_beside_an_inf_trial(trials):
    # at 5 trials each quantile is an order statistic; at 4, q25 and the median
    # interpolate between finite values and q75 between a finite value and inf.
    # np.quantile gave nan on the inf order statistic and beside it
    result = run_with_one_overflowing_trial(trials)
    for name, band in result.bands["srk"].items():
        stacked = np.vstack([tr.metrics[name] for tr in result.traces["srk"]])
        got = np.array([band.min, band.q25, band.median, band.q75, band.max])
        with np.errstate(invalid="ignore"):
            numpy = np.quantile(stacked, [0.0, 0.25, 0.5, 0.75, 1.0], axis=0)
        finite = np.isfinite(stacked).all(axis=0)
        assert np.array_equal(got[:, finite], numpy[:, finite])  # bit for bit
        assert not np.isnan(got).any()
        if name in OVERFLOWING:
            assert list(finite) == [True] * (len(finite) - 1) + [False]
            last = np.sort(stacked[:, -1])
            assert last[-1] == np.inf
            want = last if trials == 5 else [*numpy[:3, -1], np.inf, np.inf]
            assert np.array_equal(got[:, -1], want)


def assert_bands_per_band(bands, traces):
    """Each band is byte-equal to a _quantiles call over that band alone."""
    for label, trs in traces.items():
        names = [name for name in experiments.METRIC_NAMES if name in trs[0].metrics]
        assert list(bands[label]) == names
        for name in names:
            band = bands[label][name]
            alone = experiments._quantiles(np.vstack([tr.metrics[name] for tr in trs]))
            got = np.array([band.min, band.q25, band.median, band.q75, band.max])
            assert got.tobytes() == alone.tobytes(), (label, name)
            assert band.checkpoints.tobytes() == trs[0].checkpoints.tobytes()


@pytest.mark.parametrize("trials", [1, 2, 3, 4, 10])
def test_bands_equal_per_band_quantiles(trials):
    # one _quantiles call over every band's columns side by side gives each
    # band what it gets alone: a run with an inf column and tied sparsity
    # counts, and traces of distinct columns per band, one reaching inf and one
    # of tied order statistics, where mixing columns would show
    result = run_with_one_overflowing_trial(trials)
    assert result.bands["srk"]["rel_residual"].max[-1] == np.inf
    assert_bands_per_band(result.bands, result.traces)
    rng = np.random.default_rng(trials)
    checkpoints = np.arange(0, 60, 10)

    def trace(names):
        metrics = {name: rng.standard_normal(6) * 10.0 ** k for k, name in enumerate(names)}
        if "sparsity" in metrics:
            metrics["sparsity"] = np.floor(rng.uniform(0.0, 3.0, 6))  # ties
        if "rel_residual" in metrics:
            metrics["rel_residual"][rng.integers(3, 6):] = np.inf
        return MetricTrace(checkpoints, metrics)

    traces = {"a": [trace(experiments.METRIC_NAMES) for _ in range(trials)],
              "b": [trace(("rel_residual", "rel_error", "sparsity")) for _ in range(trials)]}
    assert_bands_per_band(experiments._bands(traces), traces)


def test_batched_equals_one_at_a_time():
    batched = run_small(trials=4)
    for t in range(4):
        assert_trials_equal(batched, t, run_small(trials=1, base_seed=900 + t))


def test_batch_size_does_not_change_a_trial():
    # every preset, both fields: trial 1 of a run (seed 902) is bit-equal
    # alone and in batches of 2, 3 and 10, and a one-trial band is its trace
    specs = (PresetSpec("rk"), PresetSpec("srk", lam=2.0), PresetSpec("rek"),
             PresetSpec("gerk_ad", lam=2.0),
             PresetSpec("gerk_bd", lam=2.0, eps=0.01, tau=0.001))
    for field in ("real", "complex"):
        alone = run_small(trials=1, base_seed=902, specs=specs, field=field)
        for label in alone.preset_labels:
            for name, band in alone.bands[label].items():
                assert np.array_equal(band.median, alone.traces[label][0].metrics[name])
        for trials in (2, 3, 10):
            batched = run_small(trials=trials, base_seed=901, specs=specs, field=field)
            assert_trials_equal(batched, 1, alone)


def test_grouping_does_not_change_results(monkeypatch):
    whole = run_small(trials=5)
    # room for two trials per group: groups of 2, 2 and 1
    monkeypatch.setattr(experiments, "GROUP_BYTES", 2 * 2 * 24 * 12 * 8)
    grouped = run_small(trials=5)
    for t in range(5):
        assert_trials_equal(whole, t, grouped, t)


def test_experiment_i_target_is_the_oracles_projection():
    # b_range comes from the factor that builds A, the oracle's from the thin
    # SVD: the two agree to rounding, and z_target uses b_range
    for m, n, rank in ((200, 100, 50), (300, 290, 145), (1000, 500, 250)):
        for gen in (gen_experiment_i, gen_experiment_ii):
            for field in ("real", "complex"):
                inst = gen(m, n, rank, 5, 5.0, 0.1, 10.0, field, RngStream(830))
                oracle = range_projection_quadratic(inst.A, inst.b).value
                assert (np.linalg.norm(inst.b_range - oracle)
                        <= 1e-13 * np.linalg.norm(inst.b)), (m, n, gen.__name__, field)
                assert np.array_equal(inst.z_target(), inst.b - inst.b_range)


def test_no_svd_generates_an_instance_or_its_target(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(kwargs.get("full_matrices", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    specs = [PresetSpec(name, lam=1.0) for name in ("srk", "rek", "gerk_ad")]
    for which, noise in (("i", 2.0), ("i", 0.0), ("ii", 2.0)):
        for field in ("real", "complex"):
            run_trials(small_generator(which, field, noise), specs, trials=3, iterations=24,
                       base_seed=920)
            assert calls == [], (which, noise, field)
    # an instance built without b_range takes the oracle's thin SVD on first
    # use of the z-target, once
    inst = small_generator("ii")(RngStream(921))
    user = ProblemInstance(inst.A, inst.b, inst.b_hat, inst.x_hat, "real", "user", 0.0)
    target = user.z_target()
    assert np.array_equal(user.z_target(), target)
    assert calls == [False]
    assert np.array_equal(user.b_range, range_projection_quadratic(inst.A, inst.b).value)


def planted_by_hand(m, n, rank, sparsity, field, seed, skip=0):
    """make_rank_deficient plus the generators' draws of x_hat, on one stream;
    skip draws that many Gaussians first."""
    rng = RngStream(seed)
    rng.gaussian_array(skip, field)
    A = make_rank_deficient(m, n, rank, 0.1, 10.0, field, rng)
    support = rng.choice_without_replacement(n, sparsity)
    x_hat = np.zeros(n, dtype=A.dtype)
    x_hat[support] = rng.gaussian_array(sparsity, field)
    return A, x_hat, A @ x_hat


def test_generators_plant_make_rank_deficient_bit_for_bit():
    for gen in (gen_experiment_i, gen_experiment_ii):
        for field in ("real", "complex"):
            inst = gen(60, 40, 20, 4, 5.0, 0.1, 10.0, field, RngStream(840))
            for want, got in zip(planted_by_hand(60, 40, 20, 4, field, 840),
                                 (inst.A, inst.x_hat, inst.b_hat)):
                assert np.array_equal(want, got), (gen.__name__, field)
            # negative control: one draw more on the stream changes every array
            for want, got in zip(planted_by_hand(60, 40, 20, 4, field, 840, skip=1),
                                 (inst.A, inst.x_hat, inst.b_hat)):
                assert not np.array_equal(want, got)


def rank_deficient_both_draws_alive(m, n, rank, sv_lo, sv_hi, field, rng):
    """linalg.rank_deficient_with_range as it was written with both Gaussian
    draws held to the end: the reference its draw-freeing form must match."""
    gu = rng.gaussian_array(m * rank, field).reshape(m, rank)
    gv = rng.gaussian_array(n * rank, field).reshape(n, rank)
    u, _ = np.linalg.qr(gu)
    v, _ = np.linalg.qr(gv)
    sv = np.sort(rng.uniform_array(sv_lo, sv_hi, rank))[::-1]
    return (u * sv) @ v.conj().T, u


@pytest.mark.parametrize("field", ["real", "complex"])
def test_instances_equal_the_both_draws_formula_byte_for_byte(monkeypatch, field):
    # a batch of trials of each family, both Gaussian draws of each longer than one
    # rng.BLOCK of uniforms (two per real normal, four per complex one)
    m, n, rank = 240, 200, 100
    assert n * rank > BLOCK // 2
    fields = ("A", "b", "b_hat", "x_hat", "b_range")
    for gen in (gen_experiment_i, gen_experiment_ii):
        got = [gen(m, n, rank, 5, 2.0, 0.1, 10.0, field, RngStream(seed)) for seed in range(3)]
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "rank_deficient_with_range", rank_deficient_both_draws_alive)
            want = [gen(m, n, rank, 5, 2.0, 0.1, 10.0, field, RngStream(seed)) for seed in range(3)]
        for w, g in zip(want, got):
            for name in fields:
                a, b = getattr(w, name), getattr(g, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (gen.__name__, name)
        # negative control: the trials of the batch differ
        assert got[0].A.tobytes() != got[1].A.tobytes()


def adjoint_share(A, noise):
    """||A^H noise|| / (sigma_max(A) ||noise||)."""
    return np.linalg.norm(A.conj().T @ noise) / (np.linalg.norm(A, 2) * np.linalg.norm(noise))


def test_experiment_i_noise_is_orthogonal_to_range_and_of_the_radius():
    for field in ("real", "complex"):
        inst = gen_experiment_i(1000, 500, 250, 25, 5.0, 0.001, 100.0, field, RngStream(850))
        noise = inst.b - inst.b_hat
        radius = 5.0 * np.linalg.norm(inst.b_hat)
        assert adjoint_share(inst.A, noise) <= 1e-12
        assert abs(np.linalg.norm(noise) - radius) <= 1e-12 * radius
        # negative controls: a Gaussian without the projection leaves range(A)'s
        # share in, and one scaled before the projection falls short of the radius
        rng = RngStream(851)
        g = rng.gaussian_array(1000, field)
        assert adjoint_share(inst.A, g) > 1e-12
        g *= radius / np.linalg.norm(g)
        short = g - range_projector_apply(inst.A, g)
        assert abs(np.linalg.norm(short) - radius) > 1e-12 * radius


def test_partitions_built_once_per_trial(monkeypatch):
    # every preset of a trial shares its row and column partitions
    built = []
    original = blocks._partition

    def counting(kind, *args):
        built.append(kind)
        return original(kind, *args)

    monkeypatch.setattr(blocks, "_partition", counting)
    specs = tuple(PresetSpec(name, lam=1.0, eps=0.1, tau=0.01)
                  for name in ("rk", "srk", "rek", "gerk_ad", "gerk_bd"))
    run_trials(small_generator(), specs, trials=3, iterations=24, base_seed=910)
    assert sorted(built) == ["column"] * 3 + ["row"] * 3
    # a preset list without a z-update builds no column partition
    built.clear()
    run_trials(small_generator(), specs[:2], trials=2, iterations=24, base_seed=910)
    assert built == ["row"] * 2


def test_one_session_per_group_with_equal_regularizers_adjacent(monkeypatch):
    # all presets of a trial group run in one session, which lays them out so
    # that equal regularizers sit side by side and share one kernel call
    sessions = []
    original = experiments.Session

    def recording(As, bs, presets):
        session = original(As, bs, presets)
        sessions.append([presets[p][0].f for p in session._order])
        return session

    monkeypatch.setattr(experiments, "Session", recording)
    specs = tuple(PresetSpec(name, lam=1.0, eps=0.1, tau=0.01)
                  for name in ("rk", "srk", "rek", "gerk_ad", "gerk_bd"))
    monkeypatch.setattr(experiments, "GROUP_BYTES", 2 * 2 * 24 * 12 * 8)  # two trials a group
    result = run_trials(small_generator(), specs, trials=3, iterations=24, base_seed=910)
    assert len(sessions) == 2
    for fs in sessions:
        assert [type(f).__name__ for f in fs] == ["Quadratic"] * 2 + ["ElasticNet"] * 3
    assert result.preset_labels == [spec.name for spec in specs]


def reference_layout(configs):
    """The order in which the harness passed its presets (label -> configs) to
    the session before the session laid them out itself: _run_group's
    order(), kept as the reference of the session's layout."""
    regularizers = [cfgs[0].f for cfgs in configs.values()]
    z_offs = [cfgs[0].f for cfgs in configs.values() if cfgs[0].g is None]

    def order(label):
        f, g = configs[label][0].f, configs[label][0].g
        return f not in z_offs, regularizers.index(f), g is not None

    return sorted(configs, key=order)


def runs_of(values):
    """The number of runs of adjacent equal values."""
    return sum(k == 0 or v != values[k - 1] for k, v in enumerate(values))


@pytest.mark.parametrize("size", ["desk", "paper"])
@pytest.mark.parametrize("which", ["i", "ii"])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_harness_layout_is_the_reference_order(size, which, field, monkeypatch):
    # each session of a profile's run, at 1 and 3 trials (a complex paper
    # group holds two): its presets' layout, the f-kernel calls of its x-half
    # (one per run of equal regularizers) and whether its worker takes the
    # x-chains (each draw group one slab, every misfit quadratic, on one
    # system) are the reference's
    prof = experiments.PROFILES[size, which]
    gen = gen_experiment_i if which == "i" else gen_experiment_ii
    specs = [PresetSpec(name, prof["lam"], prof["eps"], prof["tau"]) for name in prof["presets"]]
    sessions, log = [], []
    kernels, original = solver._kernels, experiments.Session

    def spy(potentials, shape, is_complex):
        log.append(kernels(potentials, shape, is_complex))
        return log[-1]

    def recording(As, bs, presets):
        log.clear()
        session = original(As, bs, presets)  # whose first _kernels call is x*'s
        calls = 0 if session.state.x is session.state.xstar else len(log[0])
        sessions.append((dict(zip(prof["presets"], presets)), session, calls))
        return session

    def generator(rng):
        return gen(prof["m"], prof["n"], prof["rank"], prof["sparsity"], prof["noise_level"],
                   prof["sv_lo"], prof["sv_hi"], field, rng)

    monkeypatch.setattr(solver, "_kernels", spy)
    monkeypatch.setattr(experiments, "Session", recording)
    for trials in (1, 3):
        sessions.clear()
        run_trials(generator, specs, trials, iterations=0, base_seed=7)
        assert sessions
        for configs, session, calls in sessions:
            layout = reference_layout(configs)
            z_ons = [configs[label][0].g is not None for label in layout]
            assert [prof["presets"][p] for p in session._order] == layout
            assert calls == runs_of([configs[label][0].f for label in layout])
            quadratic = all(configs[label][0].g in (None, QuadraticMisfit()) for label in layout)
            assert (session._slabs is not None) == (
                runs_of(z_ons) == 2 and quadratic and not session.batch)
    assert [prof["presets"][p] for p in session._order] == {
        "i": ["srk", "gerk_ad", "rek"], "ii": ["srk", "gerk_ad", "gerk_bd", "rek"]}[which]


@pytest.mark.parametrize("field", ["real", "complex"])
def test_shared_presets_equal_each_preset_alone(field):
    # the five presets share one session per group; each preset's traces and
    # final iterates are bit-equal to running it alone, in either order
    specs = (PresetSpec("rk"), PresetSpec("srk", lam=2.0), PresetSpec("rek"),
             PresetSpec("gerk_ad", lam=2.0), PresetSpec("gerk_bd", lam=2.0, eps=0.01, tau=0.001))
    for together in (specs, specs[::-1]):
        shared = run_small(trials=3, specs=together, field=field)
        for spec in specs:
            alone = run_small(trials=3, specs=(spec,), field=field)
            for t in range(3):
                assert_trials_equal(alone, t, shared, t)


def test_trials_must_be_positive():
    with pytest.raises(ValueError, match="trials"):
        run_small(trials=0)


def test_duplicate_labels_rejected():
    specs = (PresetSpec("rek"), PresetSpec("rek"))
    with pytest.raises(ValueError):
        run_trials(small_generator(), specs, trials=1, iterations=10, base_seed=0)


def test_rek_final_iterate_dense():
    result = run_small()
    # least squares fills the support; the sparse presets do not
    assert np.median(result.final_sparsity["rek"]) > np.median(result.final_sparsity["srk"])


def test_csv_layout_and_determinism(tmp_path):
    result = run_small()
    paths = write_experiment_csvs(result, tmp_path / "out", "i")
    names = {p.replace(str(tmp_path), "") for p in paths}
    assert f"/out/i/sparsity.csv" in names
    assert f"/out/i/rek/z_error.csv" in names
    assert f"/out/i/srk/rel_error.csv" in names
    # 5 metric files for srk (no z_error), 6 for rek and gerk_ad, 1 sparsity
    assert len(paths) == 5 + 6 + 6 + 1
    first = {p: Path(p).read_bytes() for p in paths}
    result2 = run_small()
    paths2 = write_experiment_csvs(result2, tmp_path / "out", "i")
    assert paths2 == paths
    for p in paths:
        assert Path(p).read_bytes() == first[p]


def test_sparsity_rows_shape():
    result = run_small()
    rows = sparsity_rows(result)
    assert [r[0] for r in rows] == ["srk", "rek", "gerk_ad"]
    for _, lo, med, hi in rows:
        assert lo <= med <= hi


@pytest.mark.parametrize("which", ["i", "ii"])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_noise_level_whose_noise_overflows_is_rejected(which, field):
    # a finite level whose noise passes the largest double is named, and
    # raised before numpy warns (pytest turns a RuntimeWarning into an error)
    gen = gen_experiment_i if which == "i" else gen_experiment_ii

    def instance(noise):
        return gen(m=24, n=12, rank=6, sparsity=2, noise_level=noise, sv_lo=50.0, sv_hi=100.0,
                   field=field, rng=RngStream(804))

    assert np.max(np.abs(instance(0.0).b_hat)) > 2.0  # so 1e308 of it overflows
    with pytest.raises(ValueError, match="noise_level"):
        instance(1e308)
    b = instance(1e300).b
    assert np.isfinite(b).all()
    assert np.max(np.abs(b)) > 1e299


def test_noise_radius_of_a_b_hat_whose_norm_overflows():
    # every entry of b_hat finite, ||b_hat|| past the largest double: the radius
    # is the scaled norm, where np.linalg.norm warned and the error blamed noise_level
    def instance(sv):
        return gen_experiment_i(m=20, n=10, rank=5, sparsity=2, noise_level=5.0, sv_lo=sv,
                                sv_hi=sv, field="real", rng=RngStream(0))

    for sv in (1.0, 1e200):  # 1.0 is the control, whose norms do not overflow
        inst = instance(sv)
        assert np.isfinite(inst.b).all()
        noise = np.linalg.norm((inst.b - inst.b_hat) / sv)
        assert abs(noise - 5.0 * np.linalg.norm(inst.b_hat / sv)) <= 1e-12 * noise


def test_impulses_need_as_many_rows():
    # n = 41 asks for ceil(41 / 20) = 3 impulses; m = 2 rows cannot hold them
    kw = dict(n=41, rank=1, sparsity=1, noise_level=1.0, sv_lo=1.0, sv_hi=2.0, field="real")
    with pytest.raises(ValueError, match="cannot place 3 impulses into 2 rows"):
        gen_experiment_ii(m=2, rng=RngStream(0), **kw)
    assert gen_experiment_ii(m=3, rng=RngStream(0), **kw).b.shape == (3,)
