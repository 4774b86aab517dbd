import numpy as np
import pytest

from gerk.errors import DimensionMismatch, FieldMismatch, NotASubgradient
from gerk.linalg import embed_vec
from gerk.potentials import (
    ComplexElasticNet,
    ElasticNet,
    GroupElasticNet,
    HuberQuadMisfit,
    Quadratic,
    QuadraticMisfit,
    bregman_distance,
    complex_shrinkage,
    group_shrinkage,
    real_inner,
    soft_shrinkage,
)
from gerk.rng import RngStream


def all_regularizers(rng, n):
    """(f, is_complex, draw) triples covering every variant on both fields."""
    groups = [np.arange(0, n // 2), np.arange(n // 2, n)]
    return [
        (Quadratic(), False),
        (Quadratic(), True),
        (ElasticNet(0.7), False),
        (ElasticNet(0.0), False),
        (ComplexElasticNet(0.7), True),
        (GroupElasticNet(0.9, groups), False),
        (GroupElasticNet(0.9, groups), True),
    ]


def draw_vec(rng, n, is_complex):
    return rng.gaussian_array(n, "complex" if is_complex else "real")


# ------------------------------------------------------------------- shrinkage


def test_soft_shrinkage_hand_example():
    x = np.array([3.0, -1.0, 0.5, 0.0])
    expected = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(soft_shrinkage(x, 2.0), expected)
    assert np.array_equal(soft_shrinkage(x, 0.0), x)


def test_complex_shrinkage_preserves_phase():
    z = np.array([2.0 * np.exp(1j * 0.3), 0.1 + 0.1j, 0.0 + 0.0j])
    out = complex_shrinkage(z, 1.0)
    assert abs(out[0] - 1.0 * np.exp(1j * 0.3)) <= 1e-14
    assert out[1] == 0.0
    assert out[2] == 0.0


def test_complex_shrinkage_reduces_to_real():
    rng = RngStream(400)
    x = rng.normal_array(50)
    out = complex_shrinkage(x.astype(np.complex128), 0.8)
    assert np.linalg.norm(out - soft_shrinkage(x, 0.8)) <= 1e-14


def test_group_shrinkage_hand_example():
    x = np.array([3.0, 4.0, 2.0])
    out = group_shrinkage(x, 2.0, [np.array([0, 1]), np.array([2])])
    # group norm 5 scales by 3/5; the second group sits exactly at the threshold
    assert np.allclose(out, [1.8, 2.4, 0.0], atol=1e-14)


def test_complex_shrinkage_is_paired_group_shrinkage():
    # shrinking moduli of z equals 2-norm group shrinkage on (Re z, Im z) pairs
    rng = RngStream(401)
    n = 8
    groups = [np.array([t, n + t]) for t in range(n)]
    for _ in range(100):
        z = rng.complex_normal_array(n)
        lam = rng.random()
        lhs = embed_vec(complex_shrinkage(z, lam))
        rhs = group_shrinkage(embed_vec(z), lam, groups)
        assert np.linalg.norm(lhs - rhs) <= 1e-14


# ---------------------------------------------------------------- regularizers


def test_fenchel_equality_all_variants():
    # f(x) + f*(xstar) == <xstar, x> whenever x = grad f*(xstar)
    rng = RngStream(402)
    n = 10
    for f, is_complex in all_regularizers(rng, n):
        for _ in range(100):
            xstar = 3.0 * draw_vec(rng, n, is_complex)
            x = f.conjugate_gradient(xstar)
            lhs = f.value(x) + f.conjugate_value(xstar)
            rhs = real_inner(xstar, x)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_conjugate_gradient_matches_finite_differences():
    rng = RngStream(403)
    n = 6
    h = 1e-6
    for f, is_complex in all_regularizers(rng, n):
        checked = 0
        while checked < 20:
            xstar = 4.0 * draw_vec(rng, n, is_complex)
            lam = getattr(f, "lam", 0.0)
            # stay away from the shrinkage kinks so f* is twice differentiable
            if isinstance(f, (ElasticNet, ComplexElasticNet)):
                if np.any(np.abs(np.abs(xstar) - lam) < 0.05):
                    continue
            if isinstance(f, GroupElasticNet):
                norms = [np.linalg.norm(xstar[blk]) for blk in f.groups]
                if any(abs(v - lam) < 0.05 for v in norms):
                    continue
            grad = f.conjugate_gradient(xstar)
            for j in range(n):
                e = np.zeros(n, dtype=xstar.dtype)
                e[j] = 1.0
                fd = (f.conjugate_value(xstar + h * e) - f.conjugate_value(xstar - h * e)) / (2 * h)
                assert abs(fd - float(np.real(grad[j]))) <= 1e-6 * (1 + abs(fd))
                if is_complex:
                    fd_im = (
                        f.conjugate_value(xstar + 1j * h * e)
                        - f.conjugate_value(xstar - 1j * h * e)
                    ) / (2 * h)
                    assert abs(fd_im - float(np.imag(grad[j]))) <= 1e-6 * (1 + abs(fd_im))
            checked += 1


def test_updater_matches_conjugate_gradient():
    rng = RngStream(404)
    n = 12
    for f, is_complex in all_regularizers(rng, n):
        upd = f.updater(n, is_complex)
        if upd is None:
            # identity gradient: aliasing contract
            xstar = draw_vec(rng, n, is_complex)
            assert np.array_equal(f.conjugate_gradient(xstar), xstar)
            continue
        for _ in range(30):
            xstar = 2.5 * draw_vec(rng, n, is_complex)
            out = np.empty_like(xstar)
            upd(xstar, out)
            assert np.linalg.norm(out - f.conjugate_gradient(xstar)) <= 1e-14


# The allocating formulas each kernel replaced, kept as the independent
# reference the kernels and the forms derived from them are checked against.


def reference_soft_shrinkage(x, lam):
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def reference_complex_shrinkage(x, lam):
    x = np.asarray(x, dtype=np.complex128)
    mag = np.abs(x)
    scale = np.maximum(mag - lam, 0.0)
    np.divide(scale, mag, out=scale, where=mag > 0.0)
    return x * scale


def reference_group_shrinkage(x, lam, groups):
    x = np.asarray(x)
    out = np.zeros_like(x)
    for blk in groups:
        norm = float(np.linalg.norm(x[blk]))
        if norm > lam:
            out[blk] = x[blk] * (1.0 - lam / norm)
    return out


def reference_huber_gradient(y, eps, tau):
    y = np.asarray(y)
    return (1.0 / np.maximum(np.abs(y), eps) + tau) * y


def planted_inputs(rng, shape, is_complex, level):
    """Gaussian draws with zeros, +-0.0, subnormals and |x| = level planted."""
    size = int(np.prod(shape))
    x = 2.0 * rng.gaussian_array(size, "complex" if is_complex else "real").reshape(shape)
    specials = [0.0, -0.0, level, -level, 5e-324, -2.5e-310,
                level * (1.0 + 2.0**-52), level * (1.0 - 2.0**-53)]
    if is_complex:
        specials += [complex(0.0, -0.0), complex(-0.0, 0.0), 1j * level, -1j * level,
                     complex(1e-310, -1e-310)]
    flat = x.reshape(-1)
    flat[rng.choice_without_replacement(size, len(specials))] = specials
    return x


def same_bits(a, b):
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                          np.ascontiguousarray(b).view(np.uint64))


def kernel_and_derived(potential, v):
    """(updater kernel output, allocating form output) at v."""
    out = np.empty_like(v)
    potential.updater(v.shape, np.iscomplexobj(v))(v, out)
    derived = (potential.gradient(v) if hasattr(potential, "gradient")
               else potential.conjugate_gradient(v))
    return out, derived


def test_kernels_match_reference_formulas():
    rng = RngStream(415)
    n = 16
    for case in range(60):
        lam = (0.0, 0.7, 5e-324, 3.0 * rng.random())[case % 4]
        eps = (0.3, 1e-2, 2.5, 0.5 + rng.random())[case % 4]
        huber = HuberQuadMisfit(eps=eps, tau=0.05)
        for shape in ((n,), (3, n)):
            x = planted_inputs(rng, shape, False, lam)
            z = planted_inputs(rng, shape, True, lam)
            for got in kernel_and_derived(ElasticNet(lam), x):
                assert same_bits(got, reference_soft_shrinkage(x, lam))
            for got in kernel_and_derived(ComplexElasticNet(lam), z):
                assert same_bits(got, reference_complex_shrinkage(z, lam))
            assert same_bits(soft_shrinkage(x, lam), reference_soft_shrinkage(x, lam))
            assert same_bits(complex_shrinkage(z, lam), reference_complex_shrinkage(z, lam))
            for y in (planted_inputs(rng, shape, False, eps), planted_inputs(rng, shape, True, eps)):
                for got in kernel_and_derived(huber, y):
                    assert same_bits(got, reference_huber_gradient(y, eps, 0.05))
        # the group kernel reduces with bincount, the reference per group with
        # np.linalg.norm: equal up to rounding
        groups = [np.arange(0, 5), np.arange(5, 6), np.arange(6, 13), np.arange(13, n)]
        for is_complex in (False, True):
            x = planted_inputs(rng, (n,), is_complex, lam)
            x[groups[1]] = lam  # a group whose norm is exactly lam
            want = reference_group_shrinkage(x, lam, groups)
            for got in kernel_and_derived(GroupElasticNet(lam, groups), x) + (
                    group_shrinkage(x, lam, groups),):
                assert got.dtype == want.dtype
                assert np.linalg.norm(got - want) <= 1e-14 * (1.0 + np.linalg.norm(x))


def test_derived_forms_coerce_their_input():
    # lists are accepted; elastic net computes in float64, complex elastic net
    # in complex128, the others in the field of their input
    assert soft_shrinkage([3, -1], 2).dtype == np.float64
    assert complex_shrinkage([3.0, -1.0], 2.0).dtype == np.complex128
    assert np.array_equal(complex_shrinkage([3.0, -1.0], 2.0), [1.0, 0.0])
    assert HuberQuadMisfit(1.0, 0.1).gradient([2]).dtype == np.float64
    assert Quadratic().conjugate_gradient([1j, 2]).dtype == np.complex128
    xstar = np.array([1.0, 2.0])
    assert Quadratic().conjugate_gradient(xstar) is not xstar


def test_group_shrinkage_groups_must_cover_the_vector():
    with pytest.raises(DimensionMismatch):
        group_shrinkage(np.ones(3), 1.0, [np.array([0, 1])])
    with pytest.raises(ValueError):
        group_shrinkage(np.ones(3), 1.0, [np.array([0, 1]), np.array([1])])


def test_conjugate_gradient_nonexpansive():
    # 1-strong convexity of f makes grad f* 1-Lipschitz
    rng = RngStream(405)
    n = 9
    for f, is_complex in all_regularizers(rng, n):
        for _ in range(100):
            a = 3.0 * draw_vec(rng, n, is_complex)
            b = 3.0 * draw_vec(rng, n, is_complex)
            ga, gb = f.conjugate_gradient(a), f.conjugate_gradient(b)
            assert np.linalg.norm(ga - gb) <= np.linalg.norm(a - b) + 1e-12


def test_field_dispatch():
    with pytest.raises(FieldMismatch):
        ElasticNet(1.0).check_field(True)
    with pytest.raises(FieldMismatch):
        ComplexElasticNet(1.0).check_field(False)
    Quadratic().check_field(True)
    GroupElasticNet(1.0, [np.array([0, 1])]).check_field(True)


def test_group_validation():
    with pytest.raises(ValueError):
        GroupElasticNet(1.0, [np.array([0, 1]), np.array([1, 2])])
    # length is inferred from the groups, so a gap shows up as an out-of-range index
    with pytest.raises(DimensionMismatch):
        GroupElasticNet(1.0, [np.array([0]), np.array([2])])
    with pytest.raises(ValueError):
        GroupElasticNet(-1.0, [np.array([0])])
    with pytest.raises(DimensionMismatch):
        GroupElasticNet(1.0, [np.array([0, 1])]).value(np.zeros(3))


# --------------------------------------------------------------------- misfits


def test_quadratic_misfit_identity_gradient():
    rng = RngStream(406)
    y = rng.normal_array(7)
    g = QuadraticMisfit()
    assert np.array_equal(g.gradient(y), y)
    assert abs(g.value(y) - 0.5 * np.dot(y, y)) <= 1e-14
    assert g.updater(7, False) is None


def test_huber_quad_hand_example():
    g = HuberQuadMisfit(eps=1.0, tau=0.1)
    # |2| > eps: gradient (1/2 + 0.1)*2 = 1.2
    assert abs(g.gradient(np.array([2.0]))[0] - 1.2) <= 1e-14
    # |0.5| <= eps: gradient (1/1 + 0.1)*0.5 = 0.55
    assert abs(g.gradient(np.array([0.5]))[0] - 0.55) <= 1e-14
    # value: (2 - 1/2) + 0.25/2 + 0.05*(4 + 0.25)
    y = np.array([2.0, 0.5])
    assert abs(g.value(y) - (1.5 + 0.125 + 0.2125)) <= 1e-14
    assert abs(g.grad_lipschitz - 1.1) <= 1e-14


def test_huber_quad_gradient_matches_finite_differences():
    rng = RngStream(407)
    g = HuberQuadMisfit(eps=0.3, tau=0.05)
    h = 1e-7
    for is_complex in (False, True):
        for _ in range(30):
            y = draw_vec(rng, 5, is_complex)
            grad = g.gradient(y)
            for j in range(5):
                e = np.zeros(5, dtype=y.dtype)
                e[j] = 1.0
                fd = (g.value(y + h * e) - g.value(y - h * e)) / (2 * h)
                assert abs(fd - float(np.real(grad[j]))) <= 1e-5
                if is_complex:
                    fd_im = (g.value(y + 1j * h * e) - g.value(y - 1j * h * e)) / (2 * h)
                    assert abs(fd_im - float(np.imag(grad[j]))) <= 1e-5


def test_huber_quad_gradient_lipschitz_bound():
    rng = RngStream(408)
    g = HuberQuadMisfit(eps=0.2, tau=0.1)
    L = g.grad_lipschitz
    worst = 0.0
    for _ in range(200):
        a = 0.5 * rng.normal_array(6)
        b = 0.5 * rng.normal_array(6)
        num = np.linalg.norm(g.gradient(a) - g.gradient(b))
        den = np.linalg.norm(a - b)
        if den > 0:
            worst = max(worst, num / den)
    assert worst <= L + 1e-10
    # the bound is tight near the origin
    tiny = g.gradient(np.array([1e-9]))[0] / 1e-9
    assert abs(tiny - L) <= 1e-6


def test_huber_quad_updater_matches_gradient():
    rng = RngStream(409)
    g = HuberQuadMisfit(eps=0.4, tau=0.02)
    for is_complex in (False, True):
        upd = g.updater(8, is_complex)
        zstar = draw_vec(rng, 8, is_complex)
        out = np.empty_like(zstar)
        upd(zstar, out)
        assert np.linalg.norm(out - g.gradient(zstar)) <= 1e-14


def test_misfit_parameter_validation():
    with pytest.raises(ValueError):
        HuberQuadMisfit(eps=0.0, tau=0.1)
    with pytest.raises(ValueError):
        HuberQuadMisfit(eps=0.1, tau=0.0)


# ------------------------------------------------------------ Bregman distance


def test_bregman_quadratic_closed_form():
    rng = RngStream(410)
    f = Quadratic()
    for _ in range(50):
        x = rng.normal_array(6)
        y = rng.normal_array(6)
        d = bregman_distance(f, x, x, y)
        assert abs(d - 0.5 * np.dot(x - y, x - y)) <= 1e-12


def test_bregman_elastic_net_closed_form():
    # D = 0.5*||x-y||^2 + lam*(||y||_1 - <s, y>) with s = (xstar - x)/lam
    rng = RngStream(411)
    lam = 0.8
    f = ElasticNet(lam)
    for _ in range(100):
        xstar = 3.0 * rng.normal_array(7)
        y = rng.normal_array(7)
        x = f.conjugate_gradient(xstar)
        d = bregman_distance(f, x, xstar, y)
        s = (xstar - x) / lam
        expected = 0.5 * np.dot(x - y, x - y) + lam * (np.sum(np.abs(y)) - np.dot(s, y))
        assert abs(d - expected) <= 1e-10 * (1 + abs(expected))


def test_bregman_subgradient_form_all_variants():
    # independent route: D = f(y) - f(x) - <xstar, y - x>
    rng = RngStream(412)
    n = 8
    for f, is_complex in all_regularizers(rng, n):
        for _ in range(100):
            xstar = 2.0 * draw_vec(rng, n, is_complex)
            y = draw_vec(rng, n, is_complex)
            x = f.conjugate_gradient(xstar)
            d = bregman_distance(f, x, xstar, y)
            expected = f.value(y) - f.value(x) - real_inner(xstar, y - x)
            assert abs(d - expected) <= 1e-9 * (1 + abs(expected))


def test_bregman_inequality_chain():
    # alpha/2*||x-y||^2 <= D <= <xstar - ystar, x - y> <= ||xstar-ystar||*||x-y||
    rng = RngStream(413)
    n = 8
    for f, is_complex in all_regularizers(rng, n):
        for _ in range(100):
            xstar = 2.0 * draw_vec(rng, n, is_complex)
            ystar = 2.0 * draw_vec(rng, n, is_complex)
            x = f.conjugate_gradient(xstar)
            y = f.conjugate_gradient(ystar)
            d = bregman_distance(f, x, xstar, y)
            lower = 0.5 * f.alpha * float(np.linalg.norm(x - y)) ** 2
            mid = real_inner(xstar - ystar, x - y)
            upper = float(np.linalg.norm(xstar - ystar) * np.linalg.norm(x - y))
            slack = 1e-9 * (1 + abs(d))
            assert lower <= d + slack
            assert d <= mid + slack
            assert mid <= upper + slack


def test_bregman_rejects_bad_subgradient():
    f = ElasticNet(1.0)
    x = np.array([1.0, 0.0])
    with pytest.raises(NotASubgradient):
        bregman_distance(f, x, np.array([5.0, 0.0]), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        bregman_distance(f, x, np.array([2.0, 0.0, 0.0]), np.zeros(2))


def test_bregman_zero_at_matching_point():
    rng = RngStream(414)
    f = ComplexElasticNet(0.5)
    xstar = rng.complex_normal_array(6)
    x = f.conjugate_gradient(xstar)
    assert abs(bregman_distance(f, x, xstar, x)) <= 1e-12
