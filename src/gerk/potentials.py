"""Regularizers, misfit potentials, shrinkage operators, Bregman distances.

A regularizer f is 1-strongly convex, so its conjugate f* has a 1-Lipschitz
gradient (conj_lipschitz = 1 for every variant here).  The solver only ever
touches f through f* and its gradient:

    quadratic      f(x) = 0.5*||x||^2              grad f*(y) = y
    elastic net    f(x) = lam*||x||_1 + 0.5*||x||^2    grad f*(y) = S_lam(y)
    group          f(x) = lam*sum_g ||x_g|| + 0.5*||x||^2
    complex        f(x) = lam*sum_j |x_j| + 0.5*||x||^2 (moduli)

A misfit is handled through its conjugate g* as well: the solver needs
g*'s gradient and its Lipschitz constant grad_lipschitz.

    quadratic      g*(y) = 0.5*||y||^2, gradient y, grad_lipschitz 1
    huber+quad     g*(y) = sum_j r_eps(y_j) + tau/2*||y||^2,
                   gradient_j = (1/max(eps, |y_j|) + tau) * y_j,
                   grad_lipschitz 1/eps + tau

where r_eps(t) = t^2/(2 eps) for |t| <= eps and |t| - eps/2 beyond, applied
to moduli so complex entries work unchanged.

Each gradient is written once, as the in-place kernel apply(dual, out) that
`updater(shape, is_complex)` returns (None when the gradient is the
identity).  The solver calls that kernel every iteration.  shape is the
iterate's length, or a batch shape plus that length for systems advancing
in lockstep.  Each row of a batch gets exactly the values it would get
alone: the kernels are elementwise, and the group regularizer's sums each
row's groups in that row's own order.  Potentials are values, equal when of
one type with equal parameters, so the solver can run one kernel over the
slabs of several presets of one potential.

The allocating forms, conjugate_gradient (regularizers) and gradient
(misfits), are derived from the kernel in one place (_allocating); a
regularizer's conjugate_gradient is its shrinkage map.
"""

import math

import numpy as np

from .blocks import owners
from .errors import DimensionMismatch, FieldMismatch, NotASubgradient


def real_inner(a, b):
    """Real inner product; the real part of the Hermitian product on C^n."""
    return float(np.real(np.vdot(a, b)))


def checked_nonneg(value, name):
    """value as a float; ValueError naming the parameter unless it is finite and >= 0."""
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return float(value)


def _allocating(potential, v):
    """potential's gradient at v in a new array, computed by its kernel.

    v is coerced to potential.dtype, or to complex128 or float64 by its field
    when that is None.
    """
    dtype = potential.dtype or (np.complex128 if np.iscomplexobj(v) else np.float64)
    v = np.asarray(v, dtype=dtype)
    apply = potential.updater(v.shape, np.iscomplexobj(v))
    if apply is None:
        return v.copy()
    out = np.empty_like(v)
    apply(v, out)
    return out


class _Value:
    """Equal when of one type with equal parameters (_params)."""

    def _params(self):
        return tuple(sorted(vars(self).items()))

    def __eq__(self, other):
        return type(other) is type(self) and other._params() == self._params()

    def __hash__(self):
        return hash((type(self), self._params()))


class _Regularizer(_Value):
    alpha = 1.0
    conj_lipschitz = 1.0
    dtype = None

    def conjugate_gradient(self, xstar):
        return _allocating(self, xstar)

    def conjugate_value(self, xstar):
        s = self.conjugate_gradient(xstar)
        return 0.5 * real_inner(s, s)


class _Misfit(_Value):
    dtype = None

    def gradient(self, y):
        return _allocating(self, y)


class Quadratic(_Regularizer):
    """f(x) = 0.5*||x||^2; the minimum-norm regularizer."""

    name = "quadratic"

    def check_field(self, is_complex):
        pass

    def value(self, x):
        return 0.5 * real_inner(x, x)

    def updater(self, shape, is_complex):
        # grad f* is the identity: the solver may alias x and xstar
        return None


class ElasticNet(_Regularizer):
    """f(x) = lam*||x||_1 + 0.5*||x||^2 on real vectors."""

    name = "elastic_net"
    dtype = np.float64

    def __init__(self, lam):
        self.lam = checked_nonneg(lam, "lam")

    def check_field(self, is_complex):
        if is_complex:
            raise FieldMismatch("elastic net is real-only; use ComplexElasticNet")

    def value(self, x):
        x = np.asarray(x, dtype=np.float64)
        return self.lam * float(np.sum(np.abs(x))) + 0.5 * float(np.dot(x, x))

    def updater(self, shape, is_complex):
        # max(|x_j| - lam, 0) * sign(x_j), with sign(0) = 0
        lam = self.lam
        buf = np.empty(shape)

        def apply(xstar, out):
            np.abs(xstar, out=buf)
            np.subtract(buf, lam, out=buf)
            np.maximum(buf, 0.0, out=buf)
            np.sign(xstar, out=out)
            np.multiply(out, buf, out=out)

        return apply


class GroupElasticNet(_Regularizer):
    """f(x) = lam*sum_g ||x_g||_2 + 0.5*||x||^2 for a fixed group partition."""

    name = "group_elastic_net"

    def __init__(self, lam, groups):
        self.lam = checked_nonneg(lam, "lam")
        self.groups = [np.asarray(blk, dtype=np.intp) for blk in groups]
        self.n = int(sum(blk.size for blk in self.groups))
        self.gid = owners(self.groups, self.n, "group")

    def _params(self):
        # the groups are arrays, so not compared through vars
        return self.lam, tuple(tuple(blk.tolist()) for blk in self.groups)

    def check_field(self, is_complex):
        pass

    def _check_len(self, x):
        if np.asarray(x).shape != (self.n,):
            raise DimensionMismatch(f"expected length {self.n}")

    def value(self, x):
        self._check_len(x)
        x = np.asarray(x)
        total = sum(float(np.linalg.norm(x[blk])) for blk in self.groups)
        return self.lam * total + 0.5 * real_inner(x, x)

    def updater(self, shape, is_complex):
        # scale each group x_g by max(0, 1 - lam/||x_g||); zero groups stay zero.
        # Group g of row r is bin r*k + g, whose squares bincount sums in the
        # order it sums them for that row alone
        shape = np.broadcast_shapes(shape)
        if shape[-1:] != (self.n,):
            raise DimensionMismatch(f"expected length {self.n}")
        lam = self.lam
        k = len(self.groups)
        rows = math.prod(shape[:-1])
        gid = (self.gid + k * np.arange(rows)[:, None]).reshape(-1)

        def apply(xstar, out):
            sq = np.abs(xstar) ** 2 if is_complex else xstar * xstar
            norms = np.sqrt(np.bincount(gid, weights=sq.reshape(-1), minlength=rows * k))
            if lam > 0.0:
                with np.errstate(divide="ignore"):
                    scale = np.maximum(1.0 - lam / norms, 0.0)
            else:
                scale = np.ones(rows * k)
            np.multiply(xstar, scale[gid].reshape(shape), out=out)

        return apply


class ComplexElasticNet(_Regularizer):
    """f(x) = lam*sum_j |x_j| + 0.5*||x||^2 on complex vectors."""

    name = "complex_elastic_net"
    dtype = np.complex128

    def __init__(self, lam):
        self.lam = checked_nonneg(lam, "lam")

    def check_field(self, is_complex):
        if not is_complex:
            raise FieldMismatch("complex elastic net needs complex vectors")

    def value(self, x):
        x = np.asarray(x, dtype=np.complex128)
        return self.lam * float(np.sum(np.abs(x))) + 0.5 * real_inner(x, x)

    def updater(self, shape, is_complex):
        # max(|x_j| - lam, 0) * x_j/|x_j|, with 0 at x_j = 0
        lam = self.lam
        mag = np.empty(shape)
        scale = np.empty(shape)

        def apply(xstar, out):
            np.abs(xstar, out=mag)
            np.subtract(mag, lam, out=scale)
            np.maximum(scale, 0.0, out=scale)
            # scale is 0 wherever mag is, so raising mag to the least subnormal
            # there gives 0 / tiny = 0 and changes no other quotient
            np.maximum(mag, 5e-324, out=mag)
            np.divide(scale, mag, out=scale)
            np.multiply(xstar, scale, out=out)

        return apply


class QuadraticMisfit(_Misfit):
    """g*(y) = 0.5*||y||^2; least-squares misfit."""

    grad_lipschitz = 1.0
    name = "quadratic"

    def value(self, y):
        return 0.5 * real_inner(y, y)

    def updater(self, shape, is_complex):
        # gradient is the identity: the solver may alias z and zstar
        return None


class HuberQuadMisfit(_Misfit):
    """g*(y) = sum_j r_eps(|y_j|) + tau/2*||y||^2; robust misfit with moduli."""

    name = "huber_quad"

    def __init__(self, eps, tau):
        for name, value in (("eps", eps), ("tau", tau)):
            if checked_nonneg(value, name) == 0.0:
                raise ValueError(f"{name} must be > 0, got {value}")
        self.eps, self.tau = float(eps), float(tau)
        self.grad_lipschitz = 1.0 / self.eps + self.tau
        if self.grad_lipschitz == np.inf:  # every z-step would be 0
            raise ValueError(f"eps must be large enough that 1/eps + tau is finite, got {eps}")

    def value(self, y):
        y = np.asarray(y)
        mag = np.abs(y)
        huber = np.where(mag > self.eps, mag - self.eps / 2.0, mag * mag / (2.0 * self.eps))
        return float(np.sum(huber)) + 0.5 * self.tau * real_inner(y, y)

    def updater(self, shape, is_complex):
        # (1/max(eps, |y_j|) + tau) * y_j
        eps, tau = self.eps, self.tau
        buf = np.empty(shape)

        def apply(zstar, out):
            np.abs(zstar, out=buf)
            np.maximum(buf, eps, out=buf)
            np.reciprocal(buf, out=buf)
            np.add(buf, tau, out=buf)
            np.multiply(zstar, buf, out=out)

        return apply


def bregman_distance(f, x, xstar, y):
    """Bregman distance D_f^{xstar}(x, y) = f*(xstar) - <xstar, y> + f(y).

    xstar must be an admissible subgradient at x, i.e. x = grad f*(xstar)
    within 1e-8; otherwise NotASubgradient is raised.  Inner products take
    the real part on complex input.
    """
    x = np.asarray(x)
    xstar = np.asarray(xstar)
    y = np.asarray(y)
    if x.shape != xstar.shape or x.shape != y.shape:
        raise DimensionMismatch("x, xstar, y must share one shape")
    if float(np.linalg.norm(x - f.conjugate_gradient(xstar))) > 1e-8:
        raise NotASubgradient("xstar is not a subgradient of f at x")
    return f.conjugate_value(xstar) - real_inner(xstar, y) + f.value(y)
