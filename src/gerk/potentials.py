"""Regularizers, misfit potentials, shrinkage operators, Bregman distances.

A regularizer f is 1-strongly convex, so its conjugate f* has a 1-Lipschitz
gradient (conj_lipschitz = 1 for every variant here).  The solver only ever
touches f through f* and its gradient:

    quadratic      f(x) = 0.5*||x||^2              grad f*(y) = y
    elastic net    f(x) = lam*||x||_1 + 0.5*||x||^2    grad f*(y) = soft_shrinkage(y, lam)
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

`updater(shape, is_complex)` returns the in-place kernel apply(dual, out)
that the solver calls every iteration, or None when the gradient is the
identity.  shape is the iterate's length, or a batch shape plus that length
for systems advancing in lockstep.  The kernels are elementwise, so each
row of a batch gets exactly the values it would get alone; the group
regularizer's kernel couples entries and takes one system only.
"""

import numpy as np

from .errors import DimensionMismatch, FieldMismatch, NotASubgradient


def real_inner(a, b):
    """Real inner product; the real part of the Hermitian product on C^n."""
    return float(np.real(np.vdot(a, b)))


def soft_shrinkage(x, lam):
    """Componentwise max(|x_j| - lam, 0) * sign(x_j), with sign(0) = 0."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def complex_shrinkage(x, lam):
    """Componentwise max(|x_j| - lam, 0) * x_j/|x_j|, with 0 at x_j = 0."""
    x = np.asarray(x, dtype=np.complex128)
    mag = np.abs(x)
    scale = np.maximum(mag - lam, 0.0)
    np.divide(scale, mag, out=scale, where=mag > 0.0)
    return x * scale


def group_shrinkage(x, lam, groups):
    """Scale each group x_g by max(0, 1 - lam/||x_g||); zero groups stay zero."""
    x = np.asarray(x)
    out = np.zeros_like(x)
    for blk in groups:
        blk = np.asarray(blk, dtype=np.intp)
        norm = float(np.linalg.norm(x[blk]))
        if norm > lam:
            out[blk] = x[blk] * (1.0 - lam / norm)
    return out


def _check_groups(groups, n):
    seen = np.zeros(n, dtype=bool)
    gid = np.empty(n, dtype=np.intp)
    for g, blk in enumerate(groups):
        blk = np.asarray(blk, dtype=np.intp)
        if blk.size == 0:
            raise ValueError("empty group")
        if blk.min() < 0 or blk.max() >= n:
            raise DimensionMismatch(f"group index out of range 0..{n - 1}")
        if seen[blk].any():
            raise ValueError("groups overlap")
        seen[blk] = True
        gid[blk] = g
    if not seen.all():
        raise ValueError("groups do not cover every coordinate")
    return gid


class Quadratic:
    """f(x) = 0.5*||x||^2; the minimum-norm regularizer."""

    alpha = 1.0
    conj_lipschitz = 1.0
    name = "quadratic"

    def check_field(self, is_complex):
        pass

    def value(self, x):
        return 0.5 * real_inner(x, x)

    def conjugate_value(self, xstar):
        return 0.5 * real_inner(xstar, xstar)

    def conjugate_gradient(self, xstar):
        return np.array(xstar, copy=True)

    def updater(self, shape, is_complex):
        # grad f* is the identity: the solver may alias x and xstar
        return None


class ElasticNet:
    """f(x) = lam*||x||_1 + 0.5*||x||^2 on real vectors."""

    alpha = 1.0
    conj_lipschitz = 1.0
    name = "elastic_net"

    def __init__(self, lam):
        if lam < 0:
            raise ValueError("lam must be >= 0")
        self.lam = float(lam)

    def check_field(self, is_complex):
        if is_complex:
            raise FieldMismatch("elastic net is real-only; use ComplexElasticNet")

    def value(self, x):
        x = np.asarray(x, dtype=np.float64)
        return self.lam * float(np.sum(np.abs(x))) + 0.5 * float(np.dot(x, x))

    def conjugate_value(self, xstar):
        s = soft_shrinkage(xstar, self.lam)
        return 0.5 * float(np.dot(s, s))

    def conjugate_gradient(self, xstar):
        return soft_shrinkage(xstar, self.lam)

    def updater(self, shape, is_complex):
        lam = self.lam
        buf = np.empty(shape)

        def apply(xstar, out):
            np.abs(xstar, out=buf)
            np.subtract(buf, lam, out=buf)
            np.maximum(buf, 0.0, out=buf)
            np.sign(xstar, out=out)
            np.multiply(out, buf, out=out)

        return apply


class GroupElasticNet:
    """f(x) = lam*sum_g ||x_g||_2 + 0.5*||x||^2 for a fixed group partition."""

    alpha = 1.0
    conj_lipschitz = 1.0
    name = "group_elastic_net"

    def __init__(self, lam, groups):
        if lam < 0:
            raise ValueError("lam must be >= 0")
        self.lam = float(lam)
        self.groups = [np.asarray(blk, dtype=np.intp) for blk in groups]
        self.n = int(sum(blk.size for blk in self.groups))
        self.gid = _check_groups(self.groups, self.n)

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

    def conjugate_value(self, xstar):
        s = self.conjugate_gradient(xstar)
        return 0.5 * real_inner(s, s)

    def conjugate_gradient(self, xstar):
        self._check_len(xstar)
        return group_shrinkage(xstar, self.lam, self.groups)

    def updater(self, shape, is_complex):
        self._check_len(np.empty(shape))  # one system only: no batch shape
        lam = self.lam
        gid = self.gid
        k = len(self.groups)

        def apply(xstar, out):
            sq = np.abs(xstar) ** 2 if is_complex else xstar * xstar
            norms = np.sqrt(np.bincount(gid, weights=sq, minlength=k))
            if lam > 0.0:
                with np.errstate(divide="ignore"):
                    scale = np.maximum(1.0 - lam / norms, 0.0)
            else:
                scale = np.ones(k)
            np.multiply(xstar, scale[gid], out=out)

        return apply


class ComplexElasticNet:
    """f(x) = lam*sum_j |x_j| + 0.5*||x||^2 on complex vectors."""

    alpha = 1.0
    conj_lipschitz = 1.0
    name = "complex_elastic_net"

    def __init__(self, lam):
        if lam < 0:
            raise ValueError("lam must be >= 0")
        self.lam = float(lam)

    def check_field(self, is_complex):
        if not is_complex:
            raise FieldMismatch("complex elastic net needs complex vectors")

    def value(self, x):
        x = np.asarray(x, dtype=np.complex128)
        return self.lam * float(np.sum(np.abs(x))) + 0.5 * real_inner(x, x)

    def conjugate_value(self, xstar):
        s = complex_shrinkage(xstar, self.lam)
        return 0.5 * real_inner(s, s)

    def conjugate_gradient(self, xstar):
        return complex_shrinkage(xstar, self.lam)

    def updater(self, shape, is_complex):
        lam = self.lam
        mag = np.empty(shape)
        scale = np.empty(shape)

        def apply(xstar, out):
            np.abs(xstar, out=mag)
            np.subtract(mag, lam, out=scale)
            np.maximum(scale, 0.0, out=scale)
            np.divide(scale, mag, out=scale, where=mag > 0.0)
            np.multiply(xstar, scale, out=out)

        return apply


class QuadraticMisfit:
    """g*(y) = 0.5*||y||^2; least-squares misfit."""

    grad_lipschitz = 1.0
    name = "quadratic"

    def value(self, y):
        return 0.5 * real_inner(y, y)

    def gradient(self, y):
        return np.array(y, copy=True)

    def updater(self, shape, is_complex):
        # gradient is the identity: the solver may alias z and zstar
        return None


class HuberQuadMisfit:
    """g*(y) = sum_j r_eps(|y_j|) + tau/2*||y||^2; robust misfit with moduli."""

    name = "huber_quad"

    def __init__(self, eps, tau):
        if eps <= 0 or tau <= 0:
            raise ValueError("need eps > 0 and tau > 0")
        self.eps = float(eps)
        self.tau = float(tau)
        self.grad_lipschitz = 1.0 / self.eps + self.tau

    def value(self, y):
        y = np.asarray(y)
        mag = np.abs(y)
        huber = np.where(mag > self.eps, mag - self.eps / 2.0, mag * mag / (2.0 * self.eps))
        return float(np.sum(huber)) + 0.5 * self.tau * real_inner(y, y)

    def gradient(self, y):
        y = np.asarray(y)
        return (1.0 / np.maximum(np.abs(y), self.eps) + self.tau) * y

    def updater(self, shape, is_complex):
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
