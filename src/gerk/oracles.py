"""Deterministic reference solutions the randomized solvers are tested against.

range_projection_quadratic is exact (SVD).  The other two are full-gradient
iterations: misfit_projection minimizes u -> g*(b - Au) with the constant
step 1/(grad_lipschitz * ||A||^2) plus Nesterov momentum with gradient
restarts (plain gradient descent cannot reach the default tolerance for the
huber misfit, whose grad_lipschitz is 1/eps + tau, in a workable iteration
count; the momentum variant is still a deterministic full-gradient method
with the same stepsize and stopping rule).  constrained_regularizer_min is
the deterministic analog of the sparse Kaczmarz iteration: a dual gradient
step followed by the conjugate gradient map.  When A has full column rank no
iteration runs: the constraint has the one solution A^+ y_hat, returned with
its rounding-level entries set to zero.  Otherwise, for the real elastic net,
it finishes exactly on the support the iteration has settled on: x_hat is then
exact on its support and exactly zero off it, not a dual iterate whose zeros
are entries of order 1e-11.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotConverged
from .linalg import (
    as_matrix,
    as_vector,
    range_projector_apply,
    rank_cutoff,
    singular_values,
    spectral_norm,
    svd_pseudoinverse_apply,
)
from .potentials import ElasticNet

FINISH_AFTER = 5  # steps a sign pattern of x must hold before the elastic-net finish tries it


@dataclass
class OracleSolution:
    value: np.ndarray
    residual: float
    iterations: int
    converged: bool


def range_projection_quadratic(A, b):
    """Orthogonal projection of b onto range(A): the target of the z-iteration."""
    A = as_matrix(A)
    b = as_vector(b, A.shape[0])
    y = range_projector_apply(A, b)
    return OracleSolution(value=y, residual=0.0, iterations=0, converged=True)


def misfit_projection(A, b, g, tol=1e-10, max_iter=10**6):
    """y_hat = A u_hat where u_hat minimizes g*(b - Au).

    Stops when ||A^H grad g*(b - Au)|| <= tol * ||b||.  Raises NotConverged
    (carrying the best iterate found) when max_iter is hit.
    """
    A = as_matrix(A)
    b = as_vector(b, A.shape[0])
    bnorm = float(np.linalg.norm(b))
    step = 1.0 / (g.grad_lipschitz * spectral_norm(A) ** 2)
    Ah = A.conj().T
    u = np.zeros(A.shape[1], dtype=A.dtype)
    y = u
    momentum_k = 0
    best_u, best_res = u, np.inf
    for it in range(1, max_iter + 1):
        grad_u = -(Ah @ g.gradient(b - A @ u))
        res = float(np.linalg.norm(grad_u))
        if res < best_res:
            best_u, best_res = u, res
        if res <= tol * bnorm:
            return OracleSolution(value=A @ u, residual=res, iterations=it - 1, converged=True)
        grad_y = -(Ah @ g.gradient(b - A @ y))
        u_next = y - step * grad_y
        # gradient restart: drop momentum when it points uphill
        if np.real(np.vdot(grad_y, u_next - u)) > 0.0:
            momentum_k = 0
        momentum_k += 1
        y = u_next + (momentum_k - 1.0) / (momentum_k + 2.0) * (u_next - u)
        u = u_next
    raise NotConverged(
        f"misfit projection did not reach tol={tol} in {max_iter} iterations",
        best=A @ best_u,
        residual=best_res,
    )


def y_hat_norm(y_hat):
    """||y_hat||, computed without an overflow warning; ValueError (rescale)
    where it is not finite: every residual test against it would then pass."""
    with np.errstate(over="ignore", invalid="ignore"):
        ynorm = float(np.linalg.norm(y_hat))
    if not ynorm < np.inf:
        raise ValueError("the norm of y_hat is not finite; rescale A or x_hat")
    return ynorm


def constrained_regularizer_min(A, y_hat, f, tol=1e-10, max_iter=10**6):
    """x_hat = argmin f(x) subject to A x = y_hat, for y_hat in range(A).

    Full-gradient dual iteration from xstar = 0:

        xstar <- xstar - (1/(conj_lipschitz * ||A||^2)) * A^H (A x - y_hat)
        x     <- grad f*(xstar)

    Stops when ||A x - y_hat|| <= tol * ||y_hat|| and the successive change
    ||x_{k+1} - x_k|| is <= tol.  Raises NotConverged with the best iterate,
    and ValueError (y_hat_norm) before any step where ||y_hat|| is not finite.

    When A has full column rank, x = A^+ y_hat is the only feasible point,
    whatever f is: its entries with |x_j| <= tol * max |x| are set to zero and
    the rest solved again as A_S^+ y_hat, and that x is the result at
    iteration 0 when it passes the residual check; only otherwise does the
    iteration run.  For the real ElasticNet with lam > 0, once the sign pattern
    of x has held for FINISH_AFTER steps, the optimality conditions are solved
    on its support (_finish_on_support, once per pattern); an accepted finish
    is the result, otherwise the iteration goes on unchanged.
    """
    A = as_matrix(A)
    y_hat = as_vector(y_hat, A.shape[0])
    ynorm = y_hat_norm(y_hat)
    xstar = np.zeros(A.shape[1], dtype=A.dtype)
    x = f.conjugate_gradient(xstar)
    res = float(np.linalg.norm(A @ x - y_hat))
    if res <= tol * ynorm:  # also where A = 0, which has no step
        return OracleSolution(value=x, residual=res, iterations=0, converged=True)
    sv = singular_values(A)
    n = A.shape[1]
    if n <= sv.size and sv[n - 1] > rank_cutoff(A.shape, sv[0]):  # one feasible point
        x_ls = svd_pseudoinverse_apply(A, y_hat)
        on = np.abs(x_ls) > tol * np.abs(x_ls).max()
        if on.any() and not on.all():  # an embedded real solution keeps its zero imaginary half
            x_ls = np.zeros_like(x_ls)
            x_ls[on] = svd_pseudoinverse_apply(A[:, on], y_hat)
        res_ls = float(np.linalg.norm(A @ x_ls - y_hat))
        if res_ls <= tol * ynorm:
            return OracleSolution(value=x_ls, residual=res_ls, iterations=0, converged=True)
    step = 1.0 / (f.conj_lipschitz * float(sv[0]) ** 2)
    Ah = A.conj().T
    best_x, best_res = x, res
    finishing = type(f) is ElasticNet and f.lam > 0.0 and not np.iscomplexobj(A)
    if finishing:
        signs, held, tried = np.sign(x), 0, set()
    for it in range(1, max_iter + 1):
        xstar -= step * (Ah @ (A @ x - y_hat))
        x_next = f.conjugate_gradient(xstar)
        res = float(np.linalg.norm(A @ x_next - y_hat))
        delta = float(np.linalg.norm(x_next - x))
        x = x_next
        if res < best_res:
            best_x, best_res = x, res
        if finishing:
            pattern = np.sign(x)
            held = held + 1 if np.array_equal(pattern, signs) else 0
            signs = pattern
            if held == FINISH_AFTER and (key := signs.tobytes()) not in tried:
                tried.add(key)
                done = _finish_on_support(A, y_hat, f.lam, signs, tol, ynorm)
                if done is not None:
                    return OracleSolution(value=done[0], residual=done[1], iterations=it,
                                          converged=True)
        if res <= tol * ynorm and delta <= tol:
            return OracleSolution(value=x, residual=res, iterations=it, converged=True)
    raise NotConverged(
        f"constrained minimization did not reach tol={tol} in {max_iter} iterations",
        best=best_x,
        residual=best_res,
    )


def _finish_on_support(A, y_hat, lam, signs, tol, ynorm):
    """(x, ||A x - y_hat||) for the elastic-net minimizer with the sign pattern signs, or None.

    On the support S, x_S = u - lam*s with u the min-norm solution of
    A_S u = y_hat + lam*A_S s, so u = A_S^T w for some w: x + lam*s = A^T w on S.
    A coordinate whose sign flips, or that is at most tol * max |x_S| (its sign
    is then the solve's rounding), is dropped and S solved again.  x is accepted
    when ||A x - y_hat|| <= tol * ynorm and |A_j^T w| <= lam off S (the dual
    certificate).
    """
    on = signs != 0
    while on.any():
        A_S, s = A[:, on], signs[on]
        u = svd_pseudoinverse_apply(A_S, y_hat + lam * (A_S @ s))
        x_S = u - lam * s
        drop = (np.sign(x_S) != s) | (np.abs(x_S) <= tol * np.abs(x_S).max())
        if drop.any():
            on[np.flatnonzero(on)[drop]] = False
            continue
        x = np.zeros(A.shape[1])
        x[on] = x_S
        res = float(np.linalg.norm(A @ x - y_hat))
        if res <= tol * ynorm and np.all(
            np.abs(A[:, ~on].T @ svd_pseudoinverse_apply(A_S.T, u)) <= lam
        ):
            return x, res
        break
    return None
