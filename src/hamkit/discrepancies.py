"""Kernel discrepancies (MMD, KSD), and score-matching fits by natural gradient
with the score-matching information tensor."""
from __future__ import annotations

import copy
import math
import warnings

import numpy as np

from .core import _as_samples, _rows
from .errors import (
    CapabilityError,
    ConditioningError,
    ConditioningWarning,
    DomainError,
)

__all__ = [
    "KernelSpec",
    "ScoreModel",
    "GaussianLocationModel",
    "mmd_squared",
    "stein_kernel",
    "stein_gram",
    "ksd_u_statistic",
    "information_tensor",
    "natural_gradient_step",
    "sm_ngd_fit",
]


class KernelSpec:
    """Scalar base kernel with closed-form first and mixed-second derivatives.

    Families: gaussian(sigma) and inverse_multiquadric(c, beta) with
    k(x, y) = (c^2 + ||x-y||^2)^(-beta), beta in (0, 1).
    """

    def __init__(self, family, **params):
        def need(key):
            if key not in params:
                raise DomainError(f"{family} kernel needs parameter {key!r}")
            return float(params.pop(key))

        if family == "gaussian":
            sigma = need("sigma")
            if not sigma > 0:
                raise DomainError("gaussian kernel needs sigma > 0")
            self.params = {"sigma": sigma}
        elif family == "inverse_multiquadric":
            c = need("c")
            beta = need("beta")
            if not c > 0:
                raise DomainError("inverse multiquadric needs c > 0")
            if not 0.0 < beta < 1.0:
                raise DomainError("inverse multiquadric needs beta in (0, 1)")
            self.params = {"c": c, "beta": beta}
        else:
            raise DomainError(f"unknown kernel family {family!r}")
        if params:
            raise DomainError(f"unexpected kernel parameters {sorted(params)}")
        self.family = family

    @classmethod
    def gaussian(cls, sigma):
        return cls("gaussian", sigma=sigma)

    @classmethod
    def inverse_multiquadric(cls, c=1.0, beta=0.5):
        return cls("inverse_multiquadric", c=c, beta=beta)

    def _profile(self, r2, derivatives=True):
        """(phi, phi', phi'') with k(x, y) = phi(r2), r2 = ||x - y||^2, or
        phi alone when derivatives is false.

        Derivatives are taken in r2, so grad_x k = 2 phi' (x - y) and
        d^2 k / (d x_i d y_j) = -2 phi' delta_ij - 4 phi'' (x - y)_i (x - y)_j.
        """
        if self.family == "gaussian":
            s2 = self.params["sigma"] ** 2
            phi = np.exp(r2 * (-0.5 / s2))
            if not derivatives:
                return phi
            return phi, (-0.5 / s2) * phi, (0.25 / s2 ** 2) * phi
        c, beta = self.params["c"], self.params["beta"]
        u = c * c + r2
        phi = u ** (-beta)
        if not derivatives:
            return phi
        return phi, -beta * phi / u, beta * (beta + 1.0) * phi / (u * u)

    # Gram helpers take X (n, d) and Y (m, d) and build every (n, m) matrix
    # from BLAS squared distances, in O(nm) memory.
    def gram(self, x_arr, y_arr):
        return self._profile(_sq_dists(_as_samples(x_arr), _as_samples(y_arr)),
                             derivatives=False)

    def grad_x_gram(self, x_arr, y_arr):
        """d k / d x, shape (n, m, d)."""
        diff = _as_samples(x_arr)[:, None, :] - _as_samples(y_arr)[None, :, :]
        _, dphi, _ = self._profile(np.sum(diff * diff, axis=2))
        return 2.0 * dphi[:, :, None] * diff

    def mixed_trace_gram(self, x_arr, y_arr):
        """sum_i d^2 k / (d x_i d y_i), shape (n, m)."""
        x_arr, y_arr = _as_samples(x_arr), _as_samples(y_arr)
        r2 = _sq_dists(x_arr, y_arr)
        _, dphi, d2phi = self._profile(r2)
        return -2.0 * x_arr.shape[1] * dphi - 4.0 * r2 * d2phi


def _sq_dists(x_arr, y_arr):
    """||x_i - y_j||^2 as ||x_i||^2 + ||y_j||^2 - 2 x_i.y_j, clamped at 0.

    X @ X.T is exactly symmetric, so a same-set matrix is too.
    """
    r2 = x_arr @ y_arr.T
    r2 *= -2.0
    r2 += (np.einsum("ij,ij->i", x_arr, x_arr)[:, None]
           + np.einsum("ij,ij->i", y_arr, y_arr)[None, :])
    return np.maximum(r2, 0.0, out=r2)


_TILE_ROWS = 64   # Gram rows built at a time by _tile_sums


def _tile_sums(n, tile, symmetric=False):
    """Row sums and main diagonal of an n-row matrix, built _TILE_ROWS rows
    at a time as tile(rows, cols), so at most that many rows are held.  cols
    is every column, or for a symmetric matrix the columns from the tile's
    first row on: H[lo:hi, lo:], whose column sums right of the diagonal
    block stand in for the lower triangle's rows hi:, so each pair is built
    once.  The diagonal is as long as the matrix's shorter side."""
    sums, diags = np.zeros(n), []
    for lo in range(0, n, _TILE_ROWS):
        hi = min(lo + _TILE_ROWS, n)
        block = tile(slice(lo, hi), slice(lo if symmetric else 0, None))
        sums[lo:hi] += block.sum(axis=1)
        if symmetric:
            sums[hi:] += block[:, hi - lo:].sum(axis=0)
        # a view would keep block
        diags.append(block.diagonal(0 if symmetric else lo).copy())
    return sums, np.concatenate(diags)


def mmd_squared(x_samples, y_samples, kernel):
    """Unbiased U-statistic of the squared maximum mean discrepancy between
    two sample sets (Gretton et al., JMLR 2012): same-set sums skip the
    diagonal, so the estimate may be negative.

    Each Gram is reduced in row tiles (_tile_sums), holding O(64 n)
    entries.  The symmetric same-set Grams take upper tiles, each pair built
    once (about n (n + 64) / 2 entries); the cross Gram keeps full-width
    tiles.  KernelSpec.gram gives the full matrices.
    """
    x_arr, y_arr = _as_samples(x_samples), _as_samples(y_samples)
    if x_arr.shape[0] < 2 or y_arr.shape[0] < 2:
        raise DomainError("U-statistic MMD needs >= 2 points per set")

    def mean(a, b, distinct=False):
        """Mean of k(a_i, b_j) over all pairs, or, for b = a, over pairs
        with i != j from upper tiles, each pair built once."""
        sums, diag = _tile_sums(a.shape[0], lambda rows, cols: kernel.gram(
            a[rows], b[cols]), symmetric=distinct)
        if distinct:
            return (sums - diag).sum() / (a.shape[0] * (a.shape[0] - 1))
        return sums.sum() / (a.shape[0] * b.shape[0])

    return float(mean(x_arr, x_arr, True) + mean(y_arr, y_arr, True)
                 - 2.0 * mean(x_arr, y_arr))


def _stein_matrix(x_arr, y_arr, sx, sy, kernel):
    """Stein kernel k_mu(x_i, y_j) for all pairs, from (n, m) matrices only.

    With k = phi(r2), tr d_x d_y k plus the two score terms is
    -2 phi' (d + (s_x - s_y).(x - y)) - 4 r2 phi'', and the last term is
    phi s_x.s_y, with (s_x - s_y).(x - y) = s_x.x + s_y.y - (s_x.y + x.s_y).
    Updates run in place to hold few (n, m) temporaries.
    """
    r2 = _sq_dists(x_arr, y_arr)
    phi, dphi, d2phi = kernel._profile(r2)
    cross = sx @ y_arr.T
    cross += x_arr @ sy.T
    out = (np.einsum("ij,ij->i", sx, x_arr)[:, None]
           + np.einsum("ij,ij->i", sy, y_arr)[None, :])
    out -= cross
    del cross
    out += x_arr.shape[1]
    out *= dphi
    out *= -2.0
    d2phi *= r2
    d2phi *= 4.0
    out -= d2phi
    phi *= sx @ sy.T
    out += phi
    return out


def _scores(score, points):
    """The scores at the rows of `points`, shape (n, d): `score` is either a
    per-point callable, called once per row through `_rows`, or the array of
    those scores.  A wrong shape or a non-finite score is an error."""
    if callable(score):
        score = _rows(score, points).reshape(points.shape)
    out = np.asarray(score, float)
    if out.ndim == 1 and points.shape[1] == 1:   # n scalars, as x may be
        out = out[:, None]
    if out.shape != points.shape:
        raise DomainError(f"score array has shape {np.shape(score)}; the "
                          f"samples need {points.shape}")
    if not np.isfinite(out).all():
        i, j = np.argwhere(~np.isfinite(out))[0]
        raise DomainError(f"score is non-finite at row {i}, column {j}")
    return out


def stein_kernel(x, y, score, kernel):
    """Stein reproducing kernel for K = k I, in expanded score form:

    k_mu(x, y) = tr d_x d_y k + s(x).d_y k + s(y).d_x k + k s(x).s(y)

    The expanded form avoids the density-ratio underflow of the definition;
    equivalence with the density-weighted form is a tested property.  The
    score is a per-point callable x -> s(x), evaluated at x and at y.
    """
    if not callable(score):
        raise DomainError("stein_kernel needs the score as a callable "
                          "x -> s(x), to evaluate it at x and at y")
    x_arr = np.atleast_1d(np.asarray(x, float))[None, :]
    y_arr = np.atleast_1d(np.asarray(y, float))[None, :]
    return float(_stein_matrix(x_arr, y_arr, _scores(score, x_arr),
                               _scores(score, y_arr), kernel)[0, 0])


def stein_gram(x_samples, score, kernel):
    """Full m x m Stein-kernel Gram matrix; a non-finite score raises.  The
    score is given as in `ksd_u_statistic`.

    One `_stein_matrix` call builds every entry, in O(m^2) memory, the size
    of the output; triu(K) + triu(K, 1)^T makes it exactly symmetric.
    """
    x_arr = _as_samples(x_samples)
    s = _scores(score, x_arr)
    full = _stein_matrix(x_arr, x_arr, s, s, kernel)
    return np.triu(full) + np.triu(full, 1).T


def ksd_u_statistic(x_samples, score, kernel, with_stderr=False):
    """Unbiased KSD estimate: mean of the Stein kernel over distinct pairs.

    May be negative (it is unbiased for zero at the target).  With
    with_stderr=True also returns the asymptotic standard error computed
    from the per-point conditional means (valid off the target, where the
    U-statistic is non-degenerate).

    `score` is the (m, d) array of the scores at the rows of x_samples, or
    a per-point callable x -> s(x), which `_rows` calls once per row; both
    give the same bits.  A wrong-shaped array, or a non-finite score,
    raises before any kernel entry is built.  The Gram is symmetric, so it
    is reduced in upper-triangle row tiles (_tile_sums): each pair is built
    once, about m (m + 64) / 2 entries, and O(64 m) are held.  stein_gram
    builds the full matrix in one call.
    """
    x_arr = _as_samples(x_samples)
    m = x_arr.shape[0]
    if m < 2:
        raise DomainError("KSD U-statistic needs m >= 2")
    s = _scores(score, x_arr)
    sums, diag = _tile_sums(m, lambda rows, cols: _stein_matrix(
        x_arr[rows], x_arr[cols], s[rows], s[cols], kernel), symmetric=True)
    h = sums - diag
    value = float(h.sum() / (m * (m - 1)))
    if not with_stderr:
        return value
    var = 4.0 * np.var(h / (m - 1), ddof=1) / m
    return value, float(math.sqrt(max(var, 0.0)))


class ScoreModel:
    """Parametric score model: x -> d_x log q_theta(x) plus its theta
    derivatives, with an optional matrix field B (default identity).

    `info_term_rows`, optional, is a callable (x_arr, theta) that returns
    the information tensor's term B(x)^T d/dtheta s(x) at each row of an
    (n, d) array of points, shape (n, d, n_params).  A model that supplies
    it writes it with the expressions of its per-point forms, so that it
    returns the same bits; without it the method of the same name calls the
    per-point forms once per row through `_rows`.
    """

    def __init__(self, theta, dim, score, dscore_dtheta, b_field=None,
                 sample=None, sm_theta_grad=None, name="",
                 info_term_rows=None):
        self.theta = np.array(theta, float, ndmin=1)   # a copy, not the caller's
        self.dim = int(dim)
        self._score = score
        self._dscore_dtheta = dscore_dtheta
        self._b_field = b_field
        self._sample = sample
        self._sm_theta_grad = sm_theta_grad
        self._info_term_rows = info_term_rows
        self.name = name

    @property
    def n_params(self):
        return self.theta.size

    def b(self, x):
        if self._b_field is None:
            return np.eye(self.dim)
        return np.asarray(self._b_field(x), float)

    def score(self, x):
        return np.asarray(self._score(x, self.theta), float)

    def dscore_dtheta(self, x):
        """d/dtheta of the score, shape (dim, n_params)."""
        out = np.asarray(self._dscore_dtheta(x, self.theta), float)
        return out.reshape(self.dim, self.n_params)

    def info_term_rows(self, x_arr):
        """B(x)^T d/dtheta s(x) at each row of x_arr, shape (n, dim, n_params)."""
        if self._info_term_rows is None:
            return _rows(lambda x: self.b(x).T @ self.dscore_dtheta(x), x_arr)
        return np.asarray(self._info_term_rows(x_arr, self.theta), float)

    def sample(self, n, rng):
        if self._sample is None:
            raise CapabilityError(f"model {self.name!r} cannot sample")
        return _as_samples(self._sample(n, self.theta, rng))

    def sm_theta_grad(self, x_samples):
        """d/dtheta of the score-matching estimator, the mean over samples of
        ||B^T s||^2 + 2 d_x.(B B^T s) with s = d_x log q_theta."""
        if self._sm_theta_grad is not None:
            return np.asarray(self._sm_theta_grad(_as_samples(x_samples),
                                                  self.theta), float)
        raise CapabilityError(
            f"model {self.name!r} has no analytic estimator gradient")

    def with_theta(self, theta):
        """A copy of this model at parameters theta."""
        model = copy.copy(self)
        model.theta = np.array(theta, float, ndmin=1)
        return model


def GaussianLocationModel(theta, sigma=1.0, b_matrix=None):
    """N(theta, sigma^2 I) location family; everything in closed form."""
    theta = np.atleast_1d(np.asarray(theta, float))
    d = theta.size
    s2 = float(sigma) ** 2
    b_mat = np.eye(d) if b_matrix is None else np.array(b_matrix, float)
    bbt = b_mat @ b_mat.T

    def score(x, th):
        return -(np.atleast_1d(x) - th) / s2

    def dscore(x, th):
        return np.eye(d) / s2

    def info_term_rows(x_arr, th):
        # the per-point b^T ds/dtheta of every row, as one batched matmul
        return b_mat.T @ np.broadcast_to(dscore(None, th), (len(x_arr), d, d))

    def sample(n, th, rng):
        return th + sigma * rng.standard_normal((n, d))

    def sm_grad(x_arr, th):
        # d/dtheta mean(||B^T s||^2 + 2 div) = mean 2 (ds/dth)^T B B^T s.
        scores = -(x_arr - th) / s2
        return (2.0 / s2) * (bbt @ scores.mean(axis=0))

    return ScoreModel(theta, d, score, dscore, b_field=lambda x: b_mat,
                      sample=sample, sm_theta_grad=sm_grad,
                      name=f"gaussian_location(d={d})",
                      info_term_rows=info_term_rows)


def _warn_if_indefinite(g):
    tr = float(np.trace(g))
    min_eig = float(np.min(np.linalg.eigvalsh(g)))
    if min_eig < -1e-8 * max(tr, 1e-300):
        warnings.warn(
            f"information tensor indefinite: min eigenvalue {min_eig:.3e}",
            ConditioningWarning, stacklevel=3)


def information_tensor(model, n_mc, rng):
    """Monte Carlo estimate of the score-matching information tensor
    E[W^T W], W = B(x)^T d/dtheta s(x), from n_mc draws of the model.  The
    W of all draws come from one `model.info_term_rows` call.  The output is
    symmetrised.
    """
    if n_mc < 100:
        raise DomainError("information tensor needs MC size >= 100")
    x_arr = model.sample(n_mc, rng)
    w = model.info_term_rows(x_arr)   # w[a] = B(x_a)^T d/dtheta s(x_a)
    g = np.einsum("adi,adj->ij", w, w) / n_mc
    g = 0.5 * (g + g.T)
    _warn_if_indefinite(g)
    return g


def natural_gradient_step(theta, grad, g, step, ridge=None):
    """theta - step * (G + ridge I)^{-1} grad, through its Cholesky factor L
    as inv(L)^T (inv(L) grad).

    Default ridge: 1e-8 * trace(G) / dim.
    """
    if not step > 0:
        raise DomainError("step size must be positive")
    theta = np.atleast_1d(np.asarray(theta, float))
    grad = np.atleast_1d(np.asarray(grad, float))
    g = np.atleast_2d(np.asarray(g, float))
    p = theta.size
    if ridge is None:
        ridge = 1e-8 * float(np.trace(g)) / p
    if ridge < 0:
        raise DomainError("ridge must be >= 0")
    tensor = g + ridge * np.eye(p)
    if not (np.isfinite(tensor).all() and np.isfinite(grad).all()):
        raise DomainError("natural gradient step needs a finite tensor and gradient")
    try:
        inv_chol = np.linalg.inv(np.linalg.cholesky(tensor))
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(
            "singular information tensor; increase the ridge") from exc
    return theta - step * (inv_chol.T @ (inv_chol @ grad))


def sm_ngd_fit(x_samples, model, rng, n_iter=50, step=1.0, tol=1e-10, n_mc=200,
               ridge=None):
    """Fit a score model by natural-gradient descent on the SM objective.

    The loss is half the score-matching estimator, so its information
    tensor is its Hessian at the optimum and a unit step is exact Newton for
    quadratic families.  Each iteration estimates that tensor from n_mc
    model draws taken from `rng`.  Returns (theta, per-iteration theta
    history).
    """
    x_arr = _as_samples(x_samples)
    history = [model.theta.copy()]
    for _ in range(n_iter):
        grad = 0.5 * model.sm_theta_grad(x_arr)
        g = information_tensor(model, n_mc, rng)
        theta_new = natural_gradient_step(model.theta, grad, g, step,
                                          ridge=ridge)
        model = model.with_theta(theta_new)
        history.append(theta_new.copy())
        if np.linalg.norm(history[-1] - history[-2]) < tol:
            break
    return model.theta, history
