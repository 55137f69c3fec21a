"""Kernel discrepancies (MMD, KSD), score matching, and natural-gradient fits."""
from __future__ import annotations

import copy
import math
import warnings

import numpy as np

from .core import _as_samples, _central_diffs, _rows
from .errors import (
    CapabilityError,
    ConditioningError,
    ConditioningWarning,
    DegenerateSampleError,
    DomainError,
)

__all__ = [
    "KernelSpec",
    "ScoreModel",
    "GaussianLocationModel",
    "TranslationGenerator",
    "median_heuristic",
    "mmd_squared",
    "stein_kernel",
    "stein_gram",
    "ksd_u_statistic",
    "sm_estimate",
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
        if family == "gaussian":
            sigma = float(params.pop("sigma"))
            if not sigma > 0:
                raise DomainError("gaussian kernel needs sigma > 0")
            self.params = {"sigma": sigma}
        elif family == "inverse_multiquadric":
            c = float(params.pop("c"))
            beta = float(params.pop("beta"))
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

    # Single-pair forms, from the direct difference x - y.
    def _pair(self, x, y, derivatives=True):
        diff = (np.atleast_1d(np.asarray(x, float))
                - np.atleast_1d(np.asarray(y, float)))
        return diff, self._profile(float(diff @ diff), derivatives)

    def mixed_hessian(self, x, y):
        """Full matrix d^2 k / (d x_i d y_j) at a single pair, shape (d, d)."""
        diff, (_, dphi, d2phi) = self._pair(x, y)
        return -2.0 * dphi * np.eye(diff.size) - 4.0 * d2phi * np.outer(diff, diff)

    def k(self, x, y):
        return float(self._pair(x, y, derivatives=False)[1])

    def grad_x(self, x, y):
        diff, (_, dphi, _) = self._pair(x, y)
        return 2.0 * dphi * diff

    def grad_y(self, x, y):
        return -self.grad_x(x, y)

    def mixed_trace(self, x, y):
        diff, (_, dphi, d2phi) = self._pair(x, y)
        return float(-2.0 * diff.size * dphi - 4.0 * (diff @ diff) * d2phi)


def _sq_dists(x_arr, y_arr):
    """||x_i - y_j||^2 as ||x_i||^2 + ||y_j||^2 - 2 x_i.y_j, clamped at 0.

    X @ X.T is exactly symmetric, so a same-set matrix is too.
    """
    r2 = x_arr @ y_arr.T
    r2 *= -2.0
    r2 += (np.einsum("ij,ij->i", x_arr, x_arr)[:, None]
           + np.einsum("ij,ij->i", y_arr, y_arr)[None, :])
    return np.maximum(r2, 0.0, out=r2)


_MEDIAN_SUBSAMPLE = 2000


def median_heuristic(samples):
    """Median of squared pairwise distances over distinct pairs.

    Exact for n <= 2000; above that a fixed-seed subsample of 2000 points is
    used.  Returns sigma^2 (the squared bandwidth).
    """
    x_arr = _as_samples(samples)
    if x_arr.shape[0] < 2:
        raise DomainError("median heuristic needs at least 2 points")
    if x_arr.shape[0] > _MEDIAN_SUBSAMPLE:
        idx = np.random.Generator(np.random.PCG64(0)).choice(
            x_arr.shape[0], size=_MEDIAN_SUBSAMPLE, replace=False)
        x_arr = x_arr[np.sort(idx)]
    # Decided on the points: rounding leaves r2 of equal rows near, not at, 0.
    if np.all(x_arr == x_arr[0]):
        raise DegenerateSampleError("all points identical; bandwidth undefined")
    # the strict upper triangle of each upper row tile, gathered into one
    # buffer that the median partitions in place: no n x n array is held
    n = x_arr.shape[0]
    upper, end = np.empty(n * (n - 1) // 2), 0
    for lo, hi, block in _row_tiles(n, lambda rows, cols: _sq_dists(
            x_arr[rows], x_arr[cols]), symmetric=True):
        pairs = block[~np.tri(hi - lo, n - lo, dtype=bool)]
        upper[end:end + pairs.size] = pairs
        end += pairs.size
    return float(np.median(upper, overwrite_input=True))


_TILE_ROWS = 64   # Gram rows built at a time by _row_tiles


def _row_tiles(n, tile, symmetric):
    """(lo, hi, tile(rows, cols)) for each slice of _TILE_ROWS rows of an
    n-row matrix.  cols is every column, or for a symmetric matrix the
    columns from lo on: the diagonal block and the upper triangle."""
    for lo in range(0, n, _TILE_ROWS):
        hi = min(lo + _TILE_ROWS, n)
        yield lo, hi, tile(slice(lo, hi), slice(lo if symmetric else 0, None))


def _tile_sums(n, tile, symmetric=False):
    """Row sums and main diagonal of an n-row matrix from _row_tiles, so at
    most _TILE_ROWS rows are held.  The diagonal is as long as the matrix's
    shorter side.  A symmetric tile builds only H[lo:hi, lo:]; the column
    sums of its part right of the diagonal block stand in for the lower
    triangle's rows hi:, so each pair is built once."""
    sums, diags = np.zeros(n), []
    for lo, hi, block in _row_tiles(n, tile, symmetric):
        sums[lo:hi] += block.sum(axis=1)
        if symmetric:
            sums[hi:] += block[:, hi - lo:].sum(axis=0)
        # a view would keep block
        diags.append(block.diagonal(0 if symmetric else lo).copy())
    return sums, np.concatenate(diags)


def mmd_squared(x_samples, y_samples, kernel, mode="v"):
    """Squared maximum mean discrepancy between two sample sets.

    mode='v': biased V-statistic (includes diagonal terms, always >= 0).
    mode='u': unbiased U-statistic (diagonal excluded in same-set sums).
    Each Gram is reduced in row tiles (_tile_sums), holding O(64 n)
    entries.  The U-statistic's symmetric same-set Grams take upper tiles,
    each pair built once (about n (n + 64) / 2 entries); the cross Gram and
    the V-statistic keep full-width tiles against a copy of the second set,
    so kxx and kxy of a copy are one product summed in one order, and its
    V-statistic is exactly 0.  KernelSpec.gram gives the full matrices.
    """
    if mode not in ("v", "u"):
        raise DomainError(f"unknown MMD mode {mode!r}")
    x_arr, y_arr = _as_samples(x_samples), _as_samples(y_samples)
    n, m = x_arr.shape[0], y_arr.shape[0]
    if n < 1 or m < 1:
        raise DomainError("both sample sets must be non-empty")
    if mode == "u" and (n < 2 or m < 2):
        raise DomainError("U-statistic MMD needs >= 2 points per set")

    def mean(a, b, distinct=False):
        """Mean of k(a_i, b_j) over all pairs, or, for b = a, over pairs
        with i != j from upper tiles, each pair built once."""
        if not distinct:   # A @ A.T of one buffer is syrk, rounding apart from gemm
            b = b.copy()
        sums, diag = _tile_sums(a.shape[0], lambda rows, cols: kernel.gram(
            a[rows], b[cols]), symmetric=distinct)
        if distinct:
            return (sums - diag).sum() / (a.shape[0] * (a.shape[0] - 1))
        return sums.sum() / (a.shape[0] * b.shape[0])

    u = mode == "u"
    val = mean(x_arr, x_arr, u) + mean(y_arr, y_arr, u) - 2.0 * mean(x_arr, y_arr)
    return float(val) if u else max(float(val), 0.0)  # clips roundoff negatives


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
    """score at each row of `points`, shape (n, d); non-finite is an error."""
    out = _rows(score, points).reshape(points.shape)
    if not np.isfinite(out).all():
        raise DomainError("score is non-finite at an evaluation point")
    return out


def stein_kernel(x, y, score, kernel):
    """Stein reproducing kernel for K = k I, in expanded score form:

    k_mu(x, y) = tr d_x d_y k + s(x).d_y k + s(y).d_x k + k s(x).s(y)

    The expanded form avoids the density-ratio underflow of the definition;
    equivalence with the density-weighted form is a tested property.
    """
    x_arr = np.atleast_1d(np.asarray(x, float))[None, :]
    y_arr = np.atleast_1d(np.asarray(y, float))[None, :]
    return float(_stein_matrix(x_arr, y_arr, _scores(score, x_arr),
                               _scores(score, y_arr), kernel)[0, 0])


def _stein_tile(x_arr, s, kernel):
    """tile(rows, cols) for _row_tiles: a block of x_arr's Stein Gram."""
    return lambda rows, cols: _stein_matrix(x_arr[rows], x_arr[cols], s[rows],
                                            s[cols], kernel)


def stein_gram(x_samples, score, kernel):
    """Full m x m Stein-kernel Gram matrix; a non-finite score raises.

    Built from upper-triangle row tiles (_row_tiles), each pair once.  A
    tile's part right of its diagonal block D is copied, transposed, to the
    lower triangle, and D becomes triu(D) + triu(D, 1)^T: exactly symmetric.
    """
    x_arr = _as_samples(x_samples)
    m = x_arr.shape[0]
    out = np.empty((m, m))
    for lo, hi, block in _row_tiles(m, _stein_tile(
            x_arr, _scores(score, x_arr), kernel), symmetric=True):
        diag, right = block[:, :hi - lo], block[:, hi - lo:]
        out[lo:hi, lo:hi] = np.triu(diag) + np.triu(diag, 1).T
        out[lo:hi, hi:] = right
        out[hi:, lo:hi] = right.T
    return out


def ksd_u_statistic(x_samples, score, kernel, with_stderr=False):
    """Unbiased KSD estimate: mean of the Stein kernel over distinct pairs.

    May be negative (it is unbiased for zero at the target).  With
    with_stderr=True also returns the asymptotic standard error computed
    from the per-point conditional means (valid off the target, where the
    U-statistic is non-degenerate).  The scores are taken once, and a
    non-finite one raises before any kernel entry is built.  The Gram is
    symmetric, so it is reduced in upper-triangle row tiles (_tile_sums):
    each pair is built once, about m (m + 64) / 2 entries, and O(64 m) are
    held.  stein_gram gives the full matrix.
    """
    x_arr = _as_samples(x_samples)
    m = x_arr.shape[0]
    if m < 2:
        raise DomainError("KSD U-statistic needs m >= 2")
    s = _scores(score, x_arr)
    sums, diag = _tile_sums(m, _stein_tile(x_arr, s, kernel), symmetric=True)
    h = sums - diag
    value = float(h.sum() / (m * (m - 1)))
    if not with_stderr:
        return value
    var = 4.0 * np.var(h / (m - 1), ddof=1) / m
    return value, float(math.sqrt(max(var, 0.0)))


class ScoreModel:
    """Parametric score model: x -> d_x log q_theta(x) plus its theta
    derivatives, with an optional matrix field B (default identity)."""

    def __init__(self, theta, dim, score, dscore_dtheta, b_field=None,
                 score_div_b=None, sample=None, log_density=None,
                 sm_theta_grad=None, fd_fallback=False, name=""):
        self.theta = np.atleast_1d(np.asarray(theta, float))
        self.dim = int(dim)
        self._score = score
        self._dscore_dtheta = dscore_dtheta
        self._b_field = b_field
        self._score_div_b = score_div_b
        self._sample = sample
        self._log_density = log_density
        self._sm_theta_grad = sm_theta_grad
        self.fd_fallback = bool(fd_fallback)
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

    def score_div_b(self, x):
        """d_x . (B B^T d_x log q_theta)(x)."""
        if self._score_div_b is not None:
            return float(self._score_div_b(x, self.theta))
        if not self.fd_fallback:
            raise CapabilityError(
                f"model {self.name!r} lacks an analytic score divergence; "
                "enable fd_fallback to use finite differences")

        def flux(y):
            b_mat = self.b(y)
            return b_mat @ b_mat.T @ self.score(y)

        x = np.atleast_1d(np.asarray(x, float))
        return float(np.trace(_central_diffs(flux, x, 1e-5)))

    def sample(self, n, rng):
        if self._sample is None:
            raise CapabilityError(f"model {self.name!r} cannot sample")
        return _as_samples(self._sample(n, self.theta, rng))

    def log_density(self, x):
        if self._log_density is None:
            raise CapabilityError(f"model {self.name!r} has no log-density")
        return float(self._log_density(x, self.theta))

    def sm_theta_grad(self, x_samples):
        """d/dtheta of the printed score-matching estimator over samples."""
        if self._sm_theta_grad is not None:
            return np.asarray(self._sm_theta_grad(_as_samples(x_samples),
                                                  self.theta), float)
        raise CapabilityError(
            f"model {self.name!r} has no analytic estimator gradient")

    def with_theta(self, theta):
        """A copy of this model at parameters theta."""
        model = copy.copy(self)
        model.theta = np.atleast_1d(np.asarray(theta, float))
        return model


def GaussianLocationModel(theta, sigma=1.0, b_matrix=None):
    """N(theta, sigma^2 I) location family; everything in closed form."""
    theta = np.atleast_1d(np.asarray(theta, float))
    d = theta.size
    s2 = float(sigma) ** 2
    b_mat = np.eye(d) if b_matrix is None else np.asarray(b_matrix, float)
    bbt = b_mat @ b_mat.T

    def score(x, th):
        return -(np.atleast_1d(x) - th) / s2

    def dscore(x, th):
        return np.eye(d) / s2

    def div_b(x, th):
        return -np.trace(bbt) / s2

    def sample(n, th, rng):
        return th + sigma * rng.standard_normal((n, d))

    def log_density(x, th):
        r = np.atleast_1d(x) - th
        return -0.5 * float(r @ r) / s2 - 0.5 * d * math.log(2 * math.pi * s2)

    def sm_grad(x_arr, th):
        # d/dtheta mean(||B^T s||^2 + 2 div) = mean 2 (ds/dth)^T B B^T s.
        scores = -(x_arr - th) / s2
        return (2.0 / s2) * (bbt @ scores.mean(axis=0))

    return ScoreModel(theta, d, score, dscore, b_field=lambda x: b_mat,
                      score_div_b=div_b, sample=sample, log_density=log_density,
                      sm_theta_grad=sm_grad, name=f"gaussian_location(d={d})")


class TranslationGenerator:
    """Generative model T_theta(u) = u + theta over a base sampler."""

    def __init__(self, theta, base_sampler=None):
        self.theta = np.atleast_1d(np.asarray(theta, float))
        self.dim = self.theta.size
        self._base = base_sampler or (
            lambda n, rng: rng.standard_normal((n, self.dim)))

    def sample_base(self, n, rng):
        return _as_samples(self._base(n, rng))

    def push(self, u):
        return np.asarray(u, float) + self.theta

    def dpush_dtheta(self, u):
        return np.eye(self.dim)


def sm_estimate(x_samples, model):
    """Score-matching estimator:
    mean over samples of ||B^T d_x log q||^2 + 2 d_x.(B B^T d_x log q)."""
    x_arr = _as_samples(x_samples)
    bts = np.einsum("adk,ad->ak", _rows(model.b, x_arr), _rows(model.score, x_arr))
    terms = np.einsum("ak,ak->a", bts, bts) + 2.0 * _rows(model.score_div_b, x_arr)
    return float(terms.mean())


def _warn_if_indefinite(g):
    tr = float(np.trace(g))
    min_eig = float(np.min(np.linalg.eigvalsh(g)))
    if min_eig < -1e-8 * max(tr, 1e-300):
        warnings.warn(
            f"information tensor indefinite: min eigenvalue {min_eig:.3e}",
            ConditioningWarning, stacklevel=3)


def information_tensor(kind, model, n_mc, rng, kernel=None):
    """Monte Carlo estimate of the information tensor for SM, KSD or MMD.

    SM/KSD sample the model; MMD pushes base-measure samples through the
    generator and sums over all n_mc^2 pairs at once, so it holds
    O(n_mc^2 (d + 2p)) floats for d-dimensional samples and p parameters.
    The output is symmetrised.
    """
    if kind not in ("sm", "ksd", "mmd"):
        raise DomainError(f"unknown information tensor kind {kind!r}")
    if kind != "sm" and kernel is None:
        raise DomainError(f"{kind.upper()} information tensor needs a kernel")
    if n_mc < 100:
        raise DomainError("information tensor needs MC size >= 100")
    if kind == "mmd":
        u_arr = model.sample_base(n_mc, rng)
        v_arr = model.sample_base(n_mc, rng)
        diff = _rows(model.push, u_arr)[:, None, :] - _rows(model.push, v_arr)
        _, dphi, d2phi = kernel._profile(np.einsum("abk,abk->ab", diff, diff))
        ju = _rows(model.dpush_dtheta, u_arr)                   # (n, d, p)
        jv = _rows(model.dpush_dtheta, v_arr)
        # sum_ab J(u_a)^T (-2 phi' I - 4 phi'' diff diff^T) J(v_b), the mixed
        # Hessian of k at each pair (KernelSpec.mixed_hessian)
        g = (-2.0 * np.einsum("ab,adi,bdj->ij", dphi, ju, jv)
             - 4.0 * np.einsum("ab,abi,abj->ij", d2phi,
                               np.einsum("abk,aki->abi", diff, ju),
                               np.einsum("abk,bkj->abj", diff, jv)))
        g /= n_mc * n_mc
    else:
        x_arr = model.sample(n_mc, rng)
        # w[a] = B(x_a)^T d/dtheta s(x_a), shape (n, d, p)
        w = _rows(lambda x: model.b(x).T @ model.dscore_dtheta(x), x_arr)
        if kind == "sm":
            g = np.einsum("adi,adj->ij", w, w) / n_mc
        else:
            # G_ij = E_x E_y [ k(x,y) w_j(x) . w_i(y) ]  (V-statistic over pairs)
            k = kernel.gram(x_arr, x_arr)
            g = np.einsum("ab,adi,bdj->ij", k, w, w) / (n_mc * n_mc)
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

    The loss is half the printed estimator, so its information tensor is its
    Hessian at the optimum and a unit step is exact Newton for quadratic
    families.  Each iteration estimates that tensor from n_mc model draws
    taken from `rng`.  Returns (theta, per-iteration theta history).
    """
    x_arr = _as_samples(x_samples)
    history = [model.theta.copy()]
    for _ in range(n_iter):
        grad = 0.5 * model.sm_theta_grad(x_arr)
        g = information_tensor("sm", model, max(n_mc, 100), rng)
        theta_new = natural_gradient_step(model.theta, grad, g, step,
                                          ridge=ridge)
        model = model.with_theta(theta_new)
        history.append(theta_new.copy())
        if np.linalg.norm(history[-1] - history[-2]) < tol:
            break
    return model.theta, history
