import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize_scalar

from hamkit import (
    DegenerateSampleError,
    DomainError,
    GaussianLocationModel,
    KernelSpec,
    RngStream,
    information_tensor,
    ksd_u_statistic,
    median_heuristic,
    mmd_squared,
    natural_gradient_step,
    sm_estimate,
    sm_ngd_fit,
    stein_kernel,
)
from hamkit import discrepancies
from hamkit.discrepancies import (
    _TILE_ROWS,
    ScoreModel,
    TranslationGenerator,
    _scores,
    _sq_dists,
    _stein_matrix,
    _tile_sums,
    stein_gram,
)
from hamkit.errors import CapabilityError, ConditioningError, DomainError


class TestKernelSpec:
    def test_invalid_params(self):
        with pytest.raises(DomainError):
            KernelSpec.gaussian(-1.0)
        with pytest.raises(DomainError):
            KernelSpec.inverse_multiquadric(c=1.0, beta=1.5)
        with pytest.raises(DomainError):
            KernelSpec("triangle", width=1.0)

    @pytest.mark.parametrize("kernel", [
        KernelSpec.gaussian(0.8),
        KernelSpec.inverse_multiquadric(c=1.3, beta=0.5),
    ], ids=["gaussian", "imq"])
    def test_symmetry(self, kernel):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            assert abs(kernel.k(x, y) - kernel.k(y, x)) < 1e-14

    @pytest.mark.parametrize("kernel", [
        KernelSpec.gaussian(0.8),
        KernelSpec.inverse_multiquadric(c=1.3, beta=0.5),
    ], ids=["gaussian", "imq"])
    def test_gram_psd(self, kernel):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((40, 2))
        gram = kernel.gram(pts, pts)
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() > -1e-10 * np.trace(gram)

    @pytest.mark.parametrize("kernel", [
        KernelSpec.gaussian(0.7),
        KernelSpec.inverse_multiquadric(c=0.9, beta=0.4),
    ], ids=["gaussian", "imq"])
    def test_derivatives_match_finite_differences(self, kernel):
        rng = np.random.default_rng(2)
        h = 1e-5
        for _ in range(5):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            # gradient in x
            fd = np.array([
                (kernel.k(x + h * e, y) - kernel.k(x - h * e, y)) / (2 * h)
                for e in np.eye(2)])
            assert np.max(np.abs(kernel.grad_x(x, y) - fd)) < 1e-8
            # trace of mixed second derivative
            fd_trace = 0.0
            for e in np.eye(2):
                fd_trace += (kernel.grad_x(x, y + h * e)
                             - kernel.grad_x(x, y - h * e)) @ e / (2 * h)
            assert abs(kernel.mixed_trace(x, y) - fd_trace) < 1e-7
            # full mixed Hessian
            fd_hess = np.empty((2, 2))
            for j, e in enumerate(np.eye(2)):
                fd_hess[:, j] = (kernel.grad_x(x, y + h * e)
                                 - kernel.grad_x(x, y - h * e)) / (2 * h)
            assert np.max(np.abs(kernel.mixed_hessian(x, y) - fd_hess)) < 1e-7


class TestMedianHeuristic:
    def test_single_pair(self):
        assert median_heuristic(np.array([0.0, 2.0])) == pytest.approx(4.0)

    def test_three_points(self):
        assert median_heuristic(np.array([0.0, 1.0, 2.0])) == pytest.approx(1.0)

    def test_subsample_close_to_exact(self):
        draws = np.random.default_rng(3).standard_normal(3000)
        sub = median_heuristic(draws)
        diff = draws[:, None] - draws[None, :]
        iu = np.triu_indices(3000, k=1)
        exact = float(np.median((diff ** 2)[iu]))
        assert abs(sub - exact) / exact < 0.05

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            median_heuristic(np.ones(10))
        row = np.random.default_rng(3).standard_normal(3)
        with pytest.raises(DegenerateSampleError):
            median_heuristic(np.tile(row, (10, 1)))
        with pytest.raises(DomainError):
            median_heuristic(np.array([1.0]))


class TestMmd:
    def test_identical_sets_vstat_zero(self):
        x = np.array([[0.0], [1.0], [2.0]])
        assert mmd_squared(x, x.copy(), KernelSpec.gaussian(1.0), mode="v") == 0.0

    def test_singletons(self):
        k = KernelSpec.gaussian(1.0)
        x, y = np.array([[0.3]]), np.array([[1.1]])
        expected = k.k(x[0], x[0]) + k.k(y[0], y[0]) - 2 * k.k(x[0], y[0])
        assert mmd_squared(x, y, k, mode="v") == pytest.approx(expected)

    def test_vstat_nonnegative(self):
        rng = np.random.default_rng(4)
        k = KernelSpec.inverse_multiquadric()
        for _ in range(10):
            x = rng.standard_normal((15, 2))
            y = rng.standard_normal((10, 2)) + rng.uniform(-1, 1)
            assert mmd_squared(x, y, k, mode="v") >= 0.0

    def test_ustat_approaches_vstat(self):
        rng = np.random.default_rng(5)
        k = KernelSpec.gaussian(1.0)
        diffs = []
        for n in (50, 200, 800):
            x = rng.standard_normal((n, 1))
            y = rng.standard_normal((n, 1)) + 0.5
            diffs.append(abs(mmd_squared(x, y, k, "u") - mmd_squared(x, y, k, "v")))
        assert diffs[2] < diffs[0]

    def test_population_value(self):
        # N(0,1) vs N(1,1), closed-form Gaussian-kernel expectations
        def expected_k(mu, s2, sig2):
            return math.sqrt(sig2 / (sig2 + s2)) * math.exp(-mu * mu / (2 * (sig2 + s2)))

        pop = 2 * expected_k(0.0, 2.0, 1.0) - 2 * expected_k(1.0, 2.0, 1.0)
        rng = RngStream(6)
        vals = [mmd_squared(rng.standard_normal((2000, 1)),
                            rng.standard_normal((2000, 1)) + 1.0,
                            KernelSpec.gaussian(1.0), "u") for _ in range(10)]
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(np.mean(vals) - pop) < 3 * se

    def test_preconditions(self):
        k = KernelSpec.gaussian(1.0)
        with pytest.raises(DomainError):
            mmd_squared(np.array([[1.0]]), np.array([[2.0]]), k, mode="u")
        with pytest.raises(DomainError):
            mmd_squared(np.array([[1.0]]), np.array([[2.0]]), k, mode="w")


KERNELS = [KernelSpec.gaussian(0.9),
           KernelSpec.inverse_multiquadric(c=1.3, beta=0.5)]


def shifted_score(z):
    return -(np.asarray(z) - 0.5)


def stein_reference(x, y, score, kernel):
    """Expanded Stein kernel from the scalar, direct-difference kernel forms."""
    sx, sy = score(x), score(y)
    return (kernel.mixed_trace(x, y) + sx @ kernel.grad_y(x, y)
            + sy @ kernel.grad_x(x, y) + kernel.k(x, y) * (sx @ sy))


def assert_matches_reference(pts, kernel):
    gram = stein_gram(pts, shifted_score, kernel)
    for i in range(len(pts)):
        for j in range(len(pts)):
            want = stein_reference(pts[i], pts[j], shifted_score, kernel)
            assert gram[i, j] == pytest.approx(want, abs=1e-12)
            assert stein_kernel(pts[i], pts[j], shifted_score,
                                kernel) == pytest.approx(want, abs=1e-12)
    return gram


class TestSteinKernel:
    def test_value_at_mode(self):
        k = KernelSpec.gaussian(1.0)
        assert stein_kernel([0.0], [0.0], lambda x: -x, k) == pytest.approx(1.0)

    def test_value_off_mode(self):
        k = KernelSpec.gaussian(1.0)
        assert stein_kernel([1.0], [1.0], lambda x: -x, k) == pytest.approx(2.0)

    def test_symmetry(self):
        k = KernelSpec.gaussian(0.9)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            a = stein_kernel(x, y, lambda z: -z, k)
            b = stein_kernel(y, x, lambda z: -z, k)
            assert abs(a - b) < 1e-12

    def test_gram_matches_pointwise(self):
        k = KernelSpec.gaussian(1.1)
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((6, 2))
        score = lambda z: -z
        gram = stein_gram(pts, score, k)
        for i in range(6):
            for j in range(6):
                assert gram[i, j] == pytest.approx(
                    stein_kernel(pts[i], pts[j], score, k), abs=1e-12)

    @pytest.mark.parametrize("kernel", KERNELS, ids=["gaussian", "imq"])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_gram_matches_reference(self, kernel, dim):
        pts = np.random.default_rng(18).standard_normal((6, dim))
        pts = np.vstack([pts, pts[:2], pts[3:4]])   # duplicate rows
        assert_matches_reference(pts, kernel)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.lists(
               st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d),
               min_size=1, max_size=6)),
           st.sampled_from(KERNELS))
    def test_gram_reference_and_symmetry_property(self, rows, kernel):
        gram = assert_matches_reference(np.asarray(rows), kernel)
        assert np.array_equal(gram, gram.T)

    def test_gram_psd(self):
        k = KernelSpec.gaussian(1.0)
        pts = np.random.default_rng(9).standard_normal((50, 1))
        gram = stein_gram(pts, lambda z: -z, k)
        assert np.linalg.eigvalsh(gram).min() >= -1e-8 * np.trace(gram)

    def test_nonfinite_score_rejected(self):
        k = KernelSpec.gaussian(1.0)
        with np.errstate(invalid="ignore"), pytest.raises(DomainError):
            stein_kernel([1.0], [0.0], lambda z: z * np.inf, k)

    def test_nonfinite_score_rejected_by_gram(self):
        k = KernelSpec.gaussian(1.0)
        pts = np.array([[0.0], [1.0], [2.0]])
        score = lambda z: np.where(z > 1.5, np.nan, -z)  # noqa: E731
        with pytest.raises(DomainError):
            stein_gram(pts, score, k)
        with pytest.raises(DomainError):
            ksd_u_statistic(pts, score, k)


class TestKsd:
    def test_two_points(self):
        k = KernelSpec.gaussian(1.0)
        x = np.array([[0.2], [1.4]])
        score = lambda z: -z
        assert ksd_u_statistic(x, score, k) == pytest.approx(
            stein_kernel(x[0], x[1], score, k))

    def test_unbiased_at_target(self):
        k = KernelSpec.gaussian(1.0)
        rng = RngStream(10)
        vals = [ksd_u_statistic(rng.standard_normal((100, 1)), lambda z: -z, k)
                for _ in range(60)]
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(np.mean(vals)) < 4 * se

    def test_mismatch_detected(self):
        k = KernelSpec.gaussian(1.0)
        draws = RngStream(11).standard_normal((500, 1))
        val, se = ksd_u_statistic(draws, lambda z: -(z - 1.0), k,
                                  with_stderr=True)
        assert val > 0
        assert val / se >= 5.0

    def test_minimum_size(self):
        with pytest.raises(DomainError):
            ksd_u_statistic(np.array([[1.0]]), lambda z: -z,
                            KernelSpec.gaussian(1.0))


# Sample sizes from two points to three row tiles and one past, so that
# hypothesis meets the tile boundaries.
TILED_SIZES = st.integers(2, 3 * _TILE_ROWS + 1)


def full_matrix_median(x):
    """median_heuristic's value from the full n x n squared-distance matrix:
    the median of its strict upper triangle."""
    upper = np.triu(np.ones((x.shape[0],) * 2, bool), 1)
    return float(np.median(_sq_dists(x, x)[upper]))


def draw_points(seed, *sizes):
    """Standard normal arrays of the given shapes, from one seed."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(size) for size in sizes]


class TestTiledReductions:
    """The KSD and MMD estimators reduce their Grams in row tiles; they must
    agree with the formulas on the full Gram (KernelSpec.gram, stein_gram).
    Summing row sums is not numpy's flat pairwise sum, and BLAS may pick
    another kernel for a tile than for the full product, so the two agree to
    1e-13 of the largest |Gram entry|, not bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(TILED_SIZES, TILED_SIZES, st.integers(0, 2 ** 32 - 1))
    def test_tile_sums_are_row_sums_and_diagonal(self, n, cols, seed):
        (mat,) = draw_points(seed, (n, cols))
        sums, diag = _tile_sums(n, lambda rows, cols: mat[rows, cols])
        assert np.array_equal(sums, mat.sum(axis=1))
        assert np.array_equal(diag, np.diagonal(mat))

    @settings(max_examples=30, deadline=None)
    @given(TILED_SIZES, st.integers(0, 2 ** 32 - 1))
    def test_symmetric_tile_sums_build_the_upper_triangle(self, n, seed):
        (half,) = draw_points(seed, (n, n))
        mat = half + half.T
        built = np.zeros((n, n), bool)

        def tile(rows, cols):
            built[rows, cols] = True
            return mat[rows, cols]

        sums, diag = _tile_sums(n, tile, symmetric=True)
        assert np.abs(sums - mat.sum(axis=1)).max() <= (
            1e-13 * np.abs(mat).max() * n)
        assert np.array_equal(diag, np.diagonal(mat))
        # every pair at or above the diagonal, and below it only inside
        # the diagonal blocks
        assert built[np.triu_indices(n)].all()
        rows, cols = np.nonzero(np.tril(built, -1))
        assert np.array_equal(rows // _TILE_ROWS, cols // _TILE_ROWS)

    @settings(max_examples=30, deadline=None)
    @given(TILED_SIZES, TILED_SIZES, st.integers(1, 6),
           st.integers(0, 2 ** 32 - 1), st.sampled_from(KERNELS))
    def test_gram_is_the_profile_value(self, n, m, d, seed, kernel):
        # gram and k build phi alone, with the bits of the full profile's phi
        x, y = draw_points(seed, (n, d), (m, d))
        assert np.array_equal(kernel.gram(x, y),
                              kernel._profile(_sq_dists(x, y))[0])
        diff = x[-1] - y[0]
        assert kernel.k(x[-1], y[0]) == kernel._profile(float(diff @ diff))[0]

    def test_mmd_ustat_builds_each_same_set_pair_once(self, monkeypatch):
        entries = []
        gram = KernelSpec.gram

        def counted(kernel, x_arr, y_arr):
            entries.append(x_arr.shape[0] * y_arr.shape[0])
            return gram(kernel, x_arr, y_arr)

        monkeypatch.setattr(KernelSpec, "gram", counted)
        n = 300
        x, y = draw_points(2, (n, 3), (n, 3))
        mmd_squared(x, y + 0.3, KernelSpec.gaussian(1.0), "u")
        # two upper-tile same-set Grams and the full cross Gram
        assert 0 < sum(entries) <= n * (n + _TILE_ROWS) + n * n

    def test_ksd_builds_each_pair_once(self, monkeypatch):
        entries = []

        def counted(x_arr, y_arr, sx, sy, kernel):
            entries.append(x_arr.shape[0] * y_arr.shape[0])
            return _stein_matrix(x_arr, y_arr, sx, sy, kernel)

        monkeypatch.setattr(discrepancies, "_stein_matrix", counted)
        m = 200
        (x,) = draw_points(1, (m, 3))
        ksd_u_statistic(x, shifted_score, KernelSpec.gaussian(1.0),
                        with_stderr=True)
        assert 0 < sum(entries) <= m * (m + _TILE_ROWS) // 2

    @settings(max_examples=30, deadline=None)
    @given(TILED_SIZES, st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(KERNELS))
    def test_stein_gram_matches_one_shot(self, m, d, seed, kernel):
        (x,) = draw_points(seed, (m, d))
        s = _scores(shifted_score, x)
        want = _stein_matrix(x, x.copy(), s, s.copy(), kernel)
        gram = stein_gram(x, shifted_score, kernel)
        assert np.abs(gram - want).max() <= 1e-13 * np.abs(want).max()
        assert np.array_equal(gram, gram.T)

    @settings(max_examples=40, deadline=None)
    @given(TILED_SIZES, st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(KERNELS))
    def test_ksd_matches_full_gram(self, m, d, seed, kernel):
        (x,) = draw_points(seed, (m, d))
        gram = stein_gram(x, shifted_score, kernel)
        tol = 1e-13 * np.abs(gram).max()
        h = (gram.sum(axis=1) - np.diag(gram)) / (m - 1)
        value, se = ksd_u_statistic(x, shifted_score, kernel, with_stderr=True)
        assert abs(value - (gram.sum() - np.trace(gram)) / (m * (m - 1))) <= tol
        assert abs(se - math.sqrt(4.0 * np.var(h, ddof=1) / m)) <= tol

    @settings(max_examples=40, deadline=None)
    @given(TILED_SIZES, TILED_SIZES, st.integers(1, 6),
           st.integers(0, 2 ** 32 - 1), st.sampled_from(KERNELS))
    def test_mmd_matches_full_gram(self, n, m, d, seed, kernel):
        x, y = draw_points(seed, (n, d), (m, d))
        y += 0.3
        kxx, kyy, kxy = kernel.gram(x, x), kernel.gram(y, y), kernel.gram(x, y)
        tol = 1e-13 * max(np.abs(k).max() for k in (kxx, kyy, kxy))
        u = ((kxx.sum() - np.trace(kxx)) / (n * (n - 1))
             + (kyy.sum() - np.trace(kyy)) / (m * (m - 1)) - 2.0 * kxy.mean())
        v = kxx.mean() + kyy.mean() - 2.0 * kxy.mean()
        assert abs(mmd_squared(x, y, kernel, "u") - u) <= tol
        assert abs(mmd_squared(x, y, kernel, "v") - max(v, 0.0)) <= tol

    @settings(max_examples=20, deadline=None)
    @given(TILED_SIZES, st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(KERNELS))
    # one tile: numpy's syrk for X @ X.T once gave kxx and kxy apart by 1e-16
    @example(46, 2, 857135, KERNELS[0])
    def test_mmd_vstat_of_a_copy_is_zero(self, n, d, seed, kernel):
        (x,) = draw_points(seed, (n, d))
        assert mmd_squared(x, x.copy(), kernel, "v") == 0.0

    @settings(max_examples=30, deadline=None)
    @given(TILED_SIZES, st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    def test_median_heuristic_matches_full_matrix_bitwise(self, n, d, seed):
        # coordinates k / 2^10 with |k| < 2^12: every product and sum in the
        # squared distances is exact, so no BLAS kernel choice can round a
        # tile's entry differently from the full matrix's
        rng = np.random.default_rng(seed)
        x = rng.integers(-2 ** 12, 2 ** 12, (n, d)) / 2 ** 10
        assume(not np.all(x == x[0]))
        assert median_heuristic(x) == full_matrix_median(x)

    @settings(max_examples=30, deadline=None)
    @given(TILED_SIZES, st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    def test_median_heuristic_matches_full_matrix(self, n, d, seed):
        # on general floats BLAS may round a dot product in a tile 1 ulp
        # apart from the full product; an order statistic moves by at most
        # the largest entry's change, which is within the rounding of
        # ||x_i||^2 + ||x_j||^2
        (x,) = draw_points(seed, (n, d))
        tol = 1e-13 * 2.0 * np.einsum("ij,ij->i", x, x).max()
        assert abs(median_heuristic(x) - full_matrix_median(x)) <= tol

    @settings(max_examples=20, deadline=None)
    @given(TILED_SIZES, st.integers(1, 6), st.data())
    def test_nan_score_raises_before_any_tile(self, m, d, data):
        bad = data.draw(st.integers(0, m - 1))
        x = np.zeros((m, d))
        x[bad] = 1.0
        score = lambda z: np.where(z > 0.5, np.nan, -z)  # noqa: E731
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(KernelSpec, "_profile", lambda *a: pytest.fail(
                "a kernel tile was built"))
            with pytest.raises(DomainError):
                ksd_u_statistic(x, score, KernelSpec.gaussian(1.0))


@pytest.mark.parametrize("estimator, n", [("ksd", 1200), ("mmd", 1000),
                                          ("median", 2000)])
def test_estimators_peak_below_one_full_gram(estimator, n):
    """Memory guard: the tiled estimators hold O(64 n) entries, so the
    traced peak of a call stays below one n x n float64 array (11.5 MB for
    KSD at m = 1200, d = 10; 8 MB for MMD at n = m = 1000).  The median
    heuristic holds the n (n - 1) / 2 distinct pairs once (32 MB bound at
    n = 2000)."""
    x, y = draw_points(0, (n, 10), (n, 10))
    if estimator == "ksd":
        call = lambda: ksd_u_statistic(  # noqa: E731
            x, shifted_score, KernelSpec.gaussian(1.0), with_stderr=True)
    elif estimator == "mmd":
        call = lambda: mmd_squared(x, y, KernelSpec.gaussian(3.0), "u")  # noqa: E731
    else:
        call = lambda: median_heuristic(x)  # noqa: E731
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8, f"{estimator} peaked at {peak / 1e6:.1f} MB"


class TestSmEstimate:
    def test_single_sample_at_parameter(self):
        model = GaussianLocationModel(np.array([0.7]))
        assert sm_estimate(np.array([[0.7]]), model) == pytest.approx(-2.0)

    def test_argmin_is_sample_mean(self):
        rng = RngStream(12)
        data = rng.standard_normal((50, 1)) + 2.0
        res = minimize_scalar(
            lambda th: sm_estimate(data, GaussianLocationModel(np.array([th]))),
            bounds=(-5.0, 8.0), method="bounded")
        assert res.x == pytest.approx(data.mean(), abs=1e-5)

    def test_matrix_field_hand_expansion(self):
        # B = diag(2, 1): ||B^T s||^2 = 4 s1^2 + s2^2, divergence term -2*5
        b = np.diag([2.0, 1.0])
        model = GaussianLocationModel(np.zeros(2), b_matrix=b)
        data = np.array([[0.5, -1.0], [1.5, 0.25]])
        s = -data
        expected = np.mean(4 * s[:, 0] ** 2 + s[:, 1] ** 2) - 2.0 * 5.0
        assert sm_estimate(data, model) == pytest.approx(expected, abs=1e-12)

    def test_capability_error_without_divergence(self):
        model = ScoreModel(np.zeros(1), 1,
                           score=lambda x, th: -(x - th),
                           dscore_dtheta=lambda x, th: np.eye(1))
        with pytest.raises(CapabilityError):
            sm_estimate(np.array([[1.0]]), model)

    def test_fd_divergence_fallback(self):
        model = ScoreModel(np.zeros(1), 1,
                           score=lambda x, th: -(x - th),
                           dscore_dtheta=lambda x, th: np.eye(1),
                           fd_fallback=True)
        exact = GaussianLocationModel(np.zeros(1))
        data = np.array([[0.3], [-1.2]])
        assert sm_estimate(data, model) == pytest.approx(
            sm_estimate(data, exact), abs=1e-6)

    def test_score_matches_log_density_gradient(self):
        model = GaussianLocationModel(np.array([0.4, -1.0]), sigma=1.3)
        rng = np.random.default_rng(13)
        h = 1e-6
        for _ in range(5):
            x = rng.standard_normal(2)
            fd = np.array([
                (model.log_density(x + h * e) - model.log_density(x - h * e))
                / (2 * h) for e in np.eye(2)])
            assert np.max(np.abs(model.score(x) - fd)) < 1e-6

    @pytest.mark.parametrize("theta", [[1.0, -2.0], [3, 4]])
    def test_with_theta_changes_only_theta(self, theta):
        model = GaussianLocationModel(np.array([0.4, -1.0]), sigma=1.3,
                                      b_matrix=np.diag([2.0, 0.5]))
        moved = model.with_theta(theta)
        assert moved.theta.dtype == float and np.array_equal(moved.theta, theta)
        assert np.array_equal(model.theta, [0.4, -1.0])
        assert vars(moved).keys() == vars(model).keys()
        assert all(vars(moved)[k] is v for k, v in vars(model).items()
                   if k != "theta")
        x = np.array([0.3, 0.7])
        assert np.allclose(moved.score(x), -(x - np.asarray(theta)) / 1.3 ** 2)


class TestInformationTensor:
    def test_sm_gaussian_location_exact(self):
        model = GaussianLocationModel(np.array([1.0]))
        g = information_tensor("sm", model, 200, RngStream(14))
        assert g == pytest.approx(np.ones((1, 1)), abs=1e-12)

    def test_ksd_wide_kernel_limit(self):
        model = GaussianLocationModel(np.array([0.0]))
        g = information_tensor("ksd", model, 300, RngStream(15),
                               kernel=KernelSpec.gaussian(1e3))
        # k -> 1 so G -> (E[d_x d_theta log q])^2 = 1
        assert g[0, 0] == pytest.approx(1.0, abs=1e-3)

    def test_mmd_translation_family(self):
        gen = TranslationGenerator(np.zeros(1))
        g = information_tensor("mmd", gen, 150, RngStream(16),
                               kernel=KernelSpec.gaussian(1.0))
        assert g[0, 0] == pytest.approx(1.0 / (3.0 * math.sqrt(3.0)), abs=0.02)

    def test_validation(self):
        model = GaussianLocationModel(np.zeros(1))
        with pytest.raises(DomainError):
            information_tensor("sm", model, 50, RngStream(0))
        with pytest.raises(DomainError):
            information_tensor("fisher", model, 200, RngStream(0))
        with pytest.raises(DomainError):
            information_tensor("ksd", model, 200, RngStream(0))


def curved_model(d, p, fd_fallback=False):
    """A score model whose B field, score and theta-Jacobian all vary with x."""
    rng = np.random.default_rng(10 * d + p)
    m_mat = rng.standard_normal((d, p))
    c_mat = 0.3 * rng.standard_normal((d, d))

    def scale(x):
        return 1.0 + 0.1 * np.sin(x).sum()

    return ScoreModel(
        rng.standard_normal(p), d,
        score=lambda x, th: -(x - m_mat @ th) * scale(x),
        dscore_dtheta=lambda x, th: m_mat * scale(x),
        b_field=lambda x: (np.eye(d) + np.diag(0.3 * np.tanh(x))
                           + c_mat * np.cos(x).sum()),
        sample=lambda n, th, r: r.standard_normal((n, d)) + m_mat @ th,
        fd_fallback=fd_fallback, name="curved")


class ScaledGenerator:
    """push(u) = theta * u, whose theta-Jacobian diag(u) differs per sample."""

    def __init__(self, theta):
        self.theta = np.asarray(theta, float)
        self.dim = self.theta.size

    def sample_base(self, n, rng):
        return rng.standard_normal((n, self.dim))

    def push(self, u):
        return self.theta * u

    def dpush_dtheta(self, u):
        return np.diag(u)


def assert_close(a, b):
    """rtol 1e-12 in the max norm: max |a - b| <= 1e-12 max |b|."""
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), (a, b)


class TestEstimatorsMatchLoops:
    """The array forms of the estimators against the per-row and per-pair
    loops they replaced, and the work they do."""

    @pytest.mark.parametrize("d, p", [(1, 1), (2, 3), (3, 2)])
    def test_sm_tensor(self, d, p):
        model = curved_model(d, p)
        g = information_tensor("sm", model, 120, RngStream(20))
        ref = np.zeros((p, p))
        for x in model.sample(120, RngStream(20)):
            w = model.b(x).T @ model.dscore_dtheta(x)
            ref += w.T @ w
        assert_close(g, (ref + ref.T) / (2 * 120))

    @pytest.mark.parametrize("d, p", [(1, 1), (2, 3), (3, 2)])
    def test_ksd_tensor(self, d, p):
        model = curved_model(d, p)
        kernel = KernelSpec.gaussian(1.3)
        g = information_tensor("ksd", model, 100, RngStream(21), kernel=kernel)
        x_arr = model.sample(100, RngStream(21))
        w = [model.b(x).T @ model.dscore_dtheta(x) for x in x_arr]
        ref = np.zeros((p, p))
        for a in range(100):
            for b in range(100):
                ref += kernel.k(x_arr[a], x_arr[b]) * w[a].T @ w[b]
        assert_close(g, (ref + ref.T) / (2 * 100 ** 2))

    @pytest.mark.parametrize("kernel", [
        KernelSpec.gaussian(1.1),
        KernelSpec.inverse_multiquadric(c=1.2, beta=0.6),
    ], ids=["gaussian", "imq"])
    @pytest.mark.parametrize("d", [1, 3])
    def test_mmd_tensor(self, kernel, d):
        gen = ScaledGenerator(np.linspace(0.5, 1.5, d))
        g = information_tensor("mmd", gen, 100, RngStream(22), kernel=kernel)
        rng = RngStream(22)
        u_arr, v_arr = gen.sample_base(100, rng), gen.sample_base(100, rng)
        ref = np.zeros((d, d))
        for u in u_arr:
            for v in v_arr:
                ref += (gen.dpush_dtheta(u).T
                        @ kernel.mixed_hessian(gen.push(u), gen.push(v))
                        @ gen.dpush_dtheta(v))
        assert_close(g, (ref + ref.T) / (2 * 100 ** 2))

    @pytest.mark.parametrize("d, p", [(1, 1), (3, 2)])
    def test_sm_estimate_fd_fallback(self, d, p):
        model = curved_model(d, p, fd_fallback=True)
        x_arr = model.sample(50, RngStream(23))
        h = 1e-5
        total = 0.0
        for x in x_arr:
            b, s = model.b(x), model.score(x)
            div = 0.0
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                hi = model.b(x + e) @ model.b(x + e).T @ model.score(x + e)
                lo = model.b(x - e) @ model.b(x - e).T @ model.score(x - e)
                div += (hi[j] - lo[j]) / (2.0 * h)
            total += float(s @ b @ b.T @ s) + 2.0 * div
        assert sm_estimate(x_arr, model) == pytest.approx(total / 50, rel=1e-12)

    def test_mmd_tensor_work(self, count_calls):
        # one push and one Jacobian per sample, and no per-pair Hessian; the
        # pair loop made n_mc^2 Hessian and n_mc + n_mc^2 Jacobian calls
        hessians = count_calls(KernelSpec, "mixed_hessian")
        jacobians = count_calls(ScaledGenerator, "dpush_dtheta")
        pushes = count_calls(ScaledGenerator, "push")
        information_tensor("mmd", ScaledGenerator(np.ones(2)), 100,
                           RngStream(24), kernel=KernelSpec.gaussian(1.0))
        assert (len(hessians), len(jacobians), len(pushes)) == (0, 200, 200)

    def test_sm_tensor_work(self, count_calls):
        b_calls = count_calls(ScoreModel, "b")
        information_tensor("sm", curved_model(2, 2), 100, RngStream(25))
        assert len(b_calls) == 100


class TestNaturalGradient:
    def test_identity_tensor_plain_step(self):
        theta = np.array([1.0, 2.0])
        grad = np.array([0.5, -0.5])
        out = natural_gradient_step(theta, grad, np.eye(2), 0.3, ridge=0.0)
        assert np.allclose(out, theta - 0.3 * grad, atol=1e-14)

    def test_scaled_tensor(self):
        theta = np.array([1.0])
        out = natural_gradient_step(theta, np.array([2.0]), 2.0 * np.eye(1),
                                    1.0, ridge=0.0)
        assert out == pytest.approx(0.0, abs=1e-14)

    def test_scale_invariance_bitwise(self):
        theta = np.array([1.0, 2.0, 3.0])
        grad = np.array([0.5, -0.2, 0.9])
        g = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 1.0]])
        c = 4.0
        a = natural_gradient_step(theta, grad, g, 0.7)
        b = natural_gradient_step(theta, c * grad, c * g, 0.7)
        assert np.array_equal(a, b)

    def test_singular_tensor(self):
        with pytest.raises(ConditioningError):
            natural_gradient_step(np.zeros(2), np.ones(2),
                                  np.zeros((2, 2)), 1.0, ridge=0.0)

    @given(d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           scaled_identity=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_diagonal_tensor_step_is_cho_solve_bit_for_bit(self, d, seed,
                                                          scaled_identity):
        # GaussianLocationModel's tensor is diagonal; its fits keep their bits
        rng = np.random.default_rng(seed)
        for _ in range(50):
            scales = np.exp(rng.uniform(-14.0, 14.0, 1 if scaled_identity else d))
            g = np.diag(np.broadcast_to(scales, d))
            theta, grad = rng.standard_normal((2, d)) * 100.0
            ridge = 1e-8 * float(np.trace(g)) / d   # the default ridge
            expected = theta - 0.7 * cho_solve(cho_factor(g + ridge * np.eye(d)), grad)
            assert np.array_equal(natural_gradient_step(theta, grad, g, 0.7), expected)

    @given(d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           shift=st.floats(0.05, 1.0))
    @settings(max_examples=120, deadline=None)
    def test_step_matches_cho_solve(self, d, seed, shift):
        # a general SPD tensor (condition number below about 100): within
        # 1e-13 relative; 20,000 draws of this family differed by <= 4.7e-15
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((d, d))
        g = a @ a.T / d + shift * np.eye(d)
        grad = rng.standard_normal(d)
        expected = cho_solve(cho_factor(g), grad)
        got = -natural_gradient_step(np.zeros(d), grad, g, 1.0, ridge=0.0)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("g, grad", [
        ([[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [np.inf, 1.0])])
    def test_non_finite_input(self, g, grad):
        with pytest.raises(DomainError, match="finite"):
            natural_gradient_step(np.zeros(2), grad, g, 1.0)

    def test_sm_ngd_recovers_sample_mean(self):
        rng = RngStream(17)
        data = rng.standard_normal((200, 2)) + 1.5
        theta, history = sm_ngd_fit(data, GaussianLocationModel(np.zeros(2)),
                                    rng, n_iter=50, step=1.0)
        assert len(history) - 1 <= 50
        assert np.linalg.norm(theta - data.mean(axis=0)) < 1e-6

    def test_sm_ngd_needs_an_rng(self):
        # the information tensor is a Monte Carlo estimate over model draws;
        # there is no draw-free fallback
        data = RngStream(17).standard_normal((20, 2))
        with pytest.raises(TypeError, match="rng"):
            sm_ngd_fit(data, GaussianLocationModel(np.zeros(2)), n_iter=5)


class TestConsistency:
    def test_sm_fit_error_decreases_with_sample_size(self):
        errors = {m: [] for m in (100, 1000, 10000)}
        for seed in range(20):
            rng = RngStream(100 + seed)
            pool = rng.standard_normal((10000, 1))
            for m in errors:
                theta, _ = sm_ngd_fit(pool[:m], GaussianLocationModel(np.zeros(1)),
                                      rng, n_iter=10)
                errors[m].append(abs(float(theta[0])))
        med = [np.median(errors[m]) for m in (100, 1000, 10000)]
        assert med[0] > med[1] > med[2]

    def test_ksd_fit_error_decreases_with_sample_size(self):
        k = KernelSpec.gaussian(1.0)
        errors = {m: [] for m in (50, 200, 800)}
        for seed in range(6):
            rng = RngStream(200 + seed)
            pool = rng.standard_normal((800, 1))
            for m in errors:
                data = pool[:m]
                res = minimize_scalar(
                    lambda th: ksd_u_statistic(data, lambda z: -(z - th), k),
                    bounds=(-2.0, 2.0), method="bounded")
                errors[m].append(abs(res.x))
        med = [np.median(errors[m]) for m in (50, 200, 800)]
        assert med[2] < med[0]
