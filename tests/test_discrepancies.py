import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize_scalar

from hamkit import (
    DomainError,
    GaussianLocationModel,
    KernelSpec,
    information_tensor,
    ksd_u_statistic,
    mmd_squared,
    natural_gradient_step,
    sm_ngd_fit,
    stein_kernel,
)
from hamkit import discrepancies
from hamkit.discrepancies import (
    _TILE_ROWS,
    ScoreModel,
    _scores,
    _sq_dists,
    _stein_matrix,
    _tile_sums,
    stein_gram,
)
from hamkit.errors import ConditioningError


class TestKernelSpec:
    def test_invalid_params(self):
        with pytest.raises(DomainError):
            KernelSpec.gaussian(-1.0)
        with pytest.raises(DomainError):
            KernelSpec.inverse_multiquadric(c=1.0, beta=1.5)
        with pytest.raises(DomainError):
            KernelSpec("triangle", width=1.0)
        with pytest.raises(DomainError, match="'sigma'"):
            KernelSpec("gaussian")
        with pytest.raises(DomainError, match="'beta'"):
            KernelSpec("inverse_multiquadric", c=1.0)

    @pytest.mark.parametrize("make, field", [
        (lambda: KernelSpec.gaussian(math.inf), "sigma"),
        (lambda: KernelSpec.inverse_multiquadric(c=math.inf), "c")])
    def test_non_finite_parameters_refused(self, make, field):
        # gaussian(inf) used to give an all-ones Gram
        with pytest.raises(DomainError, match=f" {field} must be finite"):
            make()

    @pytest.mark.parametrize("kernel", [
        KernelSpec.gaussian(0.8),
        KernelSpec.inverse_multiquadric(c=1.3, beta=0.5),
    ], ids=["gaussian", "imq"])
    def test_symmetry(self, kernel):
        x, y = draw_points(0, (20, 3), (20, 3))
        assert np.max(np.abs(kernel.gram(x, y) - kernel.gram(y, x).T)) < 1e-14
        gram = kernel.gram(x, x)
        assert np.array_equal(gram, gram.T)

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
        x, y = draw_points(2, (5, 2), (4, 2))
        steps = 1e-5 * np.eye(2)
        # gradient in x, from differences of gram
        fd = np.stack([(kernel.gram(x + e, y) - kernel.gram(x - e, y)) / (2e-5)
                       for e in steps], axis=2)
        assert np.max(np.abs(kernel.grad_x_gram(x, y) - fd)) < 1e-8
        # trace of the mixed second derivative, from differences of that
        # gradient in y
        fd_trace = sum((kernel.grad_x_gram(x, y + e)[:, :, j]
                        - kernel.grad_x_gram(x, y - e)[:, :, j]) / (2e-5)
                       for j, e in enumerate(steps))
        assert np.max(np.abs(kernel.mixed_trace_gram(x, y) - fd_trace)) < 1e-7


class TestMmd:
    def test_sets_of_different_dimension_refused(self):
        # numpy's matmul ValueError used to reach the caller
        with pytest.raises(DomainError, match=re.escape("(5, 2) and (4, 3)")):
            mmd_squared(np.zeros((5, 2)), np.zeros((4, 3)),
                        KernelSpec.gaussian(1.0))

    def test_two_point_sets(self):
        # one same-set pair each, and the four cross pairs
        k = KernelSpec.gaussian(1.0)
        x, y = np.array([[0.3], [-0.4]]), np.array([[1.1], [0.6]])
        cross = sum(pair_forms(k, a, b)[0] for a in x for b in y) / 4
        expected = (pair_forms(k, x[0], x[1])[0] + pair_forms(k, y[0], y[1])[0]
                    - 2 * cross)
        assert mmd_squared(x, y, k) == pytest.approx(expected)

    def test_population_value(self):
        # N(0,1) vs N(1,1), closed-form Gaussian-kernel expectations
        def expected_k(mu, s2, sig2):
            return math.sqrt(sig2 / (sig2 + s2)) * math.exp(-mu * mu / (2 * (sig2 + s2)))

        pop = 2 * expected_k(0.0, 2.0, 1.0) - 2 * expected_k(1.0, 2.0, 1.0)
        rng = np.random.default_rng(6)
        vals = [mmd_squared(rng.standard_normal((2000, 1)),
                            rng.standard_normal((2000, 1)) + 1.0,
                            KernelSpec.gaussian(1.0)) for _ in range(10)]
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(np.mean(vals) - pop) < 3 * se

    def test_preconditions(self):
        k = KernelSpec.gaussian(1.0)
        with pytest.raises(DomainError):
            mmd_squared(np.array([[1.0]]), np.array([[2.0]]), k)
        with pytest.raises(DomainError):
            mmd_squared(np.zeros((0, 1)), np.array([[1.0], [2.0]]), k)


KERNELS = [KernelSpec.gaussian(0.9),
           KernelSpec.inverse_multiquadric(c=1.3, beta=0.5)]


def shifted_score(z):
    return -(np.asarray(z) - 0.5)


def same_bits(a, b):
    """a and b have one shape and the same float64 bits."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def pair_forms(kernel, x, y):
    """k, d k / d x and sum_i d^2 k / (d x_i d y_i) at one pair, from the
    direct difference x - y and KernelSpec._profile: an oracle apart from
    the BLAS squared distances (_sq_dists) that the Gram forms build on."""
    diff = (np.atleast_1d(np.asarray(x, float))
            - np.atleast_1d(np.asarray(y, float)))
    r2 = float(diff @ diff)
    phi, dphi, d2phi = kernel._profile(r2)
    return phi, 2.0 * dphi * diff, -2.0 * diff.size * dphi - 4.0 * r2 * d2phi


def stein_reference(x, y, score, kernel):
    """Expanded Stein kernel from the single-pair kernel forms; d k / d y is
    -d k / d x."""
    sx, sy = score(x), score(y)
    k, grad_x, mixed_trace = pair_forms(kernel, x, y)
    return mixed_trace - sx @ grad_x + sy @ grad_x + k * (sx @ sy)


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
        rng = np.random.default_rng(10)
        vals = [ksd_u_statistic(rng.standard_normal((100, 1)), lambda z: -z, k)
                for _ in range(60)]
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(np.mean(vals)) < 4 * se

    def test_mismatch_detected(self):
        k = KernelSpec.gaussian(1.0)
        draws = np.random.default_rng(11).standard_normal((500, 1))
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


def draw_points(seed, *sizes):
    """Standard normal arrays of the given shapes, from one seed."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(size) for size in sizes]


class TestScoreArrays:
    """The Stein estimators take the scores as a per-point callable or as the
    (m, d) array of the scores at x's rows, with the same bits; a malformed
    array is refused before any kernel tile is built."""

    @settings(max_examples=30, deadline=None)
    @given(TILED_SIZES, st.integers(1, 6),
           st.integers(0, 2 ** 32 - 1), st.sampled_from(KERNELS))
    def test_array_gives_the_callable_bits(self, m, d, seed, kernel):
        (x,) = draw_points(seed, (m, d))
        s = -(x - 0.5)   # shifted_score at every row
        assert same_bits(s, [shifted_score(row) for row in x])
        assert (ksd_u_statistic(x, s, kernel, with_stderr=True)
                == ksd_u_statistic(x, shifted_score, kernel, with_stderr=True))
        assert same_bits(stein_gram(x, s, kernel),
                         stein_gram(x, shifted_score, kernel))

    def test_one_dimensional_points_take_a_vector(self):
        x, k = np.array([0.2, 1.4, -0.3]), KernelSpec.gaussian(1.0)
        assert ksd_u_statistic(x, -x, k) == ksd_u_statistic(x, lambda z: -z, k)

    @pytest.mark.parametrize("shape", [(5, 2), (4, 3), (8,), (4, 2, 1), ()])
    def test_wrong_shape_is_refused(self, shape):
        x, k = np.zeros((4, 2)), KernelSpec.gaussian(1.0)
        for estimator in (ksd_u_statistic, stein_gram):
            with pytest.raises(DomainError, match=re.escape(
                    f"shape {shape}; the samples need (4, 2)")):
                estimator(x, np.zeros(shape), k)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 70), st.integers(1, 4), st.data())
    def test_non_finite_entry_is_named_before_any_tile(self, m, d, data):
        i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, d - 1))
        s = np.zeros((m, d))
        s[i, j] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(KernelSpec, "_profile", lambda *a: pytest.fail(
                "a kernel tile was built"))
            for estimator in (ksd_u_statistic, stein_gram):
                with pytest.raises(DomainError, match=f"row {i}, column {j}$"):
                    estimator(np.zeros((m, d)), s, KernelSpec.gaussian(1.0))

    @pytest.mark.parametrize("x, y, s", [([0.3, 1.0], [0.0, -1.0], [[0.5, 2.0]]),
                                         ([0.3], [1.2], [0.5])])
    def test_stein_kernel_refuses_an_array(self, x, y, s):
        # one point's scores would be taken as s(x) and again as s(y)
        with pytest.raises(DomainError, match="callable"):
            stein_kernel(x, y, np.asarray(s), KernelSpec.gaussian(1.0))


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
        # gram builds phi alone, with the bits of the full profile's phi, on
        # arrays and on a single squared distance
        x, y = draw_points(seed, (n, d), (m, d))
        assert np.array_equal(kernel.gram(x, y),
                              kernel._profile(_sq_dists(x, y))[0])
        r2 = float(np.sum((x[-1] - y[0]) ** 2))
        assert kernel._profile(r2, derivatives=False) == kernel._profile(r2)[0]

    def test_mmd_ustat_builds_each_same_set_pair_once(self, monkeypatch):
        entries = []
        gram = KernelSpec.gram

        def counted(kernel, x_arr, y_arr):
            entries.append(x_arr.shape[0] * y_arr.shape[0])
            return gram(kernel, x_arr, y_arr)

        monkeypatch.setattr(KernelSpec, "gram", counted)
        n = 300
        x, y = draw_points(2, (n, 3), (n, 3))
        mmd_squared(x, y + 0.3, KernelSpec.gaussian(1.0))
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
        assert abs(mmd_squared(x, y, kernel) - u) <= tol

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


@pytest.mark.parametrize("estimator, n", [("ksd", 1200), ("mmd", 1000)])
def test_estimators_peak_below_one_full_gram(estimator, n):
    """Memory guard: the tiled estimators hold O(64 n) entries, so the
    traced peak of a call stays below one n x n float64 array (11.5 MB for
    KSD at m = 1200, d = 10; 8 MB for MMD at n = m = 1000)."""
    x, y = draw_points(0, (n, 10), (n, 10))
    if estimator == "ksd":
        call = lambda: ksd_u_statistic(  # noqa: E731
            x, shifted_score, KernelSpec.gaussian(1.0), with_stderr=True)
    else:
        call = lambda: mmd_squared(x, y, KernelSpec.gaussian(3.0))  # noqa: E731
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8, f"{estimator} peaked at {peak / 1e6:.1f} MB"


class TestSmEstimate:
    """ScoreModel.with_theta, which moves the model from one score-matching
    estimate to the next in sm_ngd_fit."""

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


class TestScoreModel:
    def test_stores_copies_of_the_callers_arrays(self):
        th, b_mat = np.zeros(2), np.eye(2)
        model = GaussianLocationModel(th, b_matrix=b_mat)
        moved = model.with_theta(th)
        th[0], b_mat[0, 0] = 5.0, 3.0
        for m in (model, moved):
            assert np.array_equal(m.theta, [0.0, 0.0])
            assert np.array_equal(m.score(np.zeros(2)), [0.0, 0.0])
        assert np.array_equal(model.b(None), np.eye(2))


class TestInformationTensor:
    def test_sm_gaussian_location_exact(self):
        model = GaussianLocationModel(np.array([1.0]))
        g = information_tensor(model, 200, np.random.default_rng(14))
        assert g == pytest.approx(np.ones((1, 1)), abs=1e-12)

    def test_validation(self):
        model = GaussianLocationModel(np.zeros(1))
        with pytest.raises(DomainError):
            information_tensor(model, 50, np.random.default_rng(0))

    @pytest.mark.parametrize("n_mc", [150.5, 200.0, True])
    def test_mc_size_must_be_an_integer(self, n_mc):
        # 150.5 and 200.0 used to end in an untyped TypeError
        with pytest.raises(DomainError, match="n_mc, the MC size must be an"):
            information_tensor(GaussianLocationModel(np.zeros(1)), n_mc,
                               np.random.default_rng(0))


def curved_model(d, p):
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
        name="curved")


def assert_close(a, b):
    """rtol 1e-12 in the max norm: max |a - b| <= 1e-12 max |b|."""
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), (a, b)


class TestRowForms:
    """GaussianLocationModel's row-wise information-tensor term returns its
    per-point forms' bits at every row, and so the information tensor keeps
    the loop's bits; a model without it runs through the `_rows` adapter."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.37, 1.0, 2.5]), st.booleans())
    def test_gaussian_location_term_is_the_per_point_bits(self, d, seed,
                                                            sigma, dense_b):
        rng = np.random.default_rng(seed)
        b_matrix = rng.standard_normal((d, d)) if dense_b else None
        model = GaussianLocationModel(rng.standard_normal(d), sigma=sigma,
                                      b_matrix=b_matrix)
        x = model.sample(120, np.random.default_rng(seed))
        w = [model.b(row).T @ model.dscore_dtheta(row) for row in x]
        assert same_bits(model.info_term_rows(x), w)
        g = np.einsum("adi,adj->ij", np.asarray(w), np.asarray(w)) / 120
        assert same_bits(information_tensor(model, 120, np.random.default_rng(seed)),
                         0.5 * (g + g.T))

    @pytest.mark.parametrize("d, p", [(1, 1), (3, 2)])
    def test_adapter_calls_the_per_point_forms(self, d, p):
        model = curved_model(d, p)
        x = model.sample(30, np.random.default_rng(d))
        assert same_bits(model.info_term_rows(x), [
            model.b(row).T @ model.dscore_dtheta(row) for row in x])


class TestEstimatorsMatchLoops:
    """The array form of the SM information tensor against the per-row loop
    it replaced, and the work it does."""

    @pytest.mark.parametrize("d, p", [(1, 1), (2, 3), (3, 2)])
    def test_sm_tensor(self, d, p):
        model = curved_model(d, p)
        g = information_tensor(model, 120, np.random.default_rng(20))
        ref = np.zeros((p, p))
        for x in model.sample(120, np.random.default_rng(20)):
            w = model.b(x).T @ model.dscore_dtheta(x)
            ref += w.T @ w
        assert_close(g, (ref + ref.T) / (2 * 120))

    def test_sm_tensor_work(self, count_calls):
        b_calls = count_calls(ScoreModel, "b")
        information_tensor(curved_model(2, 2), 100, np.random.default_rng(25))
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

    @pytest.mark.parametrize("step", [math.inf, math.nan, 0.0, -1.0])
    def test_step_refused(self, step):
        # step = inf used to return [-inf, -inf]
        with pytest.raises(DomainError, match="step size must be finite"):
            natural_gradient_step(np.zeros(2), np.ones(2), np.eye(2), step)

    @pytest.mark.parametrize("ridge", [math.nan, -1e-3])
    def test_ridge_refused(self, ridge):
        # ridge = NaN used to pass `ridge < 0` and fail as a non-finite tensor
        with pytest.raises(DomainError, match="ridge must be >= 0"):
            natural_gradient_step(np.zeros(2), np.ones(2), np.eye(2), 1.0,
                                  ridge=ridge)

    @pytest.mark.parametrize("tol", [math.nan, -1e-10])
    def test_sm_ngd_tol_refused(self, tol):
        # tol = NaN used to turn the early stop off without a word
        data = np.random.default_rng(17).standard_normal((20, 2))
        with pytest.raises(DomainError, match="tol must be >= 0"):
            sm_ngd_fit(data, GaussianLocationModel(np.zeros(2)),
                       np.random.default_rng(0), tol=tol)

    def test_sm_ngd_recovers_sample_mean(self):
        rng = np.random.default_rng(17)
        data = rng.standard_normal((200, 2)) + 1.5
        theta, history = sm_ngd_fit(data, GaussianLocationModel(np.zeros(2)),
                                    rng, n_iter=50, step=1.0)
        assert len(history) - 1 <= 50
        assert np.linalg.norm(theta - data.mean(axis=0)) < 1e-6

    def test_sm_ngd_needs_an_rng(self):
        # the information tensor is a Monte Carlo estimate over model draws;
        # there is no draw-free fallback
        data = np.random.default_rng(17).standard_normal((20, 2))
        with pytest.raises(TypeError, match="rng"):
            sm_ngd_fit(data, GaussianLocationModel(np.zeros(2)), n_iter=5)

    @pytest.mark.parametrize("field, value", [
        ("n_iter", True), ("n_iter", 2.5), ("n_iter", -1),
        ("n_mc", 150.5), ("n_mc", 200.0)])
    def test_sm_ngd_counts_refused(self, field, value):
        # n_iter = True used to run one iteration and -1 none; 2.5 and both
        # n_mc values ended in an untyped TypeError
        data = np.random.default_rng(17).standard_normal((20, 2))
        with pytest.raises(DomainError, match=f"{field}.* must be an integer"):
            sm_ngd_fit(data, GaussianLocationModel(np.zeros(2)),
                       np.random.default_rng(0), **{field: value})

    def test_sm_ngd_refuses_a_small_mc_size(self):
        # n_mc reaches the information tensor as given, which refuses fewer
        # than 100 draws
        data = np.random.default_rng(17).standard_normal((20, 2))
        with pytest.raises(DomainError, match="MC size >= 100"):
            sm_ngd_fit(data, GaussianLocationModel(np.zeros(2)),
                       np.random.default_rng(0), n_mc=99)


class TestConsistency:
    def test_sm_fit_error_decreases_with_sample_size(self):
        errors = {m: [] for m in (100, 1000, 10000)}
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
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
            rng = np.random.default_rng(200 + seed)
            pool = rng.standard_normal((800, 1))
            for m in errors:
                data = pool[:m]
                res = minimize_scalar(
                    lambda th: ksd_u_statistic(data, lambda z: -(z - th), k),
                    bounds=(-2.0, 2.0), method="bounded")
                errors[m].append(abs(res.x))
        med = [np.median(errors[m]) for m in (50, 200, 800)]
        assert med[2] < med[0]
