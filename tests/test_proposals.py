import hashlib
import math
import sys

import numpy as np
import pytest
from scipy import integrate, stats

from jumpclust import proposals
from jumpclust.core import KMeansConfig, seeded_rng
from jumpclust.proposals import (
    ProposalParams,
    StepProposals,
    kmeans_fit,
    proposal_scale,
    student_log_density,
    student_sample,
    within_cluster_loss,
)
from jumpclust.scoring import nearest_sq_dist, sq_dists


class TestStudentDensity:
    def test_mode_value_d1(self):
        params = ProposalParams(np.zeros((1, 1)), tau=1.0)
        got = student_log_density(np.zeros((1, 1, 1)), params)[0]
        assert got == pytest.approx(math.log(2 / (math.pi * math.sqrt(6))), rel=1e-12)

    def test_radial_symmetry(self):
        rng = seeded_rng(21, 0)
        loc = rng.standard_normal((3, 2))
        params = ProposalParams(loc, tau=0.7)
        v = rng.standard_normal((3, 2))
        plus, minus = student_log_density(np.stack([loc + v, loc - v]), params)
        assert plus == pytest.approx(minus, rel=1e-12)

    def test_d1_quadrature_normalization(self):
        params = ProposalParams(np.array([[0.3]]), tau=0.5)

        def dens(x):
            return math.exp(student_log_density(np.array([[[x]]]), params)[0])

        val, _ = integrate.quad(dens, -np.inf, np.inf, limit=400)
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_d2_monte_carlo_normalization(self):
        # importance-sample with scipy's own implementation of the same law
        loc = np.array([[0.4, -0.2]])
        tau = 0.8
        params = ProposalParams(loc, tau=tau)
        ref = stats.multivariate_t(loc=loc[0], shape=2 * tau**2 * np.eye(2), df=3)
        draws = ref.rvs(size=50_000, random_state=np.random.default_rng(4))
        ours = student_log_density(draws[:2000, None, :], params)
        ratios = np.exp(ours - ref.logpdf(draws[:2000]))
        assert abs(ratios.mean() - 1.0) <= 1e-2

    def test_matches_scipy_product_blocks(self):
        rng = seeded_rng(22, 0)
        loc = rng.standard_normal((2, 2))
        tau = 0.6
        params = ProposalParams(loc, tau=tau)
        pts = loc + 0.3 * rng.standard_normal((2, 2))
        blocks = [
            stats.multivariate_t(loc=loc[j], shape=2 * tau**2 * np.eye(2), df=3).logpdf(pts[j])
            for j in range(2)
        ]
        assert student_log_density(pts[None], params)[0] == pytest.approx(sum(blocks), rel=1e-12)

    def test_shape_mismatch(self):
        params = ProposalParams(np.zeros((2, 2)), tau=1.0)
        with pytest.raises(ValueError):
            student_log_density(np.zeros((1, 1, 2)), params)
        with pytest.raises(ValueError):
            student_log_density(np.zeros((3, 1, 2)), params)

    def test_stack_rows_equal_single_rows(self):
        rng = seeded_rng(28, 0)
        for k, dim in ((1, 1), (3, 2), (5, 2)):
            params = ProposalParams(rng.standard_normal((k, dim)), tau=0.3)
            stack = student_sample(params, 50, rng)
            values = student_log_density(stack, params)
            assert values.shape == (50,)
            assert values.tolist() == [student_log_density(row[None], params)[0] for row in stack]


class TestBlockedDraw:
    """student_sample draws its rows in consecutive BLOCK_ROWS blocks, so a
    call equals its blocks drawn by their own calls from an equal-seeded
    generator, compared with ==."""

    @pytest.mark.parametrize("k, dim", [(1, 1), (3, 2), (5, 2)])
    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_call_equals_its_blocks(self, k, dim, m):
        params = ProposalParams(seeded_rng(29, k).standard_normal((k, dim)), tau=0.4)
        size = proposals.BLOCK_ROWS
        whole = student_sample(params, m * size, seeded_rng(29, 1))
        rng = seeded_rng(29, 1)
        parts = np.concatenate([student_sample(params, size, rng) for _ in range(m)])
        assert whole.shape == parts.shape == (m * size, k, dim)
        assert whole.tobytes() == parts.tobytes()

    @pytest.mark.parametrize("n", [1, 31, 33, 75])
    def test_short_last_block(self, n):
        params = ProposalParams(np.array([[0.5, -1.0], [2.0, 0.0], [-1.0, 1.0]]), tau=0.3)
        size = proposals.BLOCK_ROWS
        whole = student_sample(params, n, seeded_rng(30, 0))
        rng = seeded_rng(30, 0)
        blocks = [size] * (n // size) + ([n % size] if n % size else [])
        parts = np.concatenate([student_sample(params, rows, rng) for rows in blocks])
        assert whole.shape == (n, 3, 2)
        assert whole.tobytes() == parts.tobytes()

    def test_block_draws_as_the_chi_square_sampler(self):
        """One block's draws are the normals, then chisquare(3) variates, as
        numpy's Generator draws them."""
        params = ProposalParams(np.array([[0.25, -0.5], [1.0, 2.0]]), tau=0.7)
        got = student_sample(params, 20, seeded_rng(31, 0))
        rng = seeded_rng(31, 0)
        g = rng.standard_normal((20, 2, 2))
        w = rng.chisquare(3, size=(20, 2, 1))
        expected = params.locations + math.sqrt(2.0) * 0.7 * g / np.sqrt(w / 3.0)
        assert got.tobytes() == expected.tobytes()


class TestStudentSampler:
    def test_empirical_mean(self):
        params = ProposalParams(np.zeros((1, 1)), tau=1.0)
        rng = seeded_rng(23, 0)
        draws = student_sample(params, 100_000, rng)[:, 0, 0]
        assert abs(draws.mean()) <= 0.02

    def test_cdf_against_analytic(self):
        # (x - loc) / (sqrt(2) tau) is a standard 3-dof variable in d=1
        tau = 0.9
        params = ProposalParams(np.array([[0.5]]), tau=tau)
        rng = seeded_rng(24, 0)
        draws = student_sample(params, 100_000, rng)[:, 0, 0]
        z = (draws - 0.5) / (math.sqrt(2) * tau)
        for q in (0.5, 1.0, 2.0):
            emp = (z <= q).mean()
            assert abs(emp - stats.t.cdf(q, df=3)) <= 0.01

    def test_kolmogorov_smirnov_sampler_density_consistency(self):
        params = ProposalParams(np.zeros((1, 1)), tau=1.3)
        rng = seeded_rng(25, 0)
        draws = student_sample(params, 100_000, rng)[:, 0, 0]
        ks = stats.kstest(draws / (math.sqrt(2) * 1.3), lambda x: stats.t.cdf(x, df=3))
        assert ks.statistic <= 0.01

    def test_scale_family_iqr(self):
        rng1, rng2 = seeded_rng(26, 0), seeded_rng(26, 0)
        big = ProposalParams(np.zeros((1, 1)), tau=1.0)
        small = ProposalParams(np.zeros((1, 1)), tau=0.1)
        a = student_sample(big, 20_000, rng1)[:, 0, 0]
        b = student_sample(small, 20_000, rng2)[:, 0, 0]
        iqr = lambda v: np.subtract(*np.percentile(v, [75, 25]))
        assert iqr(b) == pytest.approx(iqr(a) / 10, rel=1e-9)

    def test_independent_blocks(self):
        params = ProposalParams(np.array([[0.0, 0.0], [5.0, 5.0]]), tau=0.5)
        rng = seeded_rng(27, 0)
        c = student_sample(params, 20_000, rng)
        assert c.shape == (20_000, 2, 2)
        # each block is centred on its own location and uncorrelated with the other
        np.testing.assert_allclose(np.median(c, axis=0), params.locations, atol=0.02)
        assert abs(np.corrcoef(c[:, 0, 0], c[:, 1, 0])[0, 1]) <= 0.03


class TestProposalScale:
    def test_reference_values(self):
        assert proposal_scale(20, 5) == pytest.approx(0.1, rel=0, abs=0)
        assert proposal_scale(1, 1) == 1.0
        assert proposal_scale(4, 4) == 0.25

    def test_first_step_mapping(self):
        assert proposal_scale(9, 0) == proposal_scale(9, 1) == 1 / 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            proposal_scale(0, 1)
        with pytest.raises(ValueError):
            proposal_scale(3, -1)


class TestKMeansFit:
    def test_single_cluster_is_centroid(self):
        rng = seeded_rng(31, 0)
        x = rng.standard_normal((40, 2))
        fit = kmeans_fit(x, 1, KMeansConfig(), seeded_rng(31, 1))
        np.testing.assert_allclose(fit[0], x.mean(axis=0), rtol=1e-9)

    def test_k_equals_distinct_points_zero_loss(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        x = np.repeat(pts, 5, axis=0)
        fit = kmeans_fit(x, 3, KMeansConfig(), seeded_rng(32, 0))
        assert within_cluster_loss(fit, x) == pytest.approx(0.0, abs=1e-20)

    def test_two_well_separated_points_d1(self):
        x = np.array([[-1.0], [1.0]] * 10)
        fit = kmeans_fit(x, 2, KMeansConfig(), seeded_rng(33, 0))
        got = sorted(fit[:, 0].tolist())
        assert got == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_brute_force_two_partitions_d1(self):
        # optimal 2-means on a line can be found by scanning split points
        rng = seeded_rng(34, 0)
        x = np.sort(rng.standard_normal(12)).reshape(-1, 1)
        best = math.inf
        for cut in range(1, 12):
            left, right = x[:cut], x[cut:]
            loss = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
            best = min(best, loss)
        fit = kmeans_fit(x, 2, KMeansConfig(restarts=20), seeded_rng(34, 1))
        assert within_cluster_loss(fit, x) == pytest.approx(best, rel=1e-9)

    def test_pads_when_fewer_points_than_centers(self):
        x = np.array([[2.0, 3.0]])
        fit = kmeans_fit(x, 4, KMeansConfig(), seeded_rng(35, 0), pad_jitter=1e-6)
        assert fit.shape == (4, 2)
        assert np.all(np.isfinite(fit))
        assert np.abs(fit - np.array([2.0, 3.0])).max() < 1e-4

    def test_empty_data_returns_jittered_origin(self):
        fit = kmeans_fit(np.zeros((0, 2)), 3, KMeansConfig(), seeded_rng(36, 0))
        assert fit.shape == (3, 2) and np.abs(fit).max() < 1e-4

    @pytest.mark.parametrize("n", [0, 2, 30])  # padded from nothing, padded, Lloyd
    def test_returns_read_only_array(self, n):
        x = seeded_rng(37, n).standard_normal((n, 2))
        fit = kmeans_fit(x, 3, KMeansConfig(), seeded_rng(37, 0))
        assert isinstance(fit, np.ndarray) and fit.shape == (3, 2)
        assert not fit.flags.writeable
        with pytest.raises(ValueError):
            fit[0, 0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_data(self, bad):
        x = seeded_rng(38, 0).standard_normal((10, 2))
        x[4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            kmeans_fit(x, 2, KMeansConfig(), seeded_rng(38, 1))

    @pytest.mark.parametrize("n", [0, 2, 30])  # padded from nothing, padded, cold Lloyd
    def test_cold_or_padded_fit_without_rng_is_refused(self, n):
        x = seeded_rng(40, n).standard_normal((n, 2))
        starts = np.zeros((3, 2)) if n < 3 else None  # padding ignores the starts
        with pytest.raises(ValueError, match="a cold or padded k-means fit needs rng"):
            kmeans_fit(x, 3, KMeansConfig(), None, extra_init=starts)

    def test_fit_from_starts_alone_draws_no_random_numbers(self):
        rng = seeded_rng(41, 0)
        x = rng.standard_normal((50, 2)) + 4 * rng.integers(0, 3, size=(50, 1))
        starts = rng.standard_normal((2, 3, 2))
        before = np.random.get_state()[1].copy()
        fit = kmeans_fit(x, 3, KMeansConfig(), None, extra_init=starts)
        assert np.array_equal(np.random.get_state()[1], before)
        # the bytes the fitter gave when the first start was a separate warm= argument
        assert hashlib.sha1(fit.tobytes()).hexdigest() == "a1e90b524e6d22e0cba25cc7ae34eb3dd6dfcb34"
        same = kmeans_fit(x, 3, KMeansConfig(restarts=7), None, extra_init=list(starts))
        assert same.tobytes() == fit.tobytes()  # restarts count only k-means++ seedings

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 2, 2), (1, 1, 3, 2)])
    def test_rejects_starts_of_another_shape(self, shape):
        x = seeded_rng(42, 0).standard_normal((10, 2))
        with pytest.raises(ValueError, match=r"extra_init must be a \(k, d\) or \(m, k, d\)"):
            kmeans_fit(x, 3, KMeansConfig(), None, extra_init=np.zeros(shape))

    def test_rejects_one_dimensional_data(self):
        with pytest.raises(ValueError, match=r"\(n, d\) array"):
            kmeans_fit(np.arange(5.0), 2, KMeansConfig(), seeded_rng(40, 0))

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_k_below_one(self, k):
        x = seeded_rng(39, 0).standard_normal((10, 2))
        with pytest.raises(ValueError, match="k must be >= 1"):
            kmeans_fit(x, k, KMeansConfig(), seeded_rng(39, 1))


class TestStepProposals:
    def _props(self, x, tau=0.2, p=6):
        return StepProposals(
            x,
            tau=tau,
            max_clusters=p,
            kmeans_cfg=KMeansConfig(),
            rng_for_k=lambda k: seeded_rng(40, (0, k)),
            jitter_scale=1.0,
        )

    def test_fitted_loss_non_increasing_in_k(self):
        rng = seeded_rng(41, 0)
        x = np.concatenate(
            [rng.standard_normal((15, 2)) + mu for mu in ([0, 0], [4, 0], [0, 4])]
        )
        props = self._props(x)
        losses = [within_cluster_loss(props.params(k).locations, x) for k in range(1, 7)]
        assert all(a >= b - 1e-9 for a, b in zip(losses, losses[1:]))

    def test_locations_cached_and_stable(self):
        rng = seeded_rng(42, 0)
        x = rng.standard_normal((30, 2))
        props = self._props(x)
        first = props.params(3).locations
        again = props.params(3).locations
        assert first is again

    def test_order_independence_of_fits(self):
        rng = seeded_rng(43, 0)
        x = rng.standard_normal((25, 2))
        a = self._props(x)
        b = self._props(x)
        a.params(4)  # ascending internally
        np.testing.assert_array_equal(a.params(2).locations, b.params(2).locations)
        np.testing.assert_array_equal(a.params(4).locations, b.params(4).locations)

    def test_params_carry_tau(self):
        x = seeded_rng(44, 0).standard_normal((10, 2))
        props = self._props(x, tau=0.05)
        params = props.params(2)
        assert params.tau == 0.05 and params.k == 2

    def test_k_out_of_range(self):
        props = self._props(seeded_rng(45, 0).standard_normal((10, 2)), p=3)
        with pytest.raises(ValueError):
            props.params(4)


class TestWarmStarts:
    """StepProposals over a growing stream, each step seeded from the
    latest fit of each k made at an earlier step."""

    @staticmethod
    def _stream(seed, n=60):
        rng = seeded_rng(seed, 0)
        groups = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
        return groups[rng.integers(0, 4, size=n)] + rng.standard_normal((n, 2))

    @staticmethod
    def _props(x, fits, asked=None, p=6):
        def rng_for_k(k):
            if asked is not None:
                asked.append(k)
            return seeded_rng(46, (len(x), k))

        return StepProposals(
            x, tau=0.1, max_clusters=p, kmeans_cfg=KMeansConfig(restarts=4),
            rng_for_k=rng_for_k, earlier_fits=fits,
        )

    def test_warm_fit_loss_at_most_its_start_and_non_increasing_in_k(self):
        x = self._stream(47)
        fits, warm_fits = {}, 0
        for t in range(1, x.shape[0] + 1):
            starts = dict(fits)
            props = self._props(x[:t], fits)
            top = 1 + t % 6  # the visited k vary from step to step
            losses = [within_cluster_loss(props.params(k).locations, x[:t]) for k in range(1, top + 1)]
            assert all(a >= b for a, b in zip(losses, losses[1:]))
            for k, loss in enumerate(losses, start=1):
                if k in starts and k <= t:
                    warm_fits += 1
                    assert loss <= within_cluster_loss(starts[k], x[:t])
        assert warm_fits > 100

    def test_fit_from_two_or_more_steps_back_is_the_warm_start(self):
        x = self._stream(48)
        fits = {}
        self._props(x[:30], fits).params(4)
        first = fits[4]
        for t in (31, 32):  # k = 4 is not visited at these steps
            self._props(x[:t], fits).params(2)
        assert fits[4] is first
        asked = []
        props = self._props(x[:33], fits, asked)
        got = props.params(4).locations
        assert asked == []  # every k had an earlier fit: no k-means++ stream is built
        split = props.params(3).locations
        far = x[:33][((x[:33, None, :] - split[None]) ** 2).sum(axis=2).min(axis=1).argmax()]
        expected = kmeans_fit(
            x[:33], 4, KMeansConfig(restarts=4), None,
            extra_init=[first, np.concatenate([split, far[None]])],
        )
        np.testing.assert_array_equal(got, expected)
        assert fits[4] is got

    def test_cold_for_a_new_k_and_for_k_above_the_point_count(self):
        x = self._stream(49)
        fits = {}
        self._props(x[:2], fits).params(3)  # k = 3 padded from two points
        asked = []
        self._props(x[:3], fits, asked).params(5)
        assert asked == [4, 5]  # k = 3 starts warm; 4 and 5 are new or exceed t

    def test_empty_earlier_fits_equal_no_earlier_fits(self):
        x = self._stream(50)[:40]
        fits = {}
        cold, fresh = self._props(x, None), self._props(x, fits)
        for k in range(1, 7):
            assert cold.params(k).locations.tobytes() == fresh.params(k).locations.tobytes()
            assert fits[k] is fresh.params(k).locations


def kmeans_digests(dim: int):
    """SHA-1 of the bytes of every fit in a fixed batch of d-dimensional
    k-means problems: (``kmeans_fit`` digest, ``StepProposals`` digest)."""
    fits, steps = hashlib.sha1(), hashlib.sha1()
    for i, n in enumerate((0, 2, 9, 12, 40, 120)):
        rng = seeded_rng(60 + dim, i)
        groups = rng.uniform(-8, 8, size=(4, dim))
        x = groups[rng.integers(0, 4, size=n)] + rng.standard_normal((n, dim))
        if n == 12:
            x = np.repeat(x[:4], 3, axis=0)  # 4 distinct points: k = 7 leaves clusters empty
        elif n >= 9:  # repeated points
            x[n // 3 :: 3] = x[0]
        for k in (1, 2, 3, 7):
            fit = kmeans_fit(x, k, KMeansConfig(restarts=4), seeded_rng(70 + dim, (i, k)))
            fits.update(fit.tobytes())
        props = StepProposals(
            x, tau=0.1, max_clusters=6, kmeans_cfg=KMeansConfig(restarts=3),
            rng_for_k=lambda k, _i=i: seeded_rng(80 + dim, (_i, k)),
        )
        for k in range(1, 7):
            steps.update(props.params(k).locations.tobytes())
    return fits.hexdigest(), steps.hexdigest()


# recorded before k-means shared the score's squared-distance kernel
KMEANS_GOLDEN = {
    1: ("60dc4215d22d61abbbb699cef42510455609eedb", "469a3d5309e6a81b77acd023d5aa49ba08ab61ef"),
    2: ("a592b92e6172dde46e95779b99ab0dcfd0704da8", "241717c5280f0b3f9170e81dc0f32881b0bb49b5"),
    3: ("45f5fc8cca4c52263d2893ba5cda1ddd7405edbf", "77ea4f565c5400948cc7ff8b9d84c52df5f7df4e"),
    5: ("c39a0ce6a0b9e01c78bd75933224806adf20cb86", "b81bde74d6ac8056c2070706e61a73b1b251bf61"),
}


class TestKMeansGolden:
    """k-means outputs are bit-identical to the fitter's earlier
    (n, k, d)-broadcast implementation."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_fits_unchanged(self, dim):
        assert kmeans_digests(dim) == KMEANS_GOLDEN[dim]


def reference_lloyd(x, xt, centers, max_iter, tol):
    """``proposals._lloyd`` before it stopped restarts at stable labels and
    summed clusters by ``np.bincount``: the reference its stop rule and its
    cluster sums (an einsum over a one-hot) are checked against."""
    restarts, k, _ = centers.shape
    prev = np.full(restarts, np.inf)
    eye = np.eye(k, dtype=bool)
    for _ in range(max_iter):
        d2 = sq_dists(centers, xt)  # (r, k, n)
        labels = d2.argmin(axis=1)
        point_loss = d2.min(axis=1)
        loss = point_loss.sum(axis=1)
        onehot = eye[labels]  # (r, n, k)
        counts = onehot.sum(axis=1)  # (r, k)
        sums = np.einsum("rnk,nd->rkd", onehot.astype(float), x)
        new_centers = np.where(
            counts[:, :, None] > 0, sums / np.maximum(counts, 1)[:, :, None], centers
        )
        for r in np.nonzero((counts == 0).any(axis=1))[0]:
            empty = np.nonzero(counts[r] == 0)[0]
            farthest = np.argsort(point_loss[r])[::-1][: empty.size]
            new_centers[r, empty] = x[farthest]
        done = loss >= prev * (1.0 - tol)
        centers = np.where(done[:, None, None], centers, new_centers)
        if done.all():
            break
        prev = loss
    return centers, nearest_sq_dist(centers, xt).sum(axis=1)


def lloyd_case(i):
    """Case i of a seeded batch of Lloyd problems: (x, xt, centers, max_iter,
    tol) with d = 1..5, n >= k, 1-4 restarts, tied points, far centers."""
    rng = seeded_rng(90, i)
    d, r = 1 + i % 5, 1 + (i // 5) % 4
    k = int(rng.integers(1, 7))
    n = int(rng.integers(k, 45))
    groups = rng.uniform(-6, 6, size=(3, d))
    x = groups[rng.integers(0, 3, size=n)] + rng.standard_normal((n, d))
    if i % 3 == 1:  # rounded and duplicated points: tied distances
        x = np.round(x)
        x[n // 2 :] = x[: n - n // 2]
    centers = x[rng.integers(0, n, size=(r, k))] + (i % 2) * rng.standard_normal((r, k, d))
    if i % 4 == 0:  # a center nothing is nearest to: its cluster goes empty
        centers[:, -1] = 1e3
    tol = (0.0, 1e-8, 1e-3, 0.5)[(i // 7) % 4]
    max_iter = (1, 2, 3, 100)[(i // 11) % 4]
    return x, np.ascontiguousarray(x.T), centers, max_iter, tol


def stream_lloyd_case(i):
    """Case i of a seeded batch of Lloyd problems at the sizes a stream's
    proposal fits reach: (x, xt, centers) with n = 45..250, k = 1..12,
    d = 1..3 and 1-2 restarts, tied points and far centers; a quarter of
    the cases are k = 1, at every d and restart count."""
    rng = seeded_rng(92, i)
    d, r = 1 + i % 3, 1 + (i // 3) % 2
    k = 1 if (i // 6) % 4 == 0 else int(rng.integers(2, 13))
    n = int(rng.integers(45, 251))
    groups = rng.uniform(-8, 8, size=(8, d))
    x = groups[rng.integers(0, 8, size=n)] + rng.standard_normal((n, d))
    if i % 5 == 1:  # rounded and duplicated points: tied distances
        x = np.round(x)
        x[n // 2 :] = x[: n - n // 2]
    centers = x[rng.integers(0, n, size=(r, k))] + (i % 2) * rng.standard_normal((r, k, d))
    if i % 7 == 0:  # a center nothing is nearest to: its cluster goes empty
        centers[:, -1] = 1e3
    return x, np.ascontiguousarray(x.T), centers


class TestLloydStopRule:
    """``_lloyd`` stops a restart once its labels settle; the fits and
    losses are bit for bit those of the loop that ran on to the tol test.
    Its stop rules are module constants, set here through monkeypatch."""

    def test_same_bits_as_the_reference_loop(self, monkeypatch):
        for i in range(600):
            x, xt, centers, max_iter, tol = lloyd_case(i)
            monkeypatch.setattr(proposals, "_TOL", tol)
            monkeypatch.setattr(proposals, "_MAX_ITER", max_iter)
            got = proposals._lloyd(x, xt, centers)
            ref = reference_lloyd(x, xt, centers, max_iter, tol)
            assert got[0].tobytes() == ref[0].tobytes(), i
            assert got[1].tobytes() == ref[1].tobytes(), i

    def test_same_bits_as_the_reference_loop_at_stream_sizes(self):
        # the cluster sums add each cluster's points in point order, as the
        # reference's einsum does for k > 1; at k = 1, d = 1 the einsum sums
        # in SIMD partial sums, which long clusters tell apart
        assert (proposals._MAX_ITER, proposals._TOL) == (100, 1e-8)
        for i in range(600):
            x, xt, centers = stream_lloyd_case(i)
            got = proposals._lloyd(x, xt, centers)
            ref = reference_lloyd(x, xt, centers, 100, 1e-8)
            assert got[0].tobytes() == ref[0].tobytes(), i
            assert got[1].tobytes() == ref[1].tobytes(), i

    @staticmethod
    def count_passes(monkeypatch, module, run):
        """Distance passes (``sq_dists``) and final rescorings
        (``nearest_sq_dist``) that ``run()`` makes through ``module``."""
        calls = {"sq_dists": 0, "nearest_sq_dist": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(module, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        run()
        monkeypatch.undo()
        return calls

    @pytest.mark.parametrize("shift, reference_passes", [(0.0, 2), (0.01, 3)])
    def test_a_start_at_its_fixed_point_labels_takes_two_passes(
        self, shift, reference_passes, monkeypatch
    ):
        # shift 0: the fit's own converged result; 0.01: the same labels but
        # centers off their means, so the loss test stops the reference loop
        # one pass after the labels settle
        rng = seeded_rng(91, 0)
        x = rng.uniform(-8, 8, size=(4, 2))[rng.integers(0, 4, size=80)]
        x += 0.3 * rng.standard_normal(x.shape)
        xt = np.ascontiguousarray(x.T)
        assert (proposals._MAX_ITER, proposals._TOL) == (100, 1e-8)
        fit, _ = proposals._lloyd(x, xt, x[None, :4].copy())
        start = fit + shift
        new = self.count_passes(monkeypatch, proposals,
                                lambda: proposals._lloyd(x, xt, start))
        old = self.count_passes(monkeypatch, sys.modules[__name__],
                                lambda: reference_lloyd(x, xt, start, 100, 1e-8))
        assert new == {"sq_dists": 2, "nearest_sq_dist": 0}
        assert old == {"sq_dists": reference_passes, "nearest_sq_dist": 1}

    def test_only_running_out_of_passes_rescores(self, monkeypatch):
        x, xt, centers, _, _ = lloyd_case(5)
        monkeypatch.setattr(proposals, "_TOL", 0.0)
        monkeypatch.setattr(proposals, "_MAX_ITER", 1)
        calls = self.count_passes(monkeypatch, proposals,
                                  lambda: proposals._lloyd(x, xt, centers))
        assert calls == {"sq_dists": 1, "nearest_sq_dist": 1}
