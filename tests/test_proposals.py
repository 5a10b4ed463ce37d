import math

import numpy as np
import pytest
from scipy import integrate, stats

from jumpclust.core import Centers, KMeansConfig, seeded_rng
from jumpclust.proposals import (
    ProposalParams,
    StepProposals,
    kmeans_fit,
    proposal_scale,
    student_log_density,
    student_sample,
    within_cluster_loss,
)


class TestStudentDensity:
    def test_mode_value_d1(self):
        params = ProposalParams(np.zeros((1, 1)), tau=1.0)
        got = student_log_density(Centers([[0.0]]), params)
        assert got == pytest.approx(math.log(2 / (math.pi * math.sqrt(6))), rel=1e-12)

    def test_radial_symmetry(self):
        rng = seeded_rng(21, 0)
        loc = rng.standard_normal((3, 2))
        params = ProposalParams(loc, tau=0.7)
        v = rng.standard_normal((3, 2))
        assert student_log_density(Centers(loc + v), params) == pytest.approx(
            student_log_density(Centers(loc - v), params), rel=1e-12
        )

    def test_d1_quadrature_normalization(self):
        params = ProposalParams(np.array([[0.3]]), tau=0.5)

        def dens(x):
            return math.exp(student_log_density(Centers([[x]]), params))

        val, _ = integrate.quad(dens, -np.inf, np.inf, limit=400)
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_d2_monte_carlo_normalization(self):
        # importance-sample with scipy's own implementation of the same law
        loc = np.array([[0.4, -0.2]])
        tau = 0.8
        params = ProposalParams(loc, tau=tau)
        ref = stats.multivariate_t(loc=loc[0], shape=2 * tau**2 * np.eye(2), df=3)
        draws = ref.rvs(size=50_000, random_state=np.random.default_rng(4))
        ours = np.array(
            [student_log_density(Centers([d]), params) for d in draws[:2000]]
        )
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
        assert student_log_density(Centers(pts), params) == pytest.approx(sum(blocks), rel=1e-12)

    def test_shape_mismatch(self):
        params = ProposalParams(np.zeros((2, 2)), tau=1.0)
        with pytest.raises(ValueError):
            student_log_density(Centers([[0.0, 0.0]]), params)


class TestStudentSampler:
    def test_empirical_mean(self):
        params = ProposalParams(np.zeros((1, 1)), tau=1.0)
        rng = seeded_rng(23, 0)
        draws = np.array([student_sample(params, rng)[0, 0] for _ in range(100_000)])
        assert abs(draws.mean()) <= 0.02

    def test_cdf_against_analytic(self):
        # (x - loc) / (sqrt(2) tau) is a standard 3-dof variable in d=1
        tau = 0.9
        params = ProposalParams(np.array([[0.5]]), tau=tau)
        rng = seeded_rng(24, 0)
        draws = np.array([student_sample(params, rng)[0, 0] for _ in range(100_000)])
        z = (draws - 0.5) / (math.sqrt(2) * tau)
        for q in (0.5, 1.0, 2.0):
            emp = (z <= q).mean()
            assert abs(emp - stats.t.cdf(q, df=3)) <= 0.01

    def test_kolmogorov_smirnov_sampler_density_consistency(self):
        params = ProposalParams(np.zeros((1, 1)), tau=1.3)
        rng = seeded_rng(25, 0)
        draws = np.array([student_sample(params, rng)[0, 0] for _ in range(100_000)])
        ks = stats.kstest(draws / (math.sqrt(2) * 1.3), lambda x: stats.t.cdf(x, df=3))
        assert ks.statistic <= 0.01

    def test_scale_family_iqr(self):
        rng1, rng2 = seeded_rng(26, 0), seeded_rng(26, 0)
        big = ProposalParams(np.zeros((1, 1)), tau=1.0)
        small = ProposalParams(np.zeros((1, 1)), tau=0.1)
        a = np.array([student_sample(big, rng1)[0, 0] for _ in range(20_000)])
        b = np.array([student_sample(small, rng2)[0, 0] for _ in range(20_000)])
        iqr = lambda v: np.subtract(*np.percentile(v, [75, 25]))
        assert iqr(b) == pytest.approx(iqr(a) / 10, rel=1e-9)

    def test_independent_blocks(self):
        params = ProposalParams(np.array([[0.0, 0.0], [5.0, 5.0]]), tau=0.5)
        rng = seeded_rng(27, 0)
        c = student_sample(params, rng)
        assert c.shape == (2, 2)


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
        np.testing.assert_allclose(fit.points[0], x.mean(axis=0), rtol=1e-9)

    def test_k_equals_distinct_points_zero_loss(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        x = np.repeat(pts, 5, axis=0)
        fit = kmeans_fit(x, 3, KMeansConfig(), seeded_rng(32, 0))
        assert within_cluster_loss(fit.points, x) == pytest.approx(0.0, abs=1e-20)

    def test_two_well_separated_points_d1(self):
        x = np.array([[-1.0], [1.0]] * 10)
        fit = kmeans_fit(x, 2, KMeansConfig(), seeded_rng(33, 0))
        got = sorted(fit.points[:, 0].tolist())
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
        assert within_cluster_loss(fit.points, x) == pytest.approx(best, rel=1e-9)

    def test_pads_when_fewer_points_than_centers(self):
        x = np.array([[2.0, 3.0]])
        fit = kmeans_fit(x, 4, KMeansConfig(), seeded_rng(35, 0), pad_jitter=1e-6)
        assert fit.k == 4
        assert np.all(np.isfinite(fit.points))
        assert np.abs(fit.points - np.array([2.0, 3.0])).max() < 1e-4

    def test_empty_data_returns_jittered_origin(self):
        fit = kmeans_fit(np.zeros((0, 2)), 3, KMeansConfig(), seeded_rng(36, 0))
        assert fit.k == 3 and np.abs(fit.points).max() < 1e-4


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
        losses = [props.fitted_loss(k) for k in range(1, 7)]
        assert all(a >= b - 1e-9 for a, b in zip(losses, losses[1:]))

    def test_locations_cached_and_stable(self):
        rng = seeded_rng(42, 0)
        x = rng.standard_normal((30, 2))
        props = self._props(x)
        first = props.locations(3)
        again = props.locations(3)
        assert first is again

    def test_order_independence_of_fits(self):
        rng = seeded_rng(43, 0)
        x = rng.standard_normal((25, 2))
        a = self._props(x)
        b = self._props(x)
        a.locations(4)  # ascending internally
        np.testing.assert_array_equal(a.locations(2), b.locations(2))
        np.testing.assert_array_equal(a.locations(4), b.locations(4))

    def test_params_carry_tau(self):
        x = seeded_rng(44, 0).standard_normal((10, 2))
        props = self._props(x, tau=0.05)
        params = props.params(2)
        assert params.tau == 0.05 and params.k == 2

    def test_k_out_of_range(self):
        props = self._props(seeded_rng(45, 0).standard_normal((10, 2)), p=3)
        with pytest.raises(ValueError):
            props.locations(4)
