import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import logsumexp

from jumpclust.core import Centers, seeded_rng
from jumpclust.priors import (
    PriorSpec,
    _log_q_table,
    estimate_truncation_prob,
    log_prior,
    log_prior_batch,
    log_q,
    q_masses,
    sample_prior,
    student_block_log_norm,
)


class TestClusterCountPrior:
    def test_zero_decay_is_uniform(self):
        for k in (1, 7, 20):
            assert log_q(k, 20, 0.0) == pytest.approx(math.log(1 / 20), rel=1e-14)

    def test_hand_computed_mass(self):
        # eta=1, p=2, k=1: exp(-1)/(exp(-1)+exp(-2)) = 1/(1+exp(-1))
        assert log_q(1, 2, 1.0) == pytest.approx(math.log(1 / (1 + math.exp(-1))), rel=1e-14)

    def test_normalization(self):
        for eta in (0.0, 0.3, 2.5):
            for p in (1, 4, 33):
                total = sum(math.exp(log_q(k, p, eta)) for k in range(1, p + 1))
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_geometric_ratio(self):
        eta, p = 0.7, 9
        for k in range(1, p):
            ratio = math.exp(log_q(k + 1, p, eta) - log_q(k, p, eta))
            assert ratio == pytest.approx(math.exp(-eta), rel=1e-12)

    @pytest.mark.parametrize("eta", [0.0, 1e-3, 0.3, 1.0, 30.0, 800.0])
    def test_table_equals_scipy_logsumexp_bit_for_bit(self, eta):
        # at eta = 800 every term but the largest underflows, so the shifted sum is 0
        for p in range(1, 41):
            ks = np.arange(1, p + 1, dtype=float)
            expected = -eta * ks - logsumexp(-eta * ks)
            got = _log_q_table.__wrapped__(p, eta)  # the cache keys 0 and 0.0 alike
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            log_q(0, 5, 0.0)
        with pytest.raises(ValueError):
            log_q(6, 5, 0.0)

    def test_q_masses_matches_log_q(self):
        masses = q_masses(6, 0.4)
        for k in range(1, 7):
            assert masses[k - 1] == pytest.approx(math.exp(log_q(k, 6, 0.4)), rel=1e-12)


class TestPriorSpecValidation:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_decay_must_be_finite(self, value):
        with pytest.raises(ValueError, match="decay must be >= 0 and finite"):
            PriorSpec(kind="uniform", dim=1, max_clusters=2, radius=1.0, decay=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_scale_must_be_finite(self, value):
        with pytest.raises(ValueError, match="scale must be > 0 and finite"):
            PriorSpec(kind="student", dim=1, max_clusters=2, radius=1.0, scale=value)


def single_block_spec(kind, dim=1, radius=1.0, **kw):
    """Prior with max_clusters=1, where log q(1) = 0 and log_prior is the block density."""
    return PriorSpec(kind=kind, dim=dim, max_clusters=1, radius=radius, **kw)


class TestUniformBallPrior:
    def test_interval_density_d1(self):
        # single center on [-2, 2]: density 1/4
        c = Centers([[0.0]])
        assert log_prior(c, single_block_spec("uniform")) == pytest.approx(math.log(0.25), rel=1e-14)

    def test_outside_support(self):
        assert log_prior(Centers([[3.0]]), single_block_spec("uniform")) == -math.inf

    def test_d1_normalization_by_quadrature(self):
        spec = single_block_spec("uniform")
        val, err = integrate.quad(lambda x: math.exp(log_prior(Centers([[x]]), spec)), -2, 2)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_d2_k2_normalization_by_monte_carlo(self):
        # sample the box [-2R, 2R]^4 and average the density times box volume
        radius = 1.5
        spec = PriorSpec(kind="uniform", dim=2, max_clusters=2, radius=radius)
        rng = seeded_rng(77, 0)
        n = 200_000
        pts = rng.uniform(-2 * radius, 2 * radius, size=(n, 2, 2))
        norms2 = np.einsum("nkd,nkd->nk", pts, pts)
        inside = (norms2 <= (2 * radius) ** 2).all(axis=1)
        const = math.exp(log_prior(Centers([[0.0, 0.0], [0.0, 0.0]]), spec) - log_q(2, 2, 0.0))
        box_vol = (4 * radius) ** 4
        est = const * box_vol * inside.mean()
        stderr = const * box_vol * inside.std() / math.sqrt(n)
        assert abs(est - 1.0) <= max(3 * stderr, 1e-3)


class TestStudentPrior:
    def test_mode_density_untruncated_d1(self):
        # d=1, scale 1, no truncation: mode density 2/(pi*sqrt(6))
        spec = single_block_spec("student", radius=math.inf, scale=1.0)
        got = log_prior(Centers([[0.0]]), spec)
        assert got == pytest.approx(math.log(2 / (math.pi * math.sqrt(6))), rel=1e-12)

    def test_outside_truncation(self):
        spec = single_block_spec("student", scale=1.0)
        assert log_prior(Centers([[2.0 + 1e-9]]), spec) == -math.inf

    def test_d1_normalization_by_quadrature(self):
        radius, scale = 1.0, 0.8
        spec = single_block_spec("student", radius=radius, scale=scale)

        def dens(x):
            return math.exp(log_prior(Centers([[x]]), spec))

        val, err = integrate.quad(dens, -2 * radius, 2 * radius, limit=200)
        # budget: quadrature error plus 3x the recorded truncation MC error
        budget = max(1e-3, 3 * spec.trunc.stderr / spec.trunc.prob + 10 * err)
        assert abs(val - 1.0) <= budget

    def test_truncation_prob_matches_radial_cdf(self):
        # |X|^2 / (d * 2 tau^2) follows an F(d, 3) law for these blocks
        for dim, radius, scale in [(1, 1.0, 1.0), (2, 1.5, 0.7)]:
            est = estimate_truncation_prob(dim, radius, scale)
            exact = stats.f.cdf((2 * radius) ** 2 / (dim * 2 * scale**2), dim, 3)
            assert abs(est.prob - exact) <= 4 * est.stderr

    def test_block_norm_constant_matches_scipy(self):
        for dim, tau in [(1, 1.0), (2, 0.3), (3, 2.2)]:
            ours = student_block_log_norm(dim, tau)
            ref = stats.multivariate_t(loc=np.zeros(dim), shape=2 * tau**2 * np.eye(dim), df=3)
            assert ours == pytest.approx(ref.logpdf(np.zeros(dim)), rel=1e-12)


class TestMixturePrior:
    def _spec(self, **over):
        kw = dict(kind="uniform", dim=1, max_clusters=2, radius=1.0, decay=0.5)
        kw.update(over)
        return PriorSpec(**kw)

    def test_same_k_difference_zero_for_uniform(self):
        spec = self._spec(decay=0.0)
        a = log_prior(Centers([[0.3]]), spec)
        b = log_prior(Centers([[-1.7]]), spec)
        assert a == pytest.approx(b, rel=1e-14)

    def test_k_above_limit_rejected(self):
        spec = self._spec()
        with pytest.raises(ValueError):
            log_prior(Centers([[0.0], [0.1], [0.2]]), spec)

    def test_slice_masses_integrate_to_q(self):
        spec = self._spec()
        one, _ = integrate.quad(lambda x: math.exp(log_prior(Centers([[x]]), spec)), -2, 2)
        two, _ = integrate.dblquad(
            lambda y, x: math.exp(log_prior(Centers([[x], [y]]), spec)), -2, 2, -2, 2
        )
        assert one == pytest.approx(math.exp(log_q(1, 2, 0.5)), abs=1e-6)
        assert two == pytest.approx(math.exp(log_q(2, 2, 0.5)), abs=1e-6)

    def test_batch_matches_scipy(self):
        dim, radius, decay, scale = 2, 2.0, 0.2, 0.9
        ks = np.arange(1, 4)
        for kind in ("uniform", "student"):
            spec = self._spec(kind=kind, dim=dim, max_clusters=3, radius=radius, decay=decay,
                              scale=scale)
            for k in ks:
                stack = seeded_rng(5, int(k)).uniform(-4.5, 4.5, size=(64, k, dim))
                outside = (np.linalg.norm(stack, axis=2) > 2 * radius).any(axis=1)
                assert outside.any() and not outside.all()
                log_q_ref = -decay * k - math.log(np.exp(-decay * ks).sum())
                if kind == "student":
                    block = stats.multivariate_t(
                        loc=np.zeros(dim), shape=2 * scale**2 * np.eye(dim), df=3
                    )
                    rows = block.logpdf(stack.reshape(-1, dim)).reshape(64, k)
                    blocks = rows - math.log(spec.trunc.prob)
                else:
                    ball_volume = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1) * (2 * radius) ** dim
                    blocks = np.full((64, k), -math.log(ball_volume))
                got = log_prior_batch(stack, spec)
                assert np.array_equal(got == -math.inf, outside)
                np.testing.assert_allclose(
                    got[~outside], log_q_ref + blocks[~outside].sum(axis=1), rtol=1e-12
                )


class TestSamplePrior:
    def test_k_marginal_matches_q(self):
        spec = PriorSpec(kind="uniform", dim=2, max_clusters=4, radius=1.0, decay=0.6)
        rng = seeded_rng(101, 0)
        draws = np.array([sample_prior(spec, rng).k for _ in range(20_000)])
        freq = np.bincount(draws, minlength=5)[1:] / draws.size
        np.testing.assert_allclose(freq, q_masses(4, 0.6), atol=0.015)

    def test_uniform_draws_inside_support_and_uniform_radius(self):
        spec = PriorSpec(kind="uniform", dim=2, max_clusters=1, radius=1.0)
        rng = seeded_rng(102, 0)
        pts = np.vstack([sample_prior(spec, rng).points for _ in range(5_000)])
        norms = np.linalg.norm(pts, axis=1)
        assert norms.max() <= 2.0
        # in d=2 the squared radius of a uniform ball draw is uniform on [0, (2R)^2]
        ks = stats.kstest(norms**2 / 4.0, "uniform")
        assert ks.statistic <= 0.02

    def test_student_draws_inside_support(self):
        spec = PriorSpec(kind="student", dim=1, max_clusters=3, radius=0.5, scale=1.0)
        rng = seeded_rng(103, 0)
        for _ in range(200):
            c = sample_prior(spec, rng)
            assert np.all(np.abs(c.points) <= 1.0)
