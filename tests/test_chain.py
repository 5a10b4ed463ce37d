import math

import numpy as np
import pytest

from jumpclust.chain import (
    ChainState,
    ChainTrace,
    acceptance_log_prob,
    initial_state,
    propose_dimension,
    run_chain,
    step,
)
from jumpclust.core import Centers, KMeansConfig, clip_to_ball, seeded_rng
from jumpclust.posterior import TargetDensity, grid_oracle, log_target
from jumpclust.priors import PriorSpec
from jumpclust.proposals import ProposalParams, StepProposals, proposal_scale, student_log_density
from jumpclust.scoring import ScoreContext


def toy_target(dim=1, p=3, radius=1.0, decay=0.3, lam=0.8660254037844386):
    """Three close observations in d=1: posterior blocks overlap enough for
    the sampler to exchange center orderings within a few thousand moves."""
    prior = PriorSpec(kind="uniform", dim=dim, max_clusters=p, radius=radius, decay=decay)
    xs = np.array([[-0.3], [0.05], [0.4]]) if dim == 1 else np.array([[-0.3, 0.1], [0.05, -0.15], [0.4, 0.2]])
    ctx = ScoreContext(xs, np.array([0.1, 0.1, 0.1]), np.array([1.0, 1.5, 1.0606601717798212]))
    return TargetDensity(lam, ctx, prior)


def toy_proposals(tgt, seed=5):
    t_obs = tgt.ctx.t
    return StepProposals(
        tgt.ctx.observations,
        tau=proposal_scale(tgt.prior.max_clusters, t_obs + 1),
        max_clusters=tgt.prior.max_clusters,
        kmeans_cfg=KMeansConfig(),
        rng_for_k=lambda k: seeded_rng(seed, (3, k)),
        jitter_scale=tgt.prior.radius,
    )


class TestProposeDimension:
    def test_interior_frequencies(self):
        rng = seeded_rng(50, 0)
        draws = np.array([propose_dimension(2, 5, rng) for _ in range(100_000)])
        for v in (1, 2, 3):
            assert abs((draws == v).mean() - 1 / 3) <= 0.01

    def test_lower_boundary_self_transition(self):
        rng = seeded_rng(51, 0)
        draws = np.array([propose_dimension(1, 5, rng) for _ in range(100_000)])
        assert set(np.unique(draws)) == {1, 2}
        assert abs((draws == 1).mean() - 2 / 3) <= 0.01

    def test_upper_boundary_self_transition(self):
        rng = seeded_rng(52, 0)
        draws = np.array([propose_dimension(4, 4, rng) for _ in range(50_000)])
        assert set(np.unique(draws)) == {3, 4}
        assert abs((draws == 4).mean() - 2 / 3) <= 0.015

    def test_single_dimension(self):
        rng = seeded_rng(53, 0)
        assert all(propose_dimension(1, 1, rng) == 1 for _ in range(100))


class TestAcceptance:
    def test_identical_proposal_accepted_surely(self):
        tgt = toy_target()
        props = toy_proposals(tgt)
        state = initial_state(2, tgt, props)
        la = acceptance_log_prob(
            state, state.centers, state.log_density, tgt, props.params(2), props.params(2)
        )
        assert la == 0.0

    def test_outside_support_never_accepted(self):
        tgt = toy_target()
        props = toy_proposals(tgt)
        state = initial_state(1, tgt, props)
        bad = Centers([[2.5]])
        la = acceptance_log_prob(
            state, bad, log_target(bad, tgt), tgt, props.params(1), props.params(1)
        )
        assert la == -math.inf

    def test_current_state_must_be_in_support(self):
        tgt = toy_target()
        props = toy_proposals(tgt)
        dead = ChainState(Centers([[2.5]]), -math.inf)
        good = Centers([[0.0]])
        with pytest.raises(ValueError):
            acceptance_log_prob(dead, good, log_target(good, tgt), tgt, props.params(1), props.params(1))

    def test_detailed_balance_identity(self):
        # balance of the within-model ratio: for in-support states a, b,
        # log a(a->b) + log t(a) + log rho(b) == log a(b->a) + log t(b) + log rho(a)
        tgt = toy_target()
        props = toy_proposals(tgt)
        rng = seeded_rng(54, 0)
        worst = 0.0
        for _ in range(1000):
            k = int(rng.integers(1, 4))
            params = props.params(k)
            a = Centers(rng.uniform(-2, 2, size=(k, 1)))
            b = Centers(rng.uniform(-2, 2, size=(k, 1)))
            sa = ChainState(a, log_target(a, tgt))
            sb = ChainState(b, log_target(b, tgt))
            lab = acceptance_log_prob(sa, b, sb.log_density, tgt, params, params)
            lba = acceptance_log_prob(sb, a, sa.log_density, tgt, params, params)
            lhs = lab + sa.log_density + student_log_density(b, params)
            rhs = lba + sb.log_density + student_log_density(a, params)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
        assert worst <= 1e-9

    def test_matches_normalized_oracle_ratio_within_model(self):
        # the oracle's normalized density ratio equals the raw target ratio
        # (the normalizer cancels), so alpha can be cross-checked through it
        tgt = toy_target()
        props = toy_proposals(tgt)
        params = props.params(2)
        a = Centers([[-0.8], [0.9]])
        b = Centers([[-0.6], [1.0]])
        sa = ChainState(a, log_target(a, tgt))
        la = acceptance_log_prob(sa, b, log_target(b, tgt), tgt, params, params)
        dens_ratio = log_target(b, tgt) - log_target(a, tgt)
        prop_ratio = student_log_density(a, params) - student_log_density(b, params)
        assert la == pytest.approx(min(0.0, dens_ratio + prop_ratio), abs=1e-12)


class TestStepAndChain:
    def test_rejected_step_leaves_state_bit_identical(self):
        tgt = toy_target(lam=50.0)  # cold target: most moves rejected
        props = toy_proposals(tgt)
        state = initial_state(1, tgt, props)
        rng = seeded_rng(55, 0)
        saw_rejection = False
        for _ in range(50):
            new, (_, _, accepted) = step(state, tgt, props, rng)
            if not accepted:
                saw_rejection = True
                assert new.centers is state.centers
                assert new.log_density == state.log_density
            state = new
        assert saw_rejection

    def test_trace_contract(self):
        tgt = toy_target()
        props = toy_proposals(tgt)
        state = initial_state(1, tgt, props)
        final, trace = run_chain(state, 300, tgt, props, seeded_rng(56, 0))
        assert len(trace) == 300
        assert np.all((trace.alpha >= 0) & (trace.alpha <= 1))
        assert np.all((trace.k_current >= 1) & (trace.k_current <= 3))
        assert final.n == 300

    def test_single_step_chain_equals_step(self):
        tgt = toy_target()
        props = toy_proposals(tgt)
        state = initial_state(1, tgt, props)
        final_a, trace = run_chain(state, 1, tgt, props, seeded_rng(57, 0))
        final_b, _ = step(state, tgt, props, seeded_rng(57, 0))
        assert final_a.centers == final_b.centers

    def test_deterministic_replay(self):
        tgt = toy_target()
        props = toy_proposals(tgt)
        state = initial_state(2, tgt, props)
        f1, t1 = run_chain(state, 200, tgt, props, seeded_rng(58, 0))
        f2, t2 = run_chain(state, 200, tgt, props, seeded_rng(58, 0))
        assert f1.centers == f2.centers
        np.testing.assert_array_equal(t1.alpha, t2.alpha)
        np.testing.assert_array_equal(t1.k_current, t2.k_current)

    def test_chain_never_leaves_support(self):
        tgt = toy_target()
        props = toy_proposals(tgt)
        state = initial_state(1, tgt, props)
        rng = seeded_rng(59, 0)
        for _ in range(500):
            state, _ = step(state, tgt, props, rng)
            assert math.isfinite(state.log_density)

    def test_prior_target_k_marginal_uniform(self):
        # temperature 0 with a uniform count prior: long-run k-marginal is flat
        prior = PriorSpec(kind="uniform", dim=1, max_clusters=2, radius=1.0, decay=0.0)
        tgt = TargetDensity.prior_only(prior)
        props = StepProposals(
            np.zeros((0, 1)),
            tau=proposal_scale(2, 0),
            max_clusters=2,
            kmeans_cfg=KMeansConfig(),
            rng_for_k=lambda k: seeded_rng(60, (3, k)),
            jitter_scale=1.0,
        )
        state = initial_state(1, tgt, props)
        _, trace = run_chain(state, 100_000, tgt, props, seeded_rng(60, 0))
        ks = trace.k_current[2_000:]
        frac = (ks == 1).mean()
        assert abs(frac - 0.5) <= 0.02

    def test_toy_k_marginal_matches_grid_oracle(self):
        tgt = toy_target()
        props = toy_proposals(tgt)
        state = initial_state(1, tgt, props)
        _, trace = run_chain(state, 22_000, tgt, props, seeded_rng(61, 0))
        ks = trace.k_current[2_000:]
        empirical = np.bincount(ks, minlength=4)[1:] / ks.shape[0]
        oracle = grid_oracle(tgt, resolution=150)
        tv = 0.5 * np.abs(empirical - oracle.k_marginal()).sum()
        assert tv <= 0.05


class TestSupportProjection:
    def test_clip_scales_only_outside_rows(self):
        pts = np.array([[0.5, 0.0], [3.0, 4.0]])
        out = clip_to_ball(pts, 2.0)
        np.testing.assert_array_equal(out[0], pts[0])
        assert np.linalg.norm(out[1]) == pytest.approx(2.0, rel=1e-12)
        np.testing.assert_allclose(out[1] / np.linalg.norm(out[1]), [0.6, 0.8], rtol=1e-12)

    def test_infinite_radius_noop(self):
        pts = np.array([[1e6, 0.0]])
        np.testing.assert_array_equal(clip_to_ball(pts, math.inf), pts)

    def test_initial_state_projected_when_radius_small(self):
        prior = PriorSpec(kind="uniform", dim=1, max_clusters=2, radius=0.1)
        xs = np.array([[0.5], [0.6]])  # data outside B(0.2): fits must be clipped
        ctx = ScoreContext(xs, np.zeros(2), np.zeros(2))
        tgt = TargetDensity(0.5, ctx, prior)
        props = StepProposals(
            xs,
            tau=0.1,
            max_clusters=2,
            kmeans_cfg=KMeansConfig(),
            rng_for_k=lambda k: seeded_rng(62, (3, k)),
            jitter_scale=0.1,
        )
        state = initial_state(1, tgt, props)
        assert math.isfinite(state.log_density)
        assert np.abs(state.centers.points).max() <= 0.2
        # projected just inside the support ball of radius 2R
        assert np.abs(state.centers.points).max() == pytest.approx(0.2 * (1 - 1e-9), rel=1e-12)
