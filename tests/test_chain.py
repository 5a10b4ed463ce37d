import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from jumpclust import chain, cli
from jumpclust.chain import (
    CandidateSupply,
    ChainState,
    acceptance_log_prob,
    initial_state,
    run_chain,
    step,
)
from jumpclust.core import Centers, KMeansConfig, StreamConfig, clip_to_ball, seeded_rng
from jumpclust.datagen import SyntheticSpec, generate
from jumpclust.online import lambda_at, variance_weight
from jumpclust.posterior import TargetDensity, grid_oracle, log_target
from jumpclust.priors import PriorSpec
from jumpclust.proposals import StepProposals, proposal_scale, student_log_density, student_sample
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


def flat_prior_moves(p, n, seed):
    """(k before each move, proposed k', alpha, accepted) of an n-move chain on
    the flat prior over p slices."""
    prior = PriorSpec(kind="uniform", dim=1, max_clusters=p, radius=1.0, decay=0.0)
    tgt = TargetDensity.prior_only(prior)
    props = StepProposals(
        np.zeros((0, 1)), tau=1.0, max_clusters=p, kmeans_cfg=KMeansConfig(),
        rng_for_k=lambda k: seeded_rng(seed, (3, k)),
    )
    _, trace = run_chain(initial_state(1, tgt, props), n, tgt, props, seeded_rng(seed, 0))
    before = np.concatenate([[1], trace.k_current[:-1]])
    return before, trace.k_proposed, trace.alpha, trace.accepted


class TestProposeDimension:
    """The vector rule, read off the chain's trace: k' = k + offset, the
    offset uniform on {-1, 0, +1} and collapsed to k outside {1..p}."""

    @pytest.fixture(scope="class")
    def moves(self):
        return flat_prior_moves(5, 300_000, 50)

    def test_interior_frequencies(self, moves):
        # v mod 3 for v uniform on exactly 3 * 2**50 integers: each offset has mass 1/3
        assert chain._DRAW_RANGE == 3 * 2**50
        before, proposed, _, _ = moves
        interior = (before > 1) & (before < 5)
        offsets = (proposed - before)[interior]
        assert interior.sum() > 100_000
        for v in (-1, 0, 1):
            assert abs((offsets == v).mean() - 1 / 3) <= 0.01

    def test_lower_boundary_self_transition(self, moves):
        before, proposed, _, _ = moves
        at_one = proposed[before == 1]
        assert set(np.unique(at_one)) == {1, 2}
        assert at_one.size > 50_000
        assert abs((at_one == 1).mean() - 2 / 3) <= 0.01

    def test_upper_boundary_self_transition(self, moves):
        before, proposed, _, _ = moves
        at_top = proposed[before == 5]
        assert set(np.unique(at_top)) == {4, 5}
        assert at_top.size > 50_000
        assert abs((at_top == 5).mean() - 2 / 3) <= 0.01

    def test_single_dimension(self):
        _, proposed, _, _ = flat_prior_moves(1, 100, 53)
        assert set(proposed.tolist()) == {1}

    def test_acceptance_uniforms(self, moves):
        # accepted with probability alpha: u is uniform and independent of the candidate
        _, _, alpha, accepted = moves
        for lo, hi in ((0.0, 0.3), (0.3, 0.7), (0.7, 1.0)):
            sel = (alpha > lo) & (alpha <= hi)
            assert sel.sum() > 2_000
            assert abs(accepted[sel].mean() - alpha[sel].mean()) <= 0.02


def proposal_density(c, params):
    """student_log_density of one center vector, as a one-row stack."""
    return float(student_log_density(c.points[None], params)[0])


def densities(c, tgt, params):
    """(log-target, proposal log-density) of one center vector."""
    return log_target(c, tgt), proposal_density(c, params)


def chain_state(c, tgt, params):
    log_density, log_proposal = densities(c, tgt, params)
    return ChainState(c.points, log_density - log_proposal)


def log_alpha(current, candidate):
    """acceptance_log_prob of a move to a candidate given as (log-target,
    proposal log-density)."""
    return acceptance_log_prob(current, *candidate)


class TestAcceptance:
    def test_identical_proposal_accepted_surely(self):
        tgt = toy_target()
        props = toy_proposals(tgt)
        state = initial_state(2, tgt, props)
        assert log_alpha(state, densities(state.centers, tgt, props.params(2))) == 0.0

    def test_outside_support_never_accepted(self):
        tgt = toy_target()
        props = toy_proposals(tgt)
        state = initial_state(1, tgt, props)
        bad = densities(Centers([[2.5]]), tgt, props.params(1))
        assert log_alpha(state, bad) == -math.inf

    def test_current_state_must_be_in_support(self):
        tgt = toy_target()
        props = toy_proposals(tgt)
        dead = chain_state(Centers([[2.5]]), tgt, props.params(1))
        good = densities(Centers([[0.0]]), tgt, props.params(1))
        assert log_target(dead.centers, tgt) == -math.inf
        with pytest.raises(ValueError):
            log_alpha(dead, good)

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
            lab = log_alpha(chain_state(a, tgt, params), densities(b, tgt, params))
            lba = log_alpha(chain_state(b, tgt, params), densities(a, tgt, params))
            lhs = lab + log_target(a, tgt) + proposal_density(b, params)
            rhs = lba + log_target(b, tgt) + proposal_density(a, params)
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
        la = log_alpha(chain_state(a, tgt, params), densities(b, tgt, params))
        dens_ratio = log_target(b, tgt) - log_target(a, tgt)
        prop_ratio = proposal_density(a, params) - proposal_density(b, params)
        assert la == pytest.approx(min(0.0, dens_ratio + prop_ratio), abs=1e-12)


class TestStepAgainstReferenceRule:
    """step computes alpha inline; it must equal exp(acceptance_log_prob) bit
    for bit, compared with ==, with accepted == (u < alpha)."""

    @staticmethod
    def check(state, ld, lp, u, k=2):
        accepted, move = step(state, k, ld - lp, u)
        alpha = math.exp(acceptance_log_prob(state, ld, lp))
        assert move == (k, alpha, accepted)
        assert accepted == (u < alpha)
        return alpha

    def test_random_finite_states_and_candidates(self):
        rng = seeded_rng(69, 0)
        for scale in (1e-3, 1.0, 30.0, 1e3):
            for _ in range(2_000):
                sld, slp, ld, lp = scale * rng.standard_normal(4)
                state = ChainState(np.zeros((2, 1)), float(sld) - float(slp))
                self.check(state, float(ld), float(lp), float(rng.random()))

    def test_edge_deltas(self):
        ld, lp = -3.25, 1.5
        state = ChainState(np.zeros((1, 1)), ld - lp)
        assert self.check(state, -math.inf, lp, 0.0) == 0.0  # outside the support
        assert self.check(state, -math.inf, -40.0, 0.0) == 0.0
        assert self.check(state, ld, lp, 0.999) == 1.0  # delta == 0
        assert self.check(state, ld + 2.0, lp, 0.999) == 1.0  # delta > 0
        assert self.check(state, ld - 800.0, lp, 0.0) == 0.0  # underflows below -745
        assert self.check(state, ld - 700.0, lp, 0.0) > 0.0


def pool_candidates(supply, k, n):
    """The first n candidates of pool k, as the chain takes them: (points,
    log_density, log_proposal) rows, each chunk's densities evaluated alone;
    the pool's log weights are their differences, one per drawn row,
    compared with ==."""
    while len(supply.log_weight[k]) < n:
        supply.refill(k, n - len(supply.log_weight[k]))
    params, rows = supply.proposals.params(k), []
    for points in supply.chunks[k]:
        log_density = log_target(points, supply.tgt).tolist()
        rows += zip(points, log_density, student_log_density(points, params).tolist())
    assert supply.log_weight[k] == [ld - lp for _, ld, lp in rows]
    return rows[:n]


def run_in_blocks(state, block, n, tgt, props, rng):
    """run_chain over n iterations, ``block`` at a time, each block continuing the last."""
    traces = []
    for start in range(0, n, block):
        state, trace = run_chain(state, min(block, n - start), tgt, props, rng)
        traces.append(trace)
    return state, traces


class TestStepAndChain:
    def test_rejected_step_leaves_state_bit_identical(self):
        tgt = toy_target(lam=50.0)  # cold target: most moves rejected
        props = toy_proposals(tgt)
        state = initial_state(1, tgt, props)
        rng = seeded_rng(55, 0)
        saw_rejection = False
        for points, ld, lp in pool_candidates(CandidateSupply(tgt, props, 55), 1, 50):
            u = rng.random()
            accepted, move = step(state, 1, ld - lp, u)
            assert move == (1, math.exp(log_alpha(state, (ld, lp))), accepted)
            assert accepted == (u < move[1])
            if accepted:
                state = ChainState(points, ld - lp)
            else:
                saw_rejection = True
        assert saw_rejection
        # the chain keeps the very state object's points over a rejected move
        rng = seeded_rng(55, 1)
        for _ in range(50):
            new, trace = run_chain(state, 1, tgt, props, rng)
            if not trace.accepted[0]:
                assert new.points is state.points and new == state
            state = new

    def test_non_finite_draw_rejected(self, monkeypatch):
        tgt = toy_target()
        props = toy_proposals(tgt)
        state = initial_state(1, tgt, props)
        monkeypatch.setattr(
            chain, "student_sample", lambda params, n, rng: np.full((n, params.k, 1), np.nan)
        )
        with pytest.raises(ValueError, match="finite"):
            run_chain(state, 5, tgt, props, seeded_rng(55, 1))

    def test_state_points_read_only(self):
        tgt = toy_target()
        props = toy_proposals(tgt)
        state = initial_state(2, tgt, props)
        rng = seeded_rng(55, 2)
        for _ in range(20):
            state, _ = run_chain(state, 1, tgt, props, rng)
            assert not state.points.flags.writeable
            assert state.centers == Centers(state.points)

    def test_trace_contract(self):
        tgt = toy_target()
        props = toy_proposals(tgt)
        state = initial_state(1, tgt, props)
        final, trace = run_chain(state, 300, tgt, props, seeded_rng(56, 0))
        assert len(trace) == 300
        assert np.all((trace.alpha >= 0) & (trace.alpha <= 1))
        assert np.all((trace.k_current >= 1) & (trace.k_current <= 3))
        assert final.k == trace.k_current[-1]

    def test_cursors_count_the_moves_to_each_k(self):
        tgt = toy_target()
        props = toy_proposals(tgt)
        final, trace = run_chain(initial_state(1, tgt, props), 2000, tgt, props, seeded_rng(57, 0))
        for k in range(len(final.cursors)):
            assert final.cursors[k] == (trace.k_proposed == k).sum()
        # the returned state is the pool row the last accepted move took
        last = np.flatnonzero(trace.accepted)[-1]
        k = trace.k_proposed[last]
        row = (trace.k_proposed[: last + 1] == k).sum() - 1
        points, log_density, log_proposal = pool_candidates(final.supply, k, row + 1)[row]
        assert np.array_equal(final.points, points)
        assert final.log_weight == log_density - log_proposal

    def test_step_is_called_once_per_move_with_the_state_before_it(self, monkeypatch):
        """What a tracer wrapping chain.step reads: one call per move, whose
        first argument has the k before the move (read once the call has
        returned) and whose result is the move's trace row."""
        seen, real_step = [], chain.step

        def recorder(state, *args):
            out = real_step(state, *args)
            seen.append((state.k, out))
            return out

        monkeypatch.setattr(chain, "step", recorder)
        tgt = toy_target()
        props = toy_proposals(tgt)
        init = initial_state(1, tgt, props)
        _, trace = run_chain(init, 500, tgt, props, seeded_rng(58, 0))
        assert len(seen) == 500
        before = [init.k, *trace.k_current[:-1].tolist()]
        rows = zip(trace.k_proposed.tolist(), trace.alpha.tolist(), trace.accepted.tolist())
        for (k_seen, (accepted, move)), k_before, row in zip(seen, before, rows):
            assert k_seen == k_before
            assert move == row and accepted == row[2]
        assert 0 < trace.accepted.mean() < 1
        assert (trace.k_proposed != np.array(before))[trace.accepted].any()  # cross-k accepts

    def test_run_without_an_accepted_move_returns_the_initial_state(self, monkeypatch):
        real_step = chain.step  # with u = 1 no move is accepted, since alpha <= 1
        monkeypatch.setattr(chain, "step", lambda state, *args: real_step(state, *args[:2], 1.0))
        tgt = toy_target()
        props = toy_proposals(tgt)
        init = initial_state(2, tgt, props)
        final, trace = run_chain(init, 200, tgt, props, seeded_rng(59, 0))
        assert not trace.accepted.any() and (trace.k_current == 2).all()
        assert final.points is init.points
        assert final.log_weight == init.log_weight
        assert sum(final.cursors) == 200 and final.supply is not None

    @pytest.mark.parametrize("accept_at", [{0}, {199}, set(), {0, 57, 58, 120}])
    def test_k_after_each_move_from_the_accepted_moves(self, accept_at, monkeypatch):
        """The trace's k after each move is the proposed k of the last accepted
        move so far, and the initial k before the first: the moves given
        (by index) are accepted with u = -1, every other is rejected with u = 1."""
        real_step, seen = chain.step, []

        def forced(state, k, log_weight, u):
            u = -1.0 if len(seen) in accept_at else 1.0
            seen.append(state.k)
            return real_step(state, k, log_weight, u)

        monkeypatch.setattr(chain, "step", forced)
        tgt = toy_target()
        props = toy_proposals(tgt)
        init = initial_state(2, tgt, props)
        final, trace = run_chain(init, 200, tgt, props, seeded_rng(60, 0))
        assert set(np.flatnonzero(trace.accepted).tolist()) == accept_at
        expected, k = [], init.k
        for kp, accepted in zip(trace.k_proposed.tolist(), trace.accepted.tolist()):
            k = kp if accepted else k
            expected.append(k)
        assert trace.k_current.dtype == trace.k_proposed.dtype
        assert trace.k_current.tolist() == expected
        assert seen == [init.k, *expected[:-1]]  # the k each step call was made from
        assert final.k == expected[-1]

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_k_after_each_move_in_blocks_equals_one_run(self, block):
        """A continued block starts from the weight of the returned state,
        the pool's stored weight of the last accepted row, so its alphas
        equal the single run's."""
        tgt = toy_target()
        props = toy_proposals(tgt)
        state0 = initial_state(1, tgt, props)
        n = 2_500
        whole, trace = run_chain(state0, n, tgt, props, seeded_rng(61, 0))
        part, traces = run_in_blocks(state0, block, n, tgt, props, seeded_rng(61, 0))
        assert part == whole
        for name in ("k_current", "alpha"):
            got, one = np.concatenate([getattr(t, name) for t in traces]), getattr(trace, name)
            assert got.dtype == one.dtype
            assert got.tolist() == one.tolist()
        assert 0 < trace.accepted.mean() < 1

    def test_rejects_state_outside_dimension_range(self):
        tgt = toy_target()
        props = toy_proposals(tgt)
        state = initial_state(1, tgt, props)
        wide = ChainState(np.zeros((4, 1)), state.log_weight)
        with pytest.raises(ValueError, match="outside"):
            run_chain(wide, 5, tgt, props, seeded_rng(56, 1))

    def test_deterministic_replay(self):
        tgt = toy_target()
        props = toy_proposals(tgt)
        state = initial_state(2, tgt, props)
        f1, t1 = run_chain(state, 200, tgt, props, seeded_rng(58, 0))
        f2, t2 = run_chain(state, 200, tgt, props, seeded_rng(58, 0))
        assert f1.centers == f2.centers
        assert f1 == f2 and f1 is not f2
        np.testing.assert_array_equal(t1.alpha, t2.alpha)
        np.testing.assert_array_equal(t1.k_current, t2.k_current)

    def test_chain_never_leaves_support(self):
        tgt = toy_target()
        props = toy_proposals(tgt)
        state = initial_state(1, tgt, props)
        rng = seeded_rng(59, 0)
        for _ in range(500):
            state, _ = run_chain(state, 1, tgt, props, rng)
            assert math.isfinite(log_target(state.centers, tgt))

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
        tv = 0.5 * np.abs(empirical - oracle).sum()
        assert tv <= 0.05


def sine_drift_step(t=40, p=20):
    """Target and proposals of step t of a sine_drift stream at reference
    settings (p clusters, R=15, label correction on), built as run_stream does."""
    cfg = StreamConfig(dim=2, max_clusters=p, radius=15.0, label_correction=True)
    xs = generate(SyntheticSpec(kind="sine_drift", horizon=t), seeded_rng(7, 0)).xs
    ctx = ScoreContext(
        xs,
        np.einsum("td,td->t", xs, xs),  # losses of a single center at the origin
        np.array([variance_weight(cfg, s) for s in range(t)]),
    )
    tgt = TargetDensity(
        lambda_at(cfg.schedule, t), ctx, PriorSpec.from_config(cfg), label_weighted=True
    )
    props = StepProposals(
        xs,
        tau=proposal_scale(p, t + 1),
        max_clusters=p,
        kmeans_cfg=KMeansConfig(),
        rng_for_k=lambda k: seeded_rng(7, (3, t, k)),
        jitter_scale=cfg.radius,
    )
    return tgt, props


class TestToyChainGolden:
    """The bytes of a 2,000-move chain on the oracle-check toy target, where
    about 39 % of moves are accepted (the stream goldens accept 5-7 %): the
    four trace arrays with their dtypes and shapes, then the final state's
    points and densities, which the test evaluates from the points since the
    state keeps only their difference.  Recorded before the move loop kept
    its current state in one overwritten record and built the returned
    state once.
    Re-recorded when the pools kept one log importance weight per row and
    alpha became exp of the difference of two weights: 450 of the 2,000
    alphas moved in the last bits (by at most 5.6e-16), while the proposed
    k, the accept flags, the k path and the final state stayed the same."""

    def test_toy_chain_bytes(self):
        args = cli.build_parser().parse_args(["oracle-check", "--seed", "11"])
        tgt = cli._toy_target(args)
        props = StepProposals(
            tgt.ctx.observations,
            tau=proposal_scale(args.max_clusters, tgt.ctx.t + 1),
            max_clusters=args.max_clusters,
            rng_for_k=lambda k: seeded_rng(args.seed, (cli._KMEANS_STREAM, 0, k)),
            jitter_scale=args.radius,
        )
        rng = seeded_rng(args.seed, (cli._CHAIN_STREAM, 0))
        final, trace = run_chain(initial_state(1, tgt, props), 2000, tgt, props, rng)
        digest = hashlib.sha1()
        for a in (trace.k_proposed, trace.alpha, trace.accepted, trace.k_current, final.points):
            digest.update(f"{a.dtype.str}{a.shape}".encode())
            digest.update(a.tobytes())
        row = final.points[None]
        evaluated = log_target(row, tgt)[0], student_log_density(row, props.params(final.k))[0]
        digest.update(np.array(evaluated).tobytes())
        assert trace.acceptance_rate() == 0.39
        assert digest.hexdigest() == "a226528361ccd74b9d56e8c0222040f2e221e28f"


def scalar_reference(state, n, tgt, props, seed, supply):
    """The chain one candidate at a time: each candidate a validated Centers,
    evaluated alone with log_target and student_log_density; the candidates
    are the pooled chain's, taken in pool order.  Returns the state, proposed
    k and alpha of every iteration."""
    rng = seeded_rng(seed, 0)
    rng.integers(2**63)  # the supply's seed
    v = rng.integers(0, 3 << 50, size=n)
    offsets, uniforms = v % 3, (v // 3) * 2.0**-50
    p = props.max_clusters
    rows = {k: np.concatenate(chunks) for k, chunks in enumerate(supply.chunks) if chunks}
    used = dict.fromkeys(rows, 0)
    states, k_proposed, alphas = [], [], []
    for offset, u in zip(offsets, uniforms):
        k_cand = state.k - 1 + int(offset)
        if not 1 <= k_cand <= p:
            k_cand = state.k
        c = Centers(rows[k_cand][used[k_cand]])
        used[k_cand] += 1
        log_density, log_proposal = densities(c, tgt, props.params(k_cand))
        alpha = math.exp(acceptance_log_prob(state, log_density, log_proposal))
        if u < alpha:
            state = ChainState(c.points, log_density - log_proposal)
        states.append(state)
        k_proposed.append(k_cand)
        alphas.append(alpha)
    return states, k_proposed, alphas


class TestReturnedState:
    """The state a run returns is the pool row of its last accepted move with
    the weight the pool stored for it, and the run evaluates no density once
    its moves are done.  That stored weight equals, compared with ==, the
    row's two densities evaluated alone, so the pool's float and a one-row
    evaluation are interchangeable."""

    @pytest.mark.parametrize("case", ["toy", "sine_drift"])
    def test_final_weight_is_the_pool_rows_weight(self, case, monkeypatch):
        if case == "toy":
            tgt = toy_target()
            props, k0 = toy_proposals(tgt), 1
        else:
            tgt, props = sine_drift_step(t=60)
            k0 = 3
        init, n = initial_state(k0, tgt, props), 600
        moves, calls = [], []  # calls: (density, moves made when it was called)
        real_step, real_log_target, real_density = (
            chain.step, chain.log_target, chain.student_log_density
        )

        def counted_step(*args):
            moves.append(None)
            return real_step(*args)

        def spy_log_target(points, target):
            calls.append(("log_target", len(moves)))
            return real_log_target(points, target)

        def spy_density(points, params):
            calls.append(("student_log_density", len(moves)))
            return real_density(points, params)

        monkeypatch.setattr(chain, "step", counted_step)
        monkeypatch.setattr(chain, "log_target", spy_log_target)
        monkeypatch.setattr(chain, "student_log_density", spy_density)
        final, trace = run_chain(init, n, tgt, props, seeded_rng(74, 0))
        assert len(moves) == n
        # every evaluation is a refill, made before the move that needed it
        assert {name for name, _ in calls} == {"log_target", "student_log_density"}
        assert max(made for _, made in calls) < n
        last = np.flatnonzero(trace.accepted)[-1]
        k = trace.k_proposed[last]
        row = (trace.k_proposed[: last + 1] == k).sum() - 1
        chunk, r = divmod(row, chain._POOL_ROWS)
        assert final.k == k
        assert np.shares_memory(final.points, final.supply.chunks[k][chunk])
        assert np.array_equal(final.points, final.supply.chunks[k][chunk][r])
        assert final.log_weight == final.supply.log_weight[k][row]
        points = final.points[None]
        alone = log_target(points, tgt)[0] - student_log_density(points, props.params(k))[0]
        assert final.log_weight == alone
        assert (trace.k_current != k0).any()

    def test_supply_and_cursors_are_keyword_only(self):
        # a (points, log_density, log_proposal) call is refused, not read as a supply
        with pytest.raises(TypeError):
            ChainState(np.zeros((1, 1)), -3.25, 1.5)


class TestPooledChainAgainstScalarReference:
    """The pooled, batch-evaluated chain equals the one-candidate-at-a-time
    chain on the same candidates and uniforms: same states, same log
    weights, same alphas, compared with ==."""

    @pytest.mark.parametrize("case", ["toy", "sine_drift"])
    def test_replay_equals_scalar_reference(self, case):
        if case == "toy":
            tgt = toy_target()
            props = toy_proposals(tgt)
            state0 = initial_state(1, tgt, props)
        else:
            tgt, props = sine_drift_step()
            state0 = initial_state(3, tgt, props)
        n, seed = 400, 63
        final, trace = run_chain(state0, n, tgt, props, seeded_rng(seed, 0))
        states, k_proposed, alphas = scalar_reference(state0, n, tgt, props, seed, final.supply)
        assert final == states[-1]
        assert trace.alpha.tolist() == alphas
        assert trace.k_proposed.tolist() == k_proposed
        assert trace.k_current.tolist() == [s.k for s in states]
        # every intermediate state, through one-iteration blocks
        state, rng = state0, seeded_rng(seed, 0)
        for expected in states:
            state, _ = run_chain(state, 1, tgt, props, rng)
            assert state == expected
        assert 0 < trace.accepted.sum() < n
        assert len(set(trace.k_current.tolist())) > 1  # the replay crosses dimensions


class TestBatchedRefill:
    """A refill draws as many whole chunks as cover the rows asked for, up to
    the element bound (at least one), by one student_sample call whose draw
    blocks are the chunks, and evaluates every drawn row by one call of each
    density.  Every stored chunk equals a chunk drawn alone from an
    equal-seeded generator, and the pool's log weights equal those chunks'
    weights evaluated alone, compared with ==."""

    ROWS = (1, 23, 40, 500, 8, 300, 3)

    @pytest.mark.parametrize("case", ["toy", "sine_drift"])
    def test_batched_chunks_equal_chunks_evaluated_alone(self, case, monkeypatch):
        if case == "toy":
            tgt = toy_target()
            props = toy_proposals(tgt)
            ks = (1, 2, 3)
        else:
            tgt, props = sine_drift_step(t=60)
            ks = (1, 2, 5, 9)  # at k = 9 one chunk exceeds the element bound
        calls = []  # (name, points) per call: the stack drawn, or the stack evaluated
        names = ["student_sample", "log_target", "student_log_density"]
        real = {name: getattr(chain, name) for name in names}

        def spy_sample(params, n, rng):
            drawn = real["student_sample"](params, n, rng)
            calls.append(("student_sample", drawn))
            return drawn

        def spy(name):
            def evaluate(points, arg):
                calls.append((name, points))
                return real[name](points, arg)

            return evaluate

        monkeypatch.setattr(chain, "student_sample", spy_sample)
        monkeypatch.setattr(chain, "log_target", spy("log_target"))
        monkeypatch.setattr(chain, "student_log_density", spy("student_log_density"))
        supply = CandidateSupply(tgt, props, 68)
        size, d, t = chain._POOL_ROWS, tgt.prior.dim, tgt.ctx.t
        capped = False
        for k in ks:
            rng, params = seeded_rng(68, k), props.params(k)
            cap = max(1, chain._BATCH_ELEMENTS // (size * k * d * t))
            log_weight = []  # the one-chunk evaluations of the chunks drawn so far
            for rows in self.ROWS:
                held, before = len(supply.chunks[k]), len(calls)
                supply.refill(k, rows)
                capped = capped or -(-rows // size) > cap
                n = size * min(-(-rows // size), cap)
                assert [name for name, _ in calls[before:]] == names
                drawn = calls[before][1]
                assert drawn.shape == (n, k, d)
                assert all(points is drawn for _, points in calls[before + 1 :])
                for points in supply.chunks[k][held:]:
                    alone = student_sample(params, size, rng)
                    assert points.shape == alone.shape and (points == alone).all()
                    log_weight += (
                        log_target(alone, tgt) - student_log_density(alone, params)
                    ).tolist()
                assert len(supply.chunks[k]) == held + n // size
                assert len(supply.log_weight[k]) == size * len(supply.chunks[k])
                assert supply.log_weight[k] == log_weight
        # a batch keeps to the element bound, or to one chunk where a chunk exceeds it
        batches = [points.shape for name, points in calls if name == "log_target"]
        assert all(
            rows * k * d * t <= max(chain._BATCH_ELEMENTS, size * k * d * t)
            for rows, k, _ in batches
        )
        assert capped == (case == "sine_drift")

    def test_one_student_sample_call_per_refill(self, monkeypatch):
        """Each refill draws the whole chunks that cover its rows, at least one."""
        calls, real_sample = [], chain.student_sample

        def spy(params, n, rng):
            calls.append(n)
            return real_sample(params, n, rng)

        monkeypatch.setattr(chain, "student_sample", spy)
        tgt = toy_target()
        supply = CandidateSupply(tgt, toy_proposals(tgt), 68)
        for rows in self.ROWS + (0,):
            supply.refill(2, rows)
        assert calls == [32, 32, 64, 512, 32, 320, 32, 32]
        assert len(supply.log_weight[2]) == sum(calls) == 32 * len(supply.chunks[2])


def replayed_pool_sizes(trace, k0, seed, tgt, props):
    """Each pool's rows after a fresh run from k0 with generator
    seeded_rng(seed, 0), by the refill rule replayed one move at a time from
    the trace and the run's offsets: the moves left that would propose the
    pool were the chain to stay at its k, at most the pool's rows again
    (at least a chunk) from the first accepted move to another k on, rounded
    up to whole chunks, and at most the whole chunks that the element bound
    allows (at least one)."""
    p, size = props.max_clusters, chain._POOL_ROWS
    rng = seeded_rng(seed, 0)
    rng.integers(2**63)  # the supply's seed
    offsets = (rng.integers(0, 3 << 50, size=len(trace)) % 3 - 1).tolist()
    held, used, k, left = [0] * (p + 1), [0] * (p + 1), k0, False
    for j, (kp, accepted) in enumerate(zip(trace.k_proposed.tolist(), trace.accepted.tolist())):
        if used[kp] == held[kp]:
            rows = sum((k + o if 1 <= k + o <= p else k) == kp for o in offsets[j:])
            if left:
                rows = min(rows, max(size, held[kp]))
            chunk_elements = size * kp * tgt.prior.dim * max(tgt.ctx.t, 1)
            cap = chain._BATCH_ELEMENTS // chunk_elements
            held[kp] += size * max(1, min(-(-rows // size), cap))
        used[kp] += 1
        left = left or (accepted and kp != k)
        k = kp if accepted else k
    return held


class TestRefillSize:
    """A refill draws the whole chunks that cover the rows the run's remaining
    moves would propose at its pool were the chain to stay at its k; once the
    chain has left its starting k, at most the pool's rows again, also after
    it comes back; a pool carried from an earlier run at least doubles."""

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_offset_counts_equal_a_plain_count(self, p):
        """The refill's count read from the offsets' bytes, for every k' a move
        from k can propose and several start moves, against counting the
        moves one by one."""
        offsets = seeded_rng(73, p).integers(-1, 2, size=200).tolist()
        raw = np.array(offsets, dtype=np.int8).tobytes()
        for k in range(1, p + 1):
            for kp in {max(1, k - 1), k, min(p, k + 1)}:
                for j in (0, 1, 117, 199, 200):
                    plain = sum((k + o if 1 <= k + o <= p else k) == kp for o in offsets[j:])
                    assert chain._proposals_of(kp - k, k, p, raw, j) == plain

    @pytest.mark.parametrize("p", [3, 4])  # k = 3 at the upper boundary, and inside
    def test_a_chain_that_accepts_nothing_evaluates_only_its_proposals(self, p, monkeypatch):
        """Each pool is refilled once, with the moves that propose it rounded up
        to whole chunks, and evaluates nothing beyond those chunks."""
        tgt = toy_target(p=p, lam=1e4)  # so cold that no move leaves the warm start
        props = toy_proposals(tgt)
        init, batches, real_log_target = initial_state(3, tgt, props), [], chain.log_target

        def spy(points, target):
            batches.append(points.shape[:2])
            return real_log_target(points, target)

        monkeypatch.setattr(chain, "log_target", spy)
        final, trace = run_chain(init, 600, tgt, props, seeded_rng(69, 0))
        assert not trace.accepted.any()
        proposed = np.bincount(trace.k_proposed, minlength=p + 1).tolist()
        drawn = [-(-n // 32) * 32 for n in proposed]
        assert [len(w) for w in final.supply.log_weight] == drawn
        assert list(final.cursors) == proposed
        assert sorted(batches, key=lambda b: b[1]) == [(n, k) for k, n in enumerate(drawn) if n]

    def test_a_chain_back_at_its_starting_k_keeps_its_refills_capped(self, monkeypatch):
        """The chain leaves k0 at its first move to another k, comes back at its
        first move to k0 after that, then rejects every move.  After the leaving
        move, every refill asks for at most the pool's rows again (at least
        a chunk's); after the return some ask for fewer than the moves left
        propose, though the chain never leaves k0 again."""
        k0, size, seen, turns, refills = 2, chain._POOL_ROWS, [], [], []
        real_step, real_refill = chain.step, CandidateSupply.refill

        def forced(state, k, log_weight, u):
            accept = len(turns) < 2 and (state.k == k0) != (k == k0)  # leave, then return
            if accept:
                turns.append(len(seen))
            seen.append(state.k)
            return real_step(state, k, log_weight, -1.0 if accept else 1.0)

        def spy(supply, k, rows):
            refills.append((len(seen), k, rows, len(supply.log_weight[k])))
            return real_refill(supply, k, rows)

        monkeypatch.setattr(chain, "step", forced)
        monkeypatch.setattr(CandidateSupply, "refill", spy)
        tgt = toy_target(p=4)
        props = toy_proposals(tgt)
        final, trace = run_chain(initial_state(k0, tgt, props), 600, tgt, props, seeded_rng(72, 0))
        assert np.flatnonzero(trace.accepted).tolist() == turns and len(turns) == 2
        assert (trace.k_current[turns[1] :] == k0).all()
        proposed = trace.k_proposed.tolist()
        for j, k, rows, held in refills:
            if j > turns[0]:
                assert rows <= max(size, held)
        capped = [
            (j, k) for j, k, rows, held in refills if j > turns[1] and rows < proposed[j:].count(k)
        ]
        assert capped
        assert [len(w) for w in final.supply.log_weight] == replayed_pool_sizes(
            trace, k0, 72, tgt, props
        )

    @pytest.mark.parametrize("case", ["flat_prior", "toy", "sine_drift"])
    def test_refill_sizes_follow_the_rule_replayed_from_the_trace(self, case):
        """On the flat prior the chain wanders over several k (where counts that
        assume it stays would fill pools it leaves behind); on the toy target
        it accepts about 40 % of moves; on the data target it mostly stays."""
        if case == "flat_prior":
            prior = PriorSpec(kind="uniform", dim=1, max_clusters=20, radius=1.0, decay=0.0)
            tgt = TargetDensity.prior_only(prior)
            props = StepProposals(
                np.zeros((0, 1)), tau=1.0, max_clusters=20, kmeans_cfg=KMeansConfig(),
                rng_for_k=lambda k: seeded_rng(71, (3, k)),
            )
            k0 = 1
        elif case == "toy":
            tgt = toy_target()
            props, k0 = toy_proposals(tgt), 1
        else:
            tgt, props = sine_drift_step(t=60)
            k0 = 3
        n = 600
        final, trace = run_chain(initial_state(k0, tgt, props), n, tgt, props, seeded_rng(71, 0))
        assert [len(w) for w in final.supply.log_weight] == replayed_pool_sizes(
            trace, k0, 71, tgt, props
        )
        assert (trace.k_current != k0).any()
        if case == "flat_prior":
            assert len(set(trace.k_current.tolist())) >= 5

    def test_blocks_of_a_long_chain_draw_a_logarithmic_number_of_times(self, monkeypatch):
        """100 blocks of 1,000 moves on the oracle-check toy chain: each pool is
        drawn O(log moves) times, not once per block, and the blocks equal one run."""
        draws, real_sample = [], chain.student_sample

        def spy(params, n, rng):
            draws.append(params.k)
            return real_sample(params, n, rng)

        args = cli.build_parser().parse_args(["oracle-check"])
        tgt = cli._toy_target(args)
        props = StepProposals(
            tgt.ctx.observations,
            tau=proposal_scale(args.max_clusters, tgt.ctx.t + 1),
            max_clusters=args.max_clusters,
            rng_for_k=lambda k: seeded_rng(args.seed, (cli._KMEANS_STREAM, 0, k)),
            jitter_scale=args.radius,
        )
        state0, n = initial_state(1, tgt, props), 100_000
        whole, trace = run_chain(state0, n, tgt, props, seeded_rng(args.seed, 70))
        monkeypatch.setattr(chain, "student_sample", spy)
        part, traces = run_in_blocks(state0, 1_000, n, tgt, props, seeded_rng(args.seed, 70))
        assert part == whole and part.cursors == whole.cursors
        for name in ("k_proposed", "alpha", "accepted", "k_current"):
            got, one = np.concatenate([getattr(t, name) for t in traces]), getattr(trace, name)
            assert got.tolist() == one.tolist()
        per_pool = np.bincount(draws, minlength=args.max_clusters + 1)[1:]
        assert (per_pool > 0).all() and per_pool.max() <= 2 * math.log2(n)


class TestChainMemory:
    """A run's move plan is an int8 and a float64 array, read through
    memoryviews, not two lists of Python numbers, and each pool row keeps one
    Python float, its log importance weight, not its two densities.  numpy's
    allocations are traced, so the peak repeats."""

    def test_traced_peak_per_move(self):
        args = cli.build_parser().parse_args(["oracle-check", "--dim", "1"])
        tgt = cli._toy_target(args)
        props = StepProposals(
            tgt.ctx.observations,
            tau=proposal_scale(args.max_clusters, tgt.ctx.t + 1),
            max_clusters=args.max_clusters,
            rng_for_k=lambda k: seeded_rng(args.seed, (cli._KMEANS_STREAM, 0, k)),
            jitter_scale=args.radius,
        )
        state0 = initial_state(1, tgt, props)
        rng = seeded_rng(args.seed, (cli._CHAIN_STREAM, 0))
        n = 20_000
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _, trace = run_chain(state0, n, tgt, props, rng)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert len(trace) == n
        assert peak / n < 175


class TestContinuation:
    @pytest.mark.parametrize("block", [1, 31, 33, 500])
    def test_blocks_equal_one_run_on_a_data_target(self, block):
        tgt, props = sine_drift_step()
        state0 = initial_state(3, tgt, props)
        n = 565
        whole, trace = run_chain(state0, n, tgt, props, seeded_rng(64, 0))
        part, traces = run_in_blocks(state0, block, n, tgt, props, seeded_rng(64, 0))
        assert part == whole
        assert part.cursors == whole.cursors
        for name in ("k_proposed", "alpha", "accepted", "k_current"):
            got = np.concatenate([getattr(t, name) for t in traces])
            np.testing.assert_array_equal(got, getattr(trace, name))

    def test_two_runs_from_one_mid_chain_state_are_equal(self):
        tgt, props = sine_drift_step()
        mid, _ = run_chain(initial_state(3, tgt, props), 100, tgt, props, seeded_rng(65, 0))
        a, ta = run_chain(mid, 300, tgt, props, seeded_rng(65, 1))
        b, tb = run_chain(mid, 300, tgt, props, seeded_rng(65, 1))
        assert a == b and a.cursors == b.cursors
        np.testing.assert_array_equal(ta.alpha, tb.alpha)
        np.testing.assert_array_equal(ta.k_current, tb.k_current)

    @pytest.mark.parametrize("changed", ["tgt", "proposals"])
    def test_carried_supply_ignored_for_another_target_or_proposals(self, changed):
        tgt, props = sine_drift_step()
        mid, _ = run_chain(initial_state(3, tgt, props), 100, tgt, props, seeded_rng(66, 0))
        if changed == "tgt":  # equal values, another object
            tgt = TargetDensity(tgt.lam, tgt.ctx, tgt.prior, label_weighted=tgt.label_weighted)
        else:
            _, props = sine_drift_step()
        bare = ChainState(mid.points, mid.log_weight)
        a, ta = run_chain(mid, 200, tgt, props, seeded_rng(66, 1))
        b, tb = run_chain(bare, 200, tgt, props, seeded_rng(66, 1))
        assert a.supply is not mid.supply
        assert a == b and a.cursors == b.cursors
        np.testing.assert_array_equal(ta.alpha, tb.alpha)


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
        assert math.isfinite(log_target(state.centers, tgt))
        assert np.abs(state.centers.points).max() <= 0.2
        # projected just inside the support ball of radius 2R
        assert np.abs(state.centers.points).max() == pytest.approx(0.2 * (1 - 1e-9), rel=1e-12)
