import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpclust.core import Centers, seeded_rng
from jumpclust.scoring import (
    ScoreContext,
    instantaneous_loss,
    nearest_sq_dist,
    score,
    sq_dists,
    score_batch,
)


def brute_force_loss(points, x):
    return min(sum((p - xi) ** 2 for p, xi in zip(row, x)) for row in points)


class TestNearestSqDist:
    """The coordinate-major kernel against the (t, k, d) einsum it replaced."""

    @staticmethod
    def einsum_reference(points, xs):
        diff = xs[:, None, :] - points[..., None, :, :]
        return np.einsum("...tkd,...tkd->...tk", diff, diff).min(axis=-1)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_matches_einsum_reference(self, dim):
        rng = seeded_rng(15, dim)
        for t, k in ((1, 1), (7, 3), (40, 6), (200, 20)):
            xs = rng.uniform(-15, 15, size=(t, dim))
            for points in (rng.uniform(-30, 30, size=(k, dim)), rng.uniform(-30, 30, size=(5, k, dim))):
                fast = nearest_sq_dist(points, np.ascontiguousarray(xs.T))
                ref = self.einsum_reference(points, xs)
                assert fast.shape == ref.shape
                if dim <= 2:
                    # one or two terms per sum: both orders round identically
                    np.testing.assert_array_equal(fast, ref)
                else:
                    np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=0)

    def test_accepts_strided_observations(self):
        rng = seeded_rng(16, 0)
        xs = rng.standard_normal((30, 2))
        points = rng.standard_normal((4, 2))
        np.testing.assert_array_equal(
            nearest_sq_dist(points, xs.T), nearest_sq_dist(points, np.ascontiguousarray(xs.T))
        )

    @pytest.mark.parametrize("dim", range(1, 13))
    def test_same_bytes_as_the_middle_axis_min(self, dim):
        # reference: the min over the k axis of the (..., k, t) distances in
        # the points' own layout, the kernel before it went center-major;
        # t = 1 at d >= 8 is numpy's pairwise row sum
        rng = seeded_rng(19, dim)
        for t in (1, 3, 120):
            xs_t = np.ascontiguousarray(rng.uniform(-15, 15, size=(t, dim)).T)
            stacks = [rng.uniform(-30, 30, size=s) for s in ((4, dim), (1, dim), (6, 4, dim), (3, 1, dim))]
            wide = rng.uniform(-30, 30, size=(6, 9, 2 * dim))
            stacks += [wide[:, ::2, ::2], wide[::3, 1::3, :dim]]  # strided along every axis
            if t == 3 and dim == 1:
                stacks.append(rng.uniform(-2, 2, size=(2**16, 3, 1)))  # one oracle chunk
            for points in stacks:
                got = nearest_sq_dist(points, xs_t)
                ref = sq_dists(points, xs_t).min(axis=-2)
                assert got.shape == ref.shape and got.flags.c_contiguous
                assert got.tobytes() == ref.tobytes(), (t, points.shape)


class TestSqDists:
    """The shared kernel against the (n, k, d) broadcast k-means used before."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_matches_brute_force(self, dim):
        rng = seeded_rng(17, dim)
        for t, k in ((1, 1), (7, 3), (40, 6), (200, 20)):
            xs = rng.uniform(-15, 15, size=(t, dim))
            for points in (rng.uniform(-30, 30, size=(k, dim)), rng.uniform(-30, 30, size=(5, k, dim))):
                got = sq_dists(points, np.ascontiguousarray(xs.T))
                ref = ((points[..., :, None, :] - xs) ** 2).sum(-1)
                assert got.shape == points.shape[:-1] + (t,)
                if dim <= 2:
                    np.testing.assert_array_equal(got, ref)
                else:
                    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    @staticmethod
    def broadcast_reference(points, xs_t):
        """The kernel before it summed one coordinate at a time: a
        (..., k, d, t) difference summed over d."""
        diff = points[..., :, :, None] - xs_t
        diff *= diff
        return diff.sum(axis=-2)

    @pytest.mark.parametrize("dim", range(1, 13))
    def test_same_bytes_as_the_broadcast_sum(self, dim):
        # at t = 1 and d >= 8 numpy's reduction over d turns pairwise; there
        # the reference is the broadcast sum of a two-observation call
        rng = seeded_rng(18, dim)
        for t in (1, 3, 120):
            xs_t = np.ascontiguousarray(rng.uniform(-15, 15, size=(t, dim)).T)
            for shape in ((4, dim), (6, 4, dim), (1, dim), (3, 1, dim)):
                points = rng.uniform(-30, 30, size=shape)
                got = sq_dists(points, xs_t)
                if t == 1 and dim >= 8:
                    ref = self.broadcast_reference(points, np.repeat(xs_t, 2, axis=1))[..., :1]
                else:
                    ref = self.broadcast_reference(points, xs_t)
                assert got.shape == ref.shape
                assert got.tobytes() == ref.tobytes(), (t, shape)

    @pytest.mark.parametrize("dim", range(1, 13))
    def test_a_column_is_the_one_observation_call(self, dim):
        # an observation's distances do not depend on the others in the call
        rng = seeded_rng(20, dim)
        xs_t = rng.uniform(-15, 15, size=(dim, 5))
        for shape in ((4, dim), (1, dim), (6, 4, dim)):
            points = rng.uniform(-30, 30, size=shape)
            every, nearest = sq_dists(points, xs_t), nearest_sq_dist(points, xs_t)
            for s in range(xs_t.shape[1]):
                one = np.ascontiguousarray(xs_t[:, s : s + 1])
                assert sq_dists(points, one)[..., 0].tobytes() == every[..., s].tobytes(), (s, shape)
                assert nearest_sq_dist(points, one)[..., 0].tobytes() == nearest[..., s].tobytes()


class TestInstantaneousLoss:
    def test_single_center(self):
        assert instantaneous_loss(Centers([[0.0, 0.0]]), [3.0, 4.0]) == 25.0

    def test_exact_hit_is_zero(self):
        c = Centers([[1.0, 0.0], [0.0, 1.0]])
        assert instantaneous_loss(c, [0.0, 1.0]) == 0.0

    def test_d1_three_centers_matches_brute_force(self):
        c = Centers([[-1.0], [2.0], [5.0]])
        x = [1.0]
        assert instantaneous_loss(c, x) == brute_force_loss(c.points.tolist(), x) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            instantaneous_loss(Centers([[0.0, 0.0]]), [1.0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = seeded_rng(seed, 0)
        pts = rng.standard_normal((4, 3))
        x = rng.standard_normal(3)
        base = instantaneous_loss(Centers(pts), x)
        perm = rng.permutation(4)
        assert instantaneous_loss(Centers(pts[perm]), x) == base

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_extra_center_never_hurts(self, seed):
        rng = seeded_rng(seed, 1)
        pts = rng.standard_normal((3, 2))
        extra = np.vstack([pts, rng.standard_normal((1, 2))])
        x = rng.standard_normal(2)
        assert instantaneous_loss(Centers(extra), x) <= instantaneous_loss(Centers(pts), x)


def random_context(rng, t, dim):
    return ScoreContext(
        observations=rng.standard_normal((t, dim)),
        ref_losses=rng.random(t) * 3.0,
        lam_prev=rng.random(t) * 2.0,
    )


class TestScore:
    def test_empty_context_is_zero(self):
        ctx = ScoreContext.empty(3)
        assert score(Centers([[0.0, 0.0, 0.0]]), ctx) == 0.0

    def test_hand_worked_single_step(self):
        # one observation at 1, reference prediction sits exactly on it,
        # unit variance weight: S_1(c=0) = 1 + 0.5 * (1 - 0)^2 = 1.5
        ctx = ScoreContext(np.array([[1.0]]), np.array([0.0]), np.array([1.0]))
        assert score(Centers([[0.0]]), ctx) == pytest.approx(1.5, rel=0, abs=0)

    def test_variance_terms_vanish_when_losses_match(self):
        rng = seeded_rng(11, 0)
        pts = rng.standard_normal((2, 2))
        xs = rng.standard_normal((6, 2))
        c = Centers(pts)
        losses = np.array([instantaneous_loss(c, x) for x in xs])
        ctx = ScoreContext(xs, losses, np.ones(6))
        assert score(c, ctx) == pytest.approx(losses.sum(), rel=1e-12)

    def test_score_dominates_plain_loss(self):
        rng = seeded_rng(12, 0)
        ctx = random_context(rng, 10, 2)
        c = Centers(rng.standard_normal((3, 2)))
        plain = sum(instantaneous_loss(c, x) for x in ctx.observations)
        assert score(c, ctx) >= plain

    def test_dimension_mismatch(self):
        ctx = random_context(seeded_rng(1, 0), 4, 3)
        with pytest.raises(ValueError):
            score(Centers([[0.0, 0.0]]), ctx)

    def test_batch_matches_scalar(self):
        rng = seeded_rng(13, 0)
        ctx = random_context(rng, 8, 2)
        stack = rng.standard_normal((40, 3, 2))
        batch = score_batch(stack, ctx)
        for i in range(40):
            assert batch[i] == score(Centers(stack[i]), ctx)
