"""Clustering loss and the cumulative score that tilts the sampling target.

The per-observation loss of a center vector c is the squared distance to
the nearest center,

    loss(c, x) = min_j |c_j - x|_2^2 .

The cumulative score after t observations adds, on top of the plain loss
sum, a variance-control term that compares each candidate's loss with the
loss actually incurred by the step's prediction:

    S_t(c) = sum_{s<=t} [ loss(c, x_s)
                          + (lam_{s-1}/2) (loss(c, x_s) - ref_s)^2 ]

where ref_s is the realized loss of the prediction used at step s and the
lam coefficients come from the inverse-temperature schedule.  The quadratic
term is what keeps the exponential-weights machinery sound for this
non-convex loss.  S_0 = 0 identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Centers

__all__ = [
    "nearest_sq_dist",
    "instantaneous_loss",
    "ScoreContext",
    "score",
    "ScoreAccumulator",
    "losses_to_points",
    "score_batch",
]


def nearest_sq_dist(points: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Squared distance from each row of xs (t, d) to its nearest row of points (k, d)."""
    diff = xs[:, None, :] - points[None, :, :]
    return np.einsum("tkd,tkd->tk", diff, diff).min(axis=1)


def instantaneous_loss(c: Centers, x) -> float:
    """Squared euclidean distance from x to its nearest center in c."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    if x.shape[1] != c.dim:
        raise ValueError(f"observation dimension {x.shape[1]} != center dimension {c.dim}")
    return float(nearest_sq_dist(c.points, x)[0])


@dataclass(frozen=True)
class ScoreContext:
    """View of the stream history sufficient to evaluate S_t at any centers.

    observations: (t, d) array of revealed points.
    ref_losses:   (t,) realized loss of the prediction used at each step.
    lam_prev:     (t,) inverse temperature weighting each step's variance
                  term (entry s holds lambda_{s-1}).
    """

    observations: np.ndarray
    ref_losses: np.ndarray
    lam_prev: np.ndarray

    def __post_init__(self):
        obs = np.atleast_2d(np.asarray(self.observations, dtype=float))
        ref = np.asarray(self.ref_losses, dtype=float).reshape(-1)
        lam = np.asarray(self.lam_prev, dtype=float).reshape(-1)
        if obs.size == 0:
            obs = obs.reshape(0, max(1, obs.shape[-1] if obs.ndim == 2 else 1))
        if not (obs.shape[0] == ref.shape[0] == lam.shape[0]):
            raise ValueError(
                f"inconsistent context lengths: {obs.shape[0]} observations, "
                f"{ref.shape[0]} reference losses, {lam.shape[0]} lambdas"
            )
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "ref_losses", ref)
        object.__setattr__(self, "lam_prev", lam)

    @property
    def t(self) -> int:
        return self.observations.shape[0]

    @classmethod
    def empty(cls, dim: int) -> "ScoreContext":
        return cls(np.zeros((0, dim)), np.zeros(0), np.zeros(0))

    @classmethod
    def from_history(cls, history) -> "ScoreContext":
        return cls(
            history.observation_matrix(),
            np.asarray(history.output_losses, dtype=float),
            np.asarray(history.lambdas, dtype=float),
        )


def score(c: Centers, ctx: ScoreContext) -> float:
    """Batch evaluation of S_t(c); returns 0.0 for an empty context."""
    if ctx.t == 0:
        return 0.0
    if ctx.observations.shape[1] != c.dim:
        raise ValueError(
            f"context dimension {ctx.observations.shape[1]} != center dimension {c.dim}"
        )
    losses = nearest_sq_dist(c.points, ctx.observations)
    dev = losses - ctx.ref_losses
    return float(losses.sum() + 0.5 * np.dot(ctx.lam_prev, dev * dev))


class ScoreAccumulator:
    """Streaming evaluation of S_t at a fixed center vector.

    Built once from a context prefix, then extended one observation at a
    time; ``value`` always equals the batch score over the same history
    (up to float round-off, tested at 1e-10 relative).
    """

    def __init__(self, c: Centers, ctx: ScoreContext | None = None):
        self.c = c
        self._total = 0.0
        self._t = 0
        if ctx is not None and ctx.t > 0:
            self._total = score(c, ctx)
            self._t = ctx.t

    @property
    def t(self) -> int:
        return self._t

    @property
    def value(self) -> float:
        return self._total

    def update(self, x, ref_loss: float, lam_prev: float) -> float:
        """Append one step: returns S_{t+1}(c) after observing x."""
        loss = instantaneous_loss(self.c, x)
        self._total += loss + 0.5 * lam_prev * (loss - ref_loss) ** 2
        self._t += 1
        return self._total


def losses_to_points(points: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Per-observation loss for a batch of center vectors.

    points: (n, k, d) stack of center vectors; xs: (t, d) observations.
    Returns (n, t) losses.  Used by the grid oracle, where n is large.
    """
    points = np.asarray(points, dtype=float)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n, k, d = points.shape
    out = np.empty((n, xs.shape[0]))
    for s in range(xs.shape[0]):
        diff = points - xs[s]
        out[:, s] = np.einsum("nkd,nkd->nk", diff, diff).min(axis=1)
    return out


def score_batch(points: np.ndarray, ctx: ScoreContext) -> np.ndarray:
    """Vectorized S_t over a (n, k, d) stack of center vectors."""
    points = np.asarray(points, dtype=float)
    if ctx.t == 0:
        return np.zeros(points.shape[0])
    losses = losses_to_points(points, ctx.observations)
    dev = losses - ctx.ref_losses
    return losses.sum(axis=1) + 0.5 * (dev * dev) @ ctx.lam_prev
