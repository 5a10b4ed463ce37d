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

from dataclasses import dataclass, field

import numpy as np

from .core import Centers

__all__ = [
    "sq_dists",
    "nearest_sq_dist",
    "instantaneous_loss",
    "ScoreContext",
    "score",
    "score_batch",
]


def sq_dists(points: np.ndarray, xs_t: np.ndarray) -> np.ndarray:
    """Squared distance from every row of points to every column of xs_t (d, t).

    ``points`` is a (..., k, d) stack of center vectors; the result is
    (..., k, t).  The observations come coordinate-major, so each
    coordinate is one contiguous length-t row.  The sum starts at
    (p_0 - x_0)^2 and adds (p_j - x_j)^2 for j = 1..d-1 in order, one
    (..., k, t) term at a time, so column s of the result does not depend
    on how many observations share the call.
    """
    out = points[..., :, 0, None] - xs_t[0]  # (..., k, t)
    out *= out
    for j in range(1, xs_t.shape[0]):
        term = points[..., :, j, None] - xs_t[j]
        term *= term
        out += term
    return out


def nearest_sq_dist(points: np.ndarray, xs_t: np.ndarray) -> np.ndarray:
    """Squared distance from each column of xs_t (d, t) to its nearest row of
    points: the min over k of :func:`sq_dists`, (t,) for one (k, d) center
    vector and a C-contiguous (n, t) for a (n, k, d) stack.

    The min runs over k contiguous slabs, in one of two loop orders:

    - a stack with more rows than observations (n > t) builds its (k, t, n)
      distances with the rows innermost, :func:`sq_dists` of the
      observations against a coordinate-major (d, k, 1, n) copy of the
      points, and transposes the (t, n) min;
    - every other shape builds center-major (k, ..., t) distances.

    numpy pays per inner loop, and an inner loop spans the last axis, so the
    rule puts the longer of n and t there.  Each distance is the same
    per-coordinate sum in the same order ((x - p)^2 and (p - x)^2 round
    alike) and a min is exact, so no byte depends on the order.  Time of
    the rows-innermost order over the center-major one (best of 15, 2
    cores, numpy 2.4.6):

        (n, k, d, t)          ratio
        (4096, 3, 1, 3)       0.36   one grid-oracle chunk
        (4096, 1, 1, 3)       0.60
        (512, 8, 2, 3)        0.46
        (64, 20, 2, 5)        0.59
        (24, 20, 2, 24)       0.97
        (128, 1, 1, 120)      1.68   k = 1 at long t: the rule loses here
        (24, 20, 2, 120)      1.05   n <= t, kept center-major

    Over the calls of one benchmark operation (seed 7), the rule takes 65 %
    off this kernel's time on the grid-oracle check and 23 % on short
    replicated streams, and under 1 % on long streams, where rows are few
    next to t; rows innermost for every shape would add 6-10 % to the
    kernel's time there.
    """
    if points.ndim == 3 and points.shape[0] > xs_t.shape[1]:
        rows = np.ascontiguousarray(points.transpose(2, 1, 0))[:, :, None, :]
        return np.ascontiguousarray(sq_dists(xs_t.T, rows).min(axis=0).T)
    center_major = np.ascontiguousarray(points.transpose(-2, *range(points.ndim - 2), -1))
    return sq_dists(center_major, xs_t).min(axis=0)


def instantaneous_loss(c: Centers, x) -> float:
    """Squared euclidean distance from x to its nearest center in c."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    if x.shape[1] != c.dim:
        raise ValueError(f"observation dimension {x.shape[1]} != center dimension {c.dim}")
    return float(nearest_sq_dist(c.points, x.T)[0])


@dataclass(frozen=True)
class ScoreContext:
    """View of the stream history sufficient to evaluate S_t at any centers.

    observations: (t, d) array of revealed points (a list of (d,) points
                  is converted).
    ref_losses:   (t,) realized loss of the prediction used at each step.
    lam_prev:     (t,) inverse temperature weighting each step's variance
                  term (entry s holds lambda_{s-1}).
    observations_t: C-contiguous (d, t) copy of the observations, built
                  once for :func:`nearest_sq_dist`.
    """

    observations: np.ndarray
    ref_losses: np.ndarray
    lam_prev: np.ndarray
    observations_t: np.ndarray = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "observations_t", np.ascontiguousarray(obs.T))
        object.__setattr__(self, "ref_losses", ref)
        object.__setattr__(self, "lam_prev", lam)

    @property
    def t(self) -> int:
        return self.observations.shape[0]

    @classmethod
    def empty(cls, dim: int) -> "ScoreContext":
        return cls(np.zeros((0, dim)), np.zeros(0), np.zeros(0))


def score(c: Centers, ctx: ScoreContext) -> float:
    """Batch evaluation of S_t(c); returns 0.0 for an empty context."""
    if ctx.t == 0:
        return 0.0
    if ctx.observations.shape[1] != c.dim:
        raise ValueError(
            f"context dimension {ctx.observations.shape[1]} != center dimension {c.dim}"
        )
    return float(score_batch(c.points[None], ctx)[0])


def score_batch(points: np.ndarray, ctx: ScoreContext) -> np.ndarray:
    """Vectorized S_t over a (n, k, d) stack of center vectors."""
    points = np.asarray(points, dtype=float)
    if ctx.t == 0:
        return np.zeros(points.shape[0])
    losses = nearest_sq_dist(points, ctx.observations_t)
    dev = losses - ctx.ref_losses
    # one (1, t) @ (t,) product per row: a row's value does not depend on n
    return losses.sum(axis=1) + 0.5 * ((dev * dev)[:, None, :] @ ctx.lam_prev)[:, 0]
