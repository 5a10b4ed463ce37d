"""Proposal machinery for the transdimensional sampler.

A proposal for a k-block move is an independence draw from a product of k
heavy-tailed blocks (3 degrees of freedom) centered at the k-means fit of
the data seen so far, with a scale that shrinks like 1/sqrt(p*t).  The
k-means fits are cached per (time step, k): within one step every chain
iteration reuses the same locations, and each (step, k) fit draws from its
own seeded stream so results do not depend on the order the chain visits
dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .core import Centers, KMeansConfig
from .priors import sample_student_blocks, student_block_log_norm, student_log_shape
from .scoring import nearest_sq_dist

__all__ = [
    "ProposalParams",
    "student_log_density",
    "student_sample",
    "kmeans_fit",
    "within_cluster_loss",
    "proposal_scale",
    "StepProposals",
]


@dataclass(frozen=True)
class ProposalParams:
    """Locations and scale of one k-block proposal distribution."""

    locations: np.ndarray  # (k, d)
    tau: float

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float)
        if loc.ndim != 2:
            raise ValueError("locations must be a (k, d) array")
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        object.__setattr__(self, "locations", loc)

    @property
    def k(self) -> int:
        return self.locations.shape[0]

    @property
    def dim(self) -> int:
        return self.locations.shape[1]


def _points_of(c) -> np.ndarray:
    return c.points if isinstance(c, Centers) else np.asarray(c, dtype=float)


def student_log_density(c, params: ProposalParams) -> float:
    """Exact log-density of the k-block proposal at center vector c.

    Each block is a d-variate Student distribution with 3 degrees of
    freedom, location params.locations[j] and scale matrix 2*tau^2*I,
    including its closed-form normalizing constant.
    """
    pts = _points_of(c)
    if pts.shape != params.locations.shape:
        raise ValueError(
            f"center shape {pts.shape} != proposal locations shape {params.locations.shape}"
        )
    diff = pts - params.locations
    shape_term = student_log_shape(np.einsum("kd,kd->k", diff, diff), params.dim, params.tau)
    return params.k * student_block_log_norm(params.dim, params.tau) + float(shape_term)


def student_sample(params: ProposalParams, rng) -> Centers:
    """Independent draw of all k blocks of the proposal."""
    return Centers(
        sample_student_blocks(params.k, params.dim, params.tau, params.locations, rng)
    )


def proposal_scale(p: int, t: int) -> float:
    """Scale 1/sqrt(p*t) of the step-t proposal; t=0 is treated as the first step."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    return 1.0 / math.sqrt(p * max(t, 1))


# --- k-means fitter --------------------------------------------------------

def within_cluster_loss(centers: np.ndarray, data: np.ndarray) -> float:
    """Sum over data points of squared distance to the nearest center."""
    if data.shape[0] == 0:
        return 0.0
    return float(nearest_sq_dist(centers, data).sum())


def _plusplus_init(x: np.ndarray, k: int, restarts: int, rng) -> np.ndarray:
    """k-means++ seeding, vectorized across restarts. Returns (restarts, k, d)."""
    n = x.shape[0]
    centers = np.empty((restarts, k, x.shape[1]))
    centers[:, 0] = x[rng.integers(0, n, size=restarts)]
    d2 = ((x[None, :, :] - centers[:, 0, None, :]) ** 2).sum(-1)  # (restarts, n)
    for j in range(1, k):
        totals = d2.sum(axis=1, keepdims=True)
        probs = np.where(totals > 0, d2 / np.where(totals > 0, totals, 1.0), 1.0 / n)
        cum = probs.cumsum(axis=1)
        u = rng.random((restarts, 1))
        idx = (cum >= u).argmax(axis=1)
        centers[:, j] = x[idx]
        d2 = np.minimum(d2, ((x[None, :, :] - centers[:, j, None, :]) ** 2).sum(-1))
    return centers


def _lloyd(
    x: np.ndarray, centers: np.ndarray, max_iter: int, tol: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations on a (restarts, k, d) stack; empty clusters are
    reseeded to each restart's farthest point.  Returns (centers, losses)."""
    restarts, k, _ = centers.shape
    prev = np.full(restarts, np.inf)
    eye = np.eye(k, dtype=bool)
    for _ in range(max_iter):
        d2 = ((x[None, :, None, :] - centers[:, None, :, :]) ** 2).sum(-1)  # (r, n, k)
        labels = d2.argmin(axis=2)
        point_loss = np.take_along_axis(d2, labels[:, :, None], axis=2)[:, :, 0]
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
    losses = np.array([within_cluster_loss(centers[r], x) for r in range(restarts)])
    return centers, losses


def kmeans_fit(
    data: np.ndarray,
    k: int,
    cfg: KMeansConfig = KMeansConfig(),
    rng=None,
    extra_init: Optional[np.ndarray] = None,
    pad_jitter: float = 1e-6,
) -> Centers:
    """Best-of-restarts Lloyd fit with k-means++ seeding.

    Degenerate inputs are padded rather than rejected: with fewer distinct
    points than k (including no points at all) the centers are the points
    themselves plus jittered copies, so the fitter always returns exactly k
    finite centers.  ``extra_init`` adds one extra starting stack (used to
    inherit the best (k-1)-fit plus a split, which makes the fitted loss
    non-increasing in k).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    x = np.asarray(data, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if x.ndim != 2:
        raise ValueError("data must be a (n, d) array")
    n = x.shape[0]
    if n == 0:
        return Centers(pad_jitter * rng.standard_normal((k, x.shape[1])))
    if n < k:
        pad = x[rng.integers(0, n, size=k - n)]
        pts = np.concatenate([x, pad + pad_jitter * rng.standard_normal(pad.shape)])
        return Centers(pts)

    inits = _plusplus_init(x, k, cfg.restarts, rng)
    if extra_init is not None:
        extra = np.asarray(extra_init, dtype=float).reshape(1, k, x.shape[1])
        inits = np.concatenate([inits, extra], axis=0)
    centers, losses = _lloyd(x, inits, cfg.max_iter, cfg.tol)
    return Centers(centers[int(losses.argmin())])


# --- per-step cache --------------------------------------------------------

class StepProposals:
    """Proposal parameters for every k at one time step.

    Fits are performed lazily in ascending k so each fit can inherit the
    best lower-k solution (plus the farthest point as the split center) as
    one of its starting stacks; this enforces that the within-cluster loss
    of the fitted locations never increases with k.
    """

    def __init__(
        self,
        data: np.ndarray,
        tau: float,
        max_clusters: int,
        kmeans_cfg: KMeansConfig,
        rng_for_k: Callable[[int], np.random.Generator],
        jitter_scale: float = 1.0,
    ):
        x = np.asarray(data, dtype=float)
        if x.ndim != 2:
            raise ValueError("data must be a (n, d) array (possibly with n = 0)")
        self.data = x
        self.tau = float(tau)
        self.max_clusters = int(max_clusters)
        self.kmeans_cfg = kmeans_cfg
        self._rng_for_k = rng_for_k
        self._jitter = 1e-6 * jitter_scale
        self._fits: Dict[int, np.ndarray] = {}
        self._losses: Dict[int, float] = {}

    def _fit(self, k: int) -> None:
        extra = None
        prev = self._fits.get(k - 1)
        n = self.data.shape[0]
        if prev is not None and k <= n:
            far = self.data[nearest_sq_dist(prev, self.data).argmax()]
            extra = np.concatenate([prev, far.reshape(1, -1)])
        fit = kmeans_fit(
            self.data,
            k,
            self.kmeans_cfg,
            self._rng_for_k(k),
            extra_init=extra,
            pad_jitter=self._jitter,
        )
        self._fits[k] = fit.points
        self._losses[k] = within_cluster_loss(fit.points, self.data)

    def locations(self, k: int) -> np.ndarray:
        if not 1 <= k <= self.max_clusters:
            raise ValueError(f"k={k} outside {{1..{self.max_clusters}}}")
        for kk in range(1, k + 1):
            if kk not in self._fits:
                self._fit(kk)
        return self._fits[k]

    def fitted_loss(self, k: int) -> float:
        self.locations(k)
        return self._losses[k]

    def params(self, k: int) -> ProposalParams:
        return ProposalParams(self.locations(k), self.tau)
