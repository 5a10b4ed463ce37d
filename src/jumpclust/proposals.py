"""Proposal machinery for the transdimensional sampler.

A proposal for a k-block move is an independence draw from a product of k
heavy-tailed blocks (3 degrees of freedom) centered at the k-means fit of
the data seen so far, with a scale that shrinks like 1/sqrt(p*t).  The
k-means fits are cached per (time step, k): within one step every chain
iteration reuses the same locations.  A (step, k) fit runs Lloyd from the
latest fit of k at any earlier step and from the split of the step's
(k-1)-fit; a k no earlier step fitted, or above the point count, is fitted
cold from k-means++ seedings on the (step, k) fit's own seeded stream.  So
fits do not depend on the order the chain visits dimensions within a step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .core import KMeansConfig
from .priors import student_block_log_norm, student_blocks, student_log_shape
from .scoring import nearest_sq_dist, sq_dists

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


def student_log_density(points: np.ndarray, params: ProposalParams) -> np.ndarray:
    """Exact log-density of the k-block proposal at each row of a (n, k, d)
    stack: an (n,) array whose entry i equals row i evaluated alone.

    Each block is a d-variate Student distribution with 3 degrees of
    freedom, location params.locations[j] and scale matrix 2*tau^2*I,
    including its closed-form normalizing constant.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 3 or pts.shape[1:] != params.locations.shape:
        raise ValueError(f"center shape {pts.shape[1:]} != proposal shape {params.locations.shape}")
    diff = pts - params.locations
    sq_dist = np.einsum("nkd,nkd->nk", diff, diff)
    log_norm = params.k * student_block_log_norm(params.dim, params.tau)
    return log_norm + student_log_shape(sq_dist, params.dim, params.tau)


# rows of one draw block of student_sample
BLOCK_ROWS = 32


def student_sample(params: ProposalParams, n: int, rng) -> np.ndarray:
    """n independent draws of all k blocks of the proposal, as a (n, k, d) stack.

    Rows are drawn in consecutive blocks of ``BLOCK_ROWS``, each block's
    normals and then its chi-square(3) variates (2 * standard_gamma(1.5), as
    numpy's Generator defines them), so a call equals its blocks drawn by
    their own calls from the same generator: prefixes do not depend on n.
    """
    k, d = params.locations.shape
    g, w = np.empty((n, k, d)), np.empty((n, k, 1))
    for i in range(0, n, BLOCK_ROWS):
        rng.standard_normal(out=g[i : i + BLOCK_ROWS])
        rng.standard_gamma(1.5, out=w[i : i + BLOCK_ROWS])
    w *= 2.0
    return student_blocks(g, w, params.tau, params.locations)


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
    return float(nearest_sq_dist(centers, data.T).sum())


def _plusplus_init(x: np.ndarray, xt: np.ndarray, k: int, restarts: int, rng) -> np.ndarray:
    """k-means++ seeding, vectorized across restarts. Returns (restarts, k, d)."""
    n = x.shape[0]
    centers = np.empty((restarts, k, x.shape[1]))
    centers[:, 0] = x[rng.integers(0, n, size=restarts)]
    d2 = sq_dists(centers[:, :1], xt)[:, 0]  # (restarts, n)
    for j in range(1, k):
        totals = d2.sum(axis=1, keepdims=True)
        probs = np.where(totals > 0, d2 / np.where(totals > 0, totals, 1.0), 1.0 / n)
        cum = probs.cumsum(axis=1)
        u = rng.random((restarts, 1))
        idx = (cum >= u).argmax(axis=1)
        centers[:, j] = x[idx]
        d2 = np.minimum(d2, sq_dists(centers[:, j : j + 1], xt)[:, 0])
    return centers


_TOL = 1e-8  # a restart whose pass improves its loss by less than this fraction is done
_MAX_ITER = 100  # Lloyd passes at most; no fit in the tests or benchmark workloads takes 25


def _lloyd(x: np.ndarray, xt: np.ndarray, centers: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations on a (restarts, k, d) stack; empty clusters are
    reseeded to each restart's farthest point.  Returns (centers, losses).

    A restart is done, and keeps the centers a pass scored, when that
    pass's loss is not below (1 - _TOL) times the previous pass's, or when
    the pass finds it settled: labels equal to the previous pass's and no
    empty cluster.  A settled restart's centers are the means of those same
    labels, so its new means are bit for bit its centers and later passes
    would only repeat this one; counting it done changes no bit.  Once
    every restart is done, the losses that pass computed are returned;
    only the ``_MAX_ITER`` exit scores the centers again.
    """
    restarts, k, _ = centers.shape
    prev = np.full(restarts, np.inf)
    prev_labels = None
    eye = np.eye(k)
    row_offsets = k * np.arange(restarts)[:, None]
    for _ in range(_MAX_ITER):
        d2 = sq_dists(centers, xt)  # (r, k, n)
        labels = d2.argmin(axis=1)
        point_loss = d2.min(axis=1)
        loss = point_loss.sum(axis=1)
        counts = np.bincount((labels + row_offsets).ravel(), minlength=restarts * k)
        counts = counts.reshape(restarts, k)
        full = counts.all(axis=1)
        done = loss >= prev * (1.0 - _TOL)
        if prev_labels is not None:
            done |= full & (labels == prev_labels).all(axis=1)
        if done.all():
            return centers, loss
        sums = np.einsum("rnk,nd->rkd", eye[labels], x)
        if full.all():
            new_centers = sums / counts[:, :, None]
        else:
            new_centers = np.where(
                counts[:, :, None] > 0, sums / np.maximum(counts, 1)[:, :, None], centers
            )
            for r in np.nonzero(~full)[0]:
                empty = np.nonzero(counts[r] == 0)[0]
                farthest = np.argsort(point_loss[r])[::-1][: empty.size]
                new_centers[r, empty] = x[farthest]
        centers = np.where(done[:, None, None], centers, new_centers)
        prev, prev_labels = loss, labels
    return centers, nearest_sq_dist(centers, xt).sum(axis=1)


def kmeans_fit(
    data: np.ndarray,
    k: int,
    cfg: KMeansConfig = KMeansConfig(),
    rng=None,
    extra_init: Optional[np.ndarray] = None,
    pad_jitter: float = 1e-6,
) -> np.ndarray:
    """Best-of-restarts Lloyd fit: a read-only (k, d) array of centers.

    Lloyd runs from one stack of starts: ``cfg.restarts`` k-means++
    seedings when ``rng`` is given, then the (k, d) or (m, k, d) starts of
    ``extra_init`` (such as an earlier fit of k, or the best (k-1)-fit plus
    a split, which makes the fitted loss non-increasing in k).  A fit
    without ``rng`` draws no random numbers; a cold fit (no
    ``extra_init``) needs it, and so does a padded one: with fewer points
    than k (including none) the centers are the points themselves plus
    jittered copies, so the fitter always returns exactly k finite centers.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise ValueError("data must be a (n, d) array")
    if not np.isfinite(x).all():
        raise ValueError("data must have finite coordinates")
    n, d = x.shape
    if rng is None and (n < k or extra_init is None):
        raise ValueError("a cold or padded k-means fit needs rng")
    if n == 0:
        fit = pad_jitter * rng.standard_normal((k, d))
    elif n < k:
        pad = x[rng.integers(0, n, size=k - n)]
        fit = np.concatenate([x, pad + pad_jitter * rng.standard_normal(pad.shape)])
    else:
        xt = np.ascontiguousarray(x.T)
        starts = [] if rng is None else [_plusplus_init(x, xt, k, cfg.restarts, rng)]
        if extra_init is not None:
            extra = np.asarray(extra_init, dtype=float)
            if extra.shape[-2:] != (k, d) or extra.ndim not in (2, 3):
                raise ValueError(f"extra_init must be a (k, d) or (m, k, d) stack, k={k}, d={d}")
            starts.append(extra.reshape(-1, k, d))
        centers, losses = _lloyd(x, xt, np.concatenate(starts))
        fit = centers[int(losses.argmin())].copy()
    fit.flags.writeable = False
    return fit


# --- per-step cache --------------------------------------------------------

class StepProposals:
    """Proposal parameters for every k at one time step.

    Fits are performed lazily in ascending k.  A k with at least k points
    fits from one stack of starts: the latest fit of k at an earlier step,
    if ``earlier_fits`` (k -> that fit; carried by the caller, updated
    here) holds one, then the best (k-1)-fit plus the farthest point as
    the split center, which keeps the within-cluster loss of the fitted
    locations non-increasing in k.  Only a k with no earlier fit, or above
    the point count, reads ``rng_for_k(k)``: for ``kmeans_cfg.restarts``
    k-means++ seedings, or for the padding.
    """

    def __init__(
        self,
        data: np.ndarray,
        tau: float,
        max_clusters: int,
        rng_for_k: Callable[[int], np.random.Generator],
        kmeans_cfg: KMeansConfig = KMeansConfig(),
        jitter_scale: float = 1.0,
        earlier_fits: Optional[Dict[int, np.ndarray]] = None,
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
        self._params: Dict[int, ProposalParams] = {}
        self._earlier = {} if earlier_fits is None else earlier_fits

    def _fit(self, k: int) -> None:
        n = self.data.shape[0]
        earlier = self._earlier.get(k) if k <= n else None
        starts = [] if earlier is None else [earlier]
        prev = self._params.get(k - 1)
        if prev is not None and k <= n:
            far = self.data[nearest_sq_dist(prev.locations, self.data.T).argmax()]
            starts.append(np.concatenate([prev.locations, far.reshape(1, -1)]))
        rng = self._rng_for_k(k) if earlier is None else None
        fit = kmeans_fit(self.data, k, self.kmeans_cfg, rng, starts or None, self._jitter)
        self._earlier[k] = fit
        self._params[k] = ProposalParams(fit, self.tau)

    def params(self, k: int) -> ProposalParams:
        """The step's k-block proposal, fitted on first use and then reused."""
        params = self._params.get(k)
        if params is not None:
            return params
        if not 1 <= k <= self.max_clusters:
            raise ValueError(f"k={k} outside {{1..{self.max_clusters}}}")
        for kk in range(1, k + 1):
            if kk not in self._params:
                self._fit(kk)
        return self._params[k]
