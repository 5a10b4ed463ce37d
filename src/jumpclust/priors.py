"""Log-densities of the model-selection prior over variable-length center sets.

The prior factorizes as a discrete distribution q over the number of
clusters k in {1..p} times, per k, a product of k independent blocks in
R^d.  Two block families are provided:

* ``uniform``: uniform on the ball of radius 2R (closed-form constant);
* ``student``: heavy-tailed block with 3 degrees of freedom and scale
  ``tau0``, truncated to the same ball.  Its truncation mass, the F(d, 3)
  CDF at (2R)^2 / (2 d tau0^2), is estimated once by seeded Monte Carlo
  (cached per (dim, radius, scale), with its standard error) because the
  benchmark traces that estimate; ROADMAP item 2 puts the closed form in.

All densities are exact (normalizing constants included) because ratios
across different k enter the transdimensional acceptance probability.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import Centers, check_prior_settings, seeded_rng

__all__ = [
    "log_q",
    "q_masses",
    "TruncationEstimate",
    "estimate_truncation_prob",
    "PriorSpec",
    "log_prior",
    "log_prior_batch",
    "sample_prior",
    "student_block_log_norm",
    "student_log_shape",
]

_TRUNC_SAMPLES = 1_000_000
_TRUNC_SEED = 20_170_301


@functools.lru_cache(maxsize=None)
def _log_q_table(p: int, eta: float) -> np.ndarray:
    """Read-only log-masses of q(1..p), memoised per (p, eta).  The log-sum-exp
    keeps scipy.special.logsumexp's float order: the m maximal entries sum apart."""
    a = -eta * np.arange(1, p + 1, dtype=float)
    a_max, top = a.max(), a == a.max()
    m = float(np.count_nonzero(top))
    s = np.exp(np.where(top, -np.inf, a) - a_max).sum()
    logs = a - (np.log1p(s / m) + np.log(m) + a_max)
    logs.flags.writeable = False
    return logs


def log_q(k: int, p: int, eta: float) -> float:
    """Log-mass of the cluster-count prior q(k) = exp(-eta*k) / sum_i exp(-eta*i)."""
    if not 1 <= k <= p:
        raise ValueError(f"k={k} outside {{1..{p}}}")
    if eta < 0:
        raise ValueError("eta must be >= 0")
    return float(_log_q_table(p, eta)[k - 1])


def q_masses(p: int, eta: float) -> np.ndarray:
    """All p masses of q at once."""
    return np.exp(_log_q_table(p, eta))


def student_block_log_norm(dim: int, tau: float) -> float:
    """Log normalizing constant of one untruncated heavy-tailed block.

    The block density is  C * (1 + |x - m|^2 / (6 tau^2))^(-(3+d)/2),
    i.e. a d-variate Student distribution with 3 degrees of freedom and
    scale matrix 2 tau^2 I; this returns log C.
    """
    if tau <= 0:
        raise ValueError("tau must be > 0")
    return (
        math.lgamma((3 + dim) / 2)
        - math.lgamma(1.5)
        - (dim / 2) * math.log(6 * math.pi)
        - dim * math.log(tau)
    )


def student_log_shape(sq_dist: np.ndarray, dim: int, tau: float) -> np.ndarray:
    """Log of the block density's shape factor, summed over the last axis.

    ``sq_dist`` holds |x - m|^2 per block; the result plus k times
    :func:`student_block_log_norm` is the log-density of k blocks.
    """
    return -0.5 * (3 + dim) * np.log1p(sq_dist / (6.0 * tau**2)).sum(axis=-1)


def _outside_support(sq_norms: np.ndarray, radius: float) -> np.ndarray:
    """Which squared norms fall outside the ball of radius 2R (none when R is inf)."""
    return sq_norms > (2.0 * radius) * (2.0 * radius)


def sample_student_blocks(shape: tuple, dim: int, tau: float, loc, rng) -> np.ndarray:
    """Draw a ``shape`` array of independent blocks of the 3-dof heavy-tailed
    family, scale tau: the result has shape ``shape + (dim,)``."""
    g = rng.standard_normal((*shape, dim))
    w = rng.chisquare(3, size=(*shape, 1))
    return np.asarray(loc, dtype=float) + math.sqrt(2.0) * tau * g / np.sqrt(w / 3.0)


@dataclass(frozen=True)
class TruncationEstimate:
    """Monte-Carlo estimate of a block's mass inside the ball of radius 2R."""

    prob: float
    stderr: float


@functools.lru_cache(maxsize=None)
def estimate_truncation_prob(dim: int, radius: float, scale: float) -> TruncationEstimate:
    """P(|X|_2 <= 2*radius) for one untruncated block, by seeded Monte Carlo
    over ``_TRUNC_SAMPLES`` draws.

    Estimates are memoised per argument tuple; the recorded standard error
    lets callers budget the residual bias when checking normalizations.
    """
    if math.isinf(radius):
        return TruncationEstimate(1.0, 0.0)
    rng = seeded_rng(_TRUNC_SEED, (dim, _TRUNC_SAMPLES))
    inside = 0
    chunk = 200_000
    for done in range(0, _TRUNC_SAMPLES, chunk):
        m = min(chunk, _TRUNC_SAMPLES - done)
        draws = sample_student_blocks((m,), dim, scale, 0.0, rng)
        outside = _outside_support(np.einsum("ij,ij->i", draws, draws), radius)
        inside += m - int(np.count_nonzero(outside))
    prob = inside / _TRUNC_SAMPLES
    stderr = math.sqrt(max(prob * (1.0 - prob), 1e-300) / _TRUNC_SAMPLES)
    return TruncationEstimate(prob, stderr)


@dataclass(frozen=True)
class PriorSpec:
    """Fully resolved prior: block family plus the cluster-count law."""

    kind: str  # "uniform" | "student"
    dim: int
    max_clusters: int
    radius: float
    decay: float = 0.0
    scale: float = 1.0  # student only
    trunc: Optional[TruncationEstimate] = field(init=False, default=None)  # student only

    def __post_init__(self):
        check_prior_settings(self.kind, self.dim, self.max_clusters, self.radius,
                             self.decay, self.scale)
        if self.kind == "student":
            object.__setattr__(
                self, "trunc", estimate_truncation_prob(self.dim, self.radius, self.scale)
            )

    @classmethod
    def from_config(cls, cfg) -> "PriorSpec":
        return cls(
            kind=cfg.prior_kind,
            dim=cfg.dim,
            max_clusters=cfg.max_clusters,
            radius=cfg.radius,
            decay=cfg.decay,
            scale=cfg.prior_scale,
        )

    def block_log_norm(self) -> float:
        """Log-density constant shared by every in-support block."""
        if self.kind == "uniform":
            return (
                math.lgamma(self.dim / 2 + 1)
                - (self.dim / 2) * math.log(math.pi)
                - self.dim * math.log(2 * self.radius)
            )
        return student_block_log_norm(self.dim, self.scale) - math.log(self.trunc.prob)


def log_prior(c: Centers, spec: PriorSpec) -> float:
    """Mixture prior over (k, centers): log q(k) + per-k block density."""
    if c.dim != spec.dim:
        raise ValueError(f"center dimension {c.dim} != prior dimension {spec.dim}")
    return float(log_prior_batch(c.points[None], spec)[0])


def log_prior_batch(points: np.ndarray, spec: PriorSpec) -> np.ndarray:
    """Exact log-prior of each center vector in a (n, k, d) stack of same-k vectors.

    Evaluated as log q(k) + (k * block constant + shape term), -inf for
    vectors with a center outside the ball of radius 2R.
    """
    points = np.asarray(points, dtype=float)
    n, k, _ = points.shape
    if not 1 <= k <= spec.max_clusters:
        raise ValueError(f"k={k} outside {{1..{spec.max_clusters}}}")
    lq, k_block = log_q(k, spec.max_clusters, spec.decay), k * spec.block_log_norm()
    norms2 = np.einsum("nkd,nkd->nk", points, points)
    if spec.kind == "student":
        # in place, in the float order log q + (k * constant + shape) the sampler has always used
        out = student_log_shape(norms2, spec.dim, spec.scale)
        out += k_block
        out += lq
    else:
        out = np.full(n, lq + k_block)
    out[_outside_support(norms2, spec.radius).any(axis=1)] = -math.inf
    return out


def sample_prior(spec: PriorSpec, rng) -> Centers:
    """Exact draw from the prior: k from q, then k independent blocks."""
    probs = q_masses(spec.max_clusters, spec.decay)
    k = int(rng.choice(spec.max_clusters, p=probs)) + 1
    if spec.kind == "uniform":
        g = rng.standard_normal((k, spec.dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        r = 2.0 * spec.radius * rng.random((k, 1)) ** (1.0 / spec.dim)
        return Centers(g * r)
    # student blocks: per-block rejection against the truncation ball
    rows = np.empty((k, spec.dim))
    filled = 0
    while filled < k:
        cand = sample_student_blocks((k - filled,), spec.dim, spec.scale, 0.0, rng)
        keep = ~_outside_support(np.einsum("ij,ij->i", cand, cand), spec.radius)
        m = int(keep.sum())
        if m:
            rows[filled : filled + m] = cand[keep]
            filled += m
    return Centers(rows)
