"""Log-densities of the model-selection prior over variable-length center sets.

The prior factorizes as a discrete distribution q over the number of
clusters k in {1..p} times, per k, a product of k independent blocks in
R^d.  Two block families are provided:

* ``uniform``: uniform on the ball of radius 2R (closed-form constant);
* ``student``: heavy-tailed block with 3 degrees of freedom and scale
  ``tau0``, truncated to the same ball.  Its truncation mass is the F(d, 3)
  CDF at (2R)^2 / (2 d tau0^2), computed exactly as a regularised
  incomplete beta function.

All densities are exact (normalizing constants included) because ratios
across different k enter the transdimensional acceptance probability.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import Centers, check_radius
from .core import seeded_rng  # noqa: F401  bench/tracing.py wraps it here until ROADMAP item 1

__all__ = [
    "log_q",
    "q_masses",
    "estimate_truncation_prob",
    "PriorSpec",
    "log_prior",
    "log_prior_batch",
    "sample_prior",
    "student_block_log_norm",
    "student_log_shape",
]

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


def student_blocks(g: np.ndarray, w: np.ndarray, tau: float, loc) -> np.ndarray:
    """Blocks of the 3-dof heavy-tailed family, scale tau, around ``loc``:
    loc + sqrt(2) tau g / sqrt(w / 3), float for float, from standard normal
    draws ``g`` (d per block) and chi-square(3) draws ``w`` (one per block,
    on a last axis of length 1).  Made in place: overwrites both, returns g."""
    w /= 3.0
    g *= math.sqrt(2.0) * tau
    g /= np.sqrt(w, out=w)
    g += loc
    return g


def estimate_truncation_prob(dim: int, radius: float, scale: float) -> float:
    """P(|X|_2 <= 2*radius) for one untruncated block, exactly.

    |X|^2 / (2 d scale^2) follows an F(d, 3) law, so the mass is the F(d, 3)
    CDF at x = (2R)^2 / (2 d scale^2): the regularised incomplete beta
    function I_z(a, b) with a = d/2, b = 3/2 and z = d x / (d x + 3).  It is
    summed as the series of positive terms
    z^a (1-z)^b / (a B(a, b)) * sum_n (a+b)_n / (a+1)_n z^n, or, above
    z = (a + 1) / (a + b + 2), as 1 - I_{1-z}(b, a) by the same series.
    Returns 1.0 for radius=inf (and when d x overflows).
    """
    spread = radius / scale
    dx = 2.0 * spread * spread  # d * x, formed without raising on overflow
    if dx == math.inf:
        return 1.0
    a, b, z, z_c = dim / 2, 1.5, dx / (dx + 3.0), 3.0 / (dx + 3.0)
    upper = z >= (a + 1) / (a + b + 2)
    if upper:
        a, b, z, z_c = b, a, z_c, z
    total = term = 1.0
    for n in itertools.count():
        ratio = z * (a + b + n) / (a + 1 + n)
        term *= ratio
        total += term
        r = max(ratio, z)  # bounds every later ratio, so the tail is at most term * r / (1 - r)
        if r < 1.0 and term * r <= 1e-17 * total * (1.0 - r):
            break
    mass = (z**a * z_c**b * math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
            / a * total)
    return 1.0 - mass if upper else mass


@dataclass(frozen=True)
class PriorSpec:
    """Fully resolved prior: block family plus the cluster-count law.  Building
    one is the one check of the prior settings (``StreamConfig.prior`` builds it)."""

    kind: str  # "uniform" | "student"
    dim: int
    max_clusters: int
    radius: float
    decay: float = 0.0
    scale: float = 1.0  # student only
    # log-density constant shared by every in-support block, set from the fields above
    block_log_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("uniform", "student"):
            raise ValueError(f"unknown prior_kind {self.kind!r}")
        if not self.dim >= 1:
            raise ValueError("dim must be >= 1")
        if not self.max_clusters >= 1:
            raise ValueError("max_clusters must be >= 1")
        if not self.radius > 0:
            raise ValueError("radius must be > 0")
        if math.isinf(self.radius) and self.kind != "student":
            raise ValueError("radius=inf needs the student prior")
        if math.isfinite(self.radius):  # radius=inf (student prior) has no square to check
            check_radius(self.radius, "the prior")
        if not 0 <= self.decay < math.inf:
            raise ValueError("decay must be >= 0 and finite")
        if not 0 < self.scale < math.inf:
            raise ValueError("prior_scale must be > 0 and finite")
        if self.kind == "uniform":
            log_norm = (math.lgamma(self.dim / 2 + 1) - (self.dim / 2) * math.log(math.pi)
                        - self.dim * math.log(2 * self.radius))
        else:
            mass = estimate_truncation_prob(self.dim, self.radius, self.scale)
            if not mass >= 1e-4:  # sample_prior takes about 1/mass draws per block
                raise ValueError(f"the student prior keeps mass {mass:.3g} inside the ball of "
                                 "radius 2R, below 1e-4: raise radius or lower prior_scale")
            log_norm = student_block_log_norm(self.dim, self.scale) - math.log(mass)
        object.__setattr__(self, "block_log_norm", log_norm)

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
    lq, k_block = log_q(k, spec.max_clusters, spec.decay), k * spec.block_log_norm
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
        g = rng.standard_normal((k - filled, spec.dim))
        cand = student_blocks(g, rng.chisquare(3, size=(k - filled, 1)), spec.scale, 0.0)
        keep = ~_outside_support(np.einsum("ij,ij->i", cand, cand), spec.radius)
        m = int(keep.sum())
        if m:
            rows[filled : filled + m] = cand[keep]
            filled += m
    return Centers(rows)
