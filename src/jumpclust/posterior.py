"""The score-tilted sampling target and a small-instance grid oracle.

After t observations the sampler targets the (unnormalized) density

    target(c) = exp(-lam * S_t(c)) * prior(c)

over the union of fixed-k slices.  Everything is done in log space: the
score grows linearly with t and raw densities would overflow long before
the acceptance ratio needs them.

The grid oracle brute-force normalizes the target on toy instances
(d <= 2, at most 3 slices) by tiling the exact support of every slice --
intervals in d=1, polar sectors in d=2 -- with midpoint cells.  Each
k-slice is invariant under relabelling its centers (the prior is q(k)
times k i.i.d. blocks, the score a min over centers), so the oracle
evaluates each unordered tuple of block cells once and weights it by its
number of distinct orderings; the sum equals the one over all ordered
tuples.  It returns the k-marginal, the (p,) array of slice
probabilities, and exists to validate the sampler, not to be fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Centers
from .priors import PriorSpec, log_prior, log_prior_batch
from .scoring import ScoreContext, score, score_batch

__all__ = [
    "TargetDensity",
    "log_target",
    "GridTooLargeError",
    "grid_oracle",
]

MAX_GRID_CELLS = 10**7
# cells evaluated per batch, which bounds the oracle's per-chunk temporaries:
# the (k, cells, t) distance array and the chunk's index and point stacks
_CELL_CHUNK = 2**12


@dataclass(frozen=True)
class TargetDensity:
    """One step's sampling target: inverse temperature, score context, prior.

    ``lam`` = 0 is allowed and makes the target coincide with the prior
    (used by diagnostics); schedules always emit strictly positive values.

    ``label_weighted`` multiplies each k-slice by k!.  The sampler's
    independence proposals anchor one ordering of the fitted locations per
    dimension, so on data-anchored targets the chain explores a single
    representative of each center vector's k! equivalent orderings;
    weighting slices by k! makes the visited representative carry its
    configuration's full mass.  Leave it off for targets whose slices are
    not label-anchored (priors, toy oracle checks): there the orderings
    are freely reachable and the factor would double-count.
    """

    lam: float
    ctx: ScoreContext
    prior: PriorSpec
    label_weighted: bool = False

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("inverse temperature must be >= 0")
        if self.ctx.t > 0 and self.ctx.observations.shape[1] != self.prior.dim:
            raise ValueError("score context dimension != prior dimension")

    @classmethod
    def prior_only(cls, prior: PriorSpec) -> "TargetDensity":
        return cls(0.0, ScoreContext.empty(prior.dim), prior)


def log_target(c, tgt: TargetDensity):
    """Unnormalized log-density of the target; -inf outside the prior support.

    ``c`` is one :class:`Centers` (a float, through :func:`log_prior` and
    :func:`score`) or a (n, k, d) stack of same-k center vectors (an (n,)
    array, through the batch evaluations; row i equals row i alone).
    """
    if isinstance(c, Centers):
        lp = log_prior(c, tgt.prior)
        if lp == -math.inf:
            return -math.inf
        out = lp if (tgt.lam == 0.0 or tgt.ctx.t == 0) else lp - tgt.lam * score(c, tgt.ctx)
        if tgt.label_weighted:
            out += math.lgamma(c.k + 1)
        return out
    points = np.asarray(c, dtype=float)
    if points.ndim != 3 or points.shape[2] != tgt.prior.dim:
        raise ValueError(f"need an (n, k, d) stack, dimension d={tgt.prior.dim}: {points.shape}")
    out = log_prior_batch(points, tgt.prior)
    if tgt.lam != 0.0 and tgt.ctx.t > 0:
        out = out - tgt.lam * score_batch(points, tgt.ctx)
    if tgt.label_weighted:
        out += math.lgamma(points.shape[1] + 1)
    return out


class GridTooLargeError(ValueError):
    """Requested grid exceeds the cell budget or the oracle's size limits."""


def _block_cells(dim: int, radius: float, resolution: int):
    """Midpoint cells tiling the ball of radius 2R for one center block.

    Returns (points (B, dim), volumes (B,)).  In d=1 the cells are
    intervals; in d=2 annular sectors whose areas are exact, so the tiling
    introduces no support-boundary error.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    lim = 2.0 * radius
    if dim == 1:
        edges = np.linspace(-lim, lim, resolution + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        vols = np.diff(edges)
        return mids.reshape(-1, 1), vols
    if dim == 2:
        r_edges = np.linspace(0.0, lim, resolution + 1)
        a_edges = np.linspace(0.0, 2.0 * math.pi, resolution + 1)
        r_mid = 0.5 * (r_edges[:-1] + r_edges[1:])
        a_mid = 0.5 * (a_edges[:-1] + a_edges[1:])
        # exact sector areas: (r_hi^2 - r_lo^2)/2 * dtheta
        areas = 0.5 * np.diff(r_edges**2)[:, None] * np.diff(a_edges)[None, :]
        rr, aa = np.meshgrid(r_mid, a_mid, indexing="ij")
        pts = np.stack([rr * np.cos(aa), rr * np.sin(aa)], axis=-1).reshape(-1, 2)
        return pts, areas.reshape(-1)
    raise GridTooLargeError(f"grid oracle supports d in {{1, 2}}, got d={dim}")


def _unordered_cells(b: int, k: int):
    """Chunks (idx (n, k), log_orders (n,)), n <= _CELL_CHUNK, of the
    nondecreasing k-tuples of range(b), each once.  log_orders =
    log(k!/prod_j m_j!), m_j the count of cell j, counts the tuple's
    orderings; prod_j m_j! is the product over positions of the length of
    the run of equal indices ending there."""
    idx = np.zeros((1, 0), dtype=np.intp)
    last = np.zeros(1, dtype=np.intp)
    run = np.zeros(1, dtype=np.intp)
    log_runs = np.zeros(1)
    for depth in range(1, k + 1):
        width = b - last  # choices of a next index >= last
        ends = np.cumsum(width)
        starts = ends - width
        n = int(ends[-1])
        step = _CELL_CHUNK if depth == k else n  # shorter tuples are built whole
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            # prefixes first..final cover the chunk, each once per position it owns
            first, final = np.searchsorted(starts, [lo, hi - 1], side="right") - 1
            prefixes = np.arange(first, final + 1)
            owned = np.minimum(ends[prefixes], hi) - np.maximum(starts[prefixes], lo)
            row = np.repeat(prefixes, owned)
            nxt = last[row] + (np.arange(lo, hi) - starts[row])
            nrun = np.where(nxt == last[row], run[row] + 1, 1)
            nidx = np.empty((hi - lo, depth), dtype=np.intp)
            nidx[:, :-1], nidx[:, -1] = idx[row], nxt
            nlog = log_runs[row] + np.log(nrun)
            if depth == k:
                yield nidx, math.lgamma(k + 1) - nlog
        idx, last, run, log_runs = nidx, nxt, nrun, nlog


def grid_oracle(tgt: TargetDensity, resolution: int) -> np.ndarray:
    """Brute-force normalization of the target on a toy instance: the
    read-only (p,) array of k-slice probabilities (the k-marginal).

    Each unordered tuple of block cells (a nondecreasing index tuple) is
    evaluated once through :func:`log_target` and counted once per
    distinct ordering, k!/prod_j m_j! times.  Reorderings have equal
    log-target and cell volume, so this is the Riemann sum over all b^k
    ordered tuples in C(b+k-1, k) evaluations.  The budget counts b^k.

    Memory is one float64 per unordered tuple, C(b+k-1, k) per slice, plus
    one chunk's temporaries: each slice's log-weights are written chunk by
    chunk into one array, which is then exponentiated in place.

    resolution
        Number of cells per axis (d=1) or per polar axis (d=2: resolution
        radial x resolution angular cells per block).
    """
    spec = tgt.prior
    if spec.dim > 2:
        raise GridTooLargeError("grid oracle is limited to d <= 2")
    if spec.max_clusters > 3:
        raise GridTooLargeError("grid oracle is limited to at most 3 slices")
    if math.isinf(spec.radius):
        raise GridTooLargeError("grid oracle needs a finite support radius")

    block_pts, block_vols = _block_cells(spec.dim, spec.radius, resolution)
    b = block_pts.shape[0]
    total = sum(b**k for k in range(1, spec.max_clusters + 1))
    if total > MAX_GRID_CELLS:
        raise GridTooLargeError(f"grid would need {total} cells (budget {MAX_GRID_CELLS})")

    log_block_vols = np.log(block_vols)
    slice_logs = []
    for k in range(1, spec.max_clusters + 1):
        v, lo = np.empty(math.comb(b + k - 1, k)), 0
        for idx, log_orders in _unordered_cells(b, k):
            hi = lo + idx.shape[0]
            v[lo:hi] = log_target(block_pts[idx], tgt) + log_block_vols[idx].sum(axis=1) + log_orders
            lo = hi
        slice_logs.append(v)
    peak = max(float(v.max()) for v in slice_logs)
    unnorm = np.empty(len(slice_logs))
    for i, v in enumerate(slice_logs):  # in place: exp(v - peak), summed
        v -= peak
        unnorm[i] = np.exp(v, out=v).sum()
    masses = unnorm / unnorm.sum()
    masses.flags.writeable = False
    return masses
