"""Regret metrics, accuracy counting, and evaluable regret-bound formulas.

The expected cumulative loss (ECL) of the randomized procedure is
estimated by averaging realized cumulative losses across seeded
repetitions.  The oracle cumulative loss (OCL) -- the best cumulative loss
of any fixed set of k* centers inside the radius-R ball -- is NP-hard to
compute exactly and is approximated from above by a many-restart k-means
fit with centers clipped into the ball.  Because the OCL column is an
upper approximation, the reported regret ECL - OCL is a lower bound on the
true regret; bound-domination checks remain meaningful because the bounds'
slack dwarfs the k-means suboptimality at these scales.

The bound evaluators implement the closed-form remainder terms of the
regret guarantees exactly as stated, so experiments can be compared
against them; they are wiring checks, not tightness claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import KMeansConfig, RunRecord, clip_to_ball, seeded_rng
from .proposals import kmeans_fit, within_cluster_loss

__all__ = [
    "ocl",
    "ecl_curve",
    "correct_k_count",
    "k_mode_curve",
    "regret_bound_fixed",
    "regret_bound_horizon",
    "regret_bound_anytime",
    "student_dim_constant",
    "regret_bound_student",
    "student_kl_bound",
    "RegretReport",
    "regret_report",
]

_OCL_STREAM = 7


def ocl(
    xs: np.ndarray,
    k_star: int,
    radius: float,
    restarts: int = 50,
    rng=None,
    max_iter: int = 200,
) -> float:
    """Upper approximation of the oracle cumulative loss.

    Best-of-``restarts`` k-means fit of k_star centers on the whole
    sequence, centers then clipped to the radius-R ball.  The true OCL is
    an infimum over that ball, so the returned value can only overestimate
    it.
    """
    if k_star < 1:
        raise ValueError("k_star must be >= 1")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs.reshape(-1, 1)
    if rng is None:
        rng = seeded_rng(0, (_OCL_STREAM, xs.shape[0], k_star))
    fit = kmeans_fit(xs, k_star, KMeansConfig(restarts=restarts, max_iter=max_iter), rng)
    return within_cluster_loss(clip_to_ball(fit.points, radius), xs)


def ecl_curve(records: Sequence[RunRecord]) -> np.ndarray:
    """Mean cumulative loss at each step across repetitions."""
    if not records:
        raise ValueError("need at least one record")
    horizon = records[0].horizon
    if any(r.horizon != horizon for r in records):
        raise ValueError("records have differing horizons")
    return np.mean([r.cumulative_losses() for r in records], axis=0)


def correct_k_count(record: RunRecord, k_true: Sequence[int]) -> int:
    """Number of steps whose predicted cluster count matches the truth."""
    truth = np.asarray(k_true, dtype=int)
    ks = record.k_sequence()
    if truth.shape[0] != ks.shape[0]:
        raise ValueError(f"truth length {truth.shape[0]} != record length {ks.shape[0]}")
    return int((ks == truth).sum())


def updated_k_sequence(record: RunRecord) -> np.ndarray:
    """Cluster count of the estimate produced after each observation.

    The step-t prediction is drawn before x_t arrives; this returns the
    count of the state sampled once x_t has been absorbed, a diagnostic
    counterpart to :func:`correct_k_count` (the prediction necessarily
    lags the truth by at least one step around every change point).
    """
    ks = [s.k for s in record.steps[1:]]
    ks.append(record.final_centers.k)
    return np.asarray(ks, dtype=int)


def k_mode_curve(records: Sequence[RunRecord]) -> np.ndarray:
    """Most frequent predicted cluster count at each step (smallest on ties)."""
    ks = np.stack([r.k_sequence() for r in records])  # (reps, T)
    out = np.empty(ks.shape[1], dtype=int)
    for t in range(ks.shape[1]):
        out[t] = np.bincount(ks[:, t]).argmax()
    return out


# --- bound evaluators ------------------------------------------------------

def regret_bound_fixed(
    k: int, horizon: int, dim: int, radius: float, lam: float, eta: float, max_clusters: int
) -> float:
    """Remainder of the fixed-temperature regret guarantee.

    Valid for lam >= (d+2) / (2 T R^2); raises below that threshold.
    """
    _check_common(k, horizon, dim, radius, eta, max_clusters)
    threshold = (dim + 2) / (2.0 * horizon * radius**2)
    if lam < threshold:
        raise ValueError(f"lam={lam} below validity threshold {threshold}")
    return (
        dim * k / (2.0 * lam) * math.log(8.0 * radius**2 * lam * horizon / (dim + 2))
        + (eta / lam) * k
        + math.log(max_clusters) / lam
        + dim / (2.0 * lam)
        + 81.0 * lam * horizon * radius**4 / 2.0
    )


def regret_bound_horizon(
    k: int, horizon: int, dim: int, radius: float, eta: float, max_clusters: int
) -> float:
    """Remainder under the horizon-tuned temperature (d+2)/(2 sqrt(T) R^2)."""
    _check_common(k, horizon, dim, radius, eta, max_clusters)
    rt = math.sqrt(horizon)
    r2 = radius**2
    return (
        k * dim * r2 / (dim + 2) * rt * math.log(4.0 * rt)
        + k * 2.0 * r2 * eta / (dim + 2) * rt
        + (2.0 * r2 * math.log(max_clusters) / (dim + 2) + dim * r2 / (dim + 2)) * rt
        + 81.0 * (dim + 2) * r2 / 4.0 * rt
    )


def regret_bound_anytime(
    k: int, horizon: int, dim: int, radius: float, eta: float, max_clusters: int
) -> float:
    """Remainder under the anytime temperature (d+2)/(2 sqrt(t) R^2).

    Identical to the horizon-tuned bound except the variance term doubles:
    the price of not knowing the horizon.
    """
    _check_common(k, horizon, dim, radius, eta, max_clusters)
    rt = math.sqrt(horizon)
    return regret_bound_horizon(k, horizon, dim, radius, eta, max_clusters) + (
        81.0 * (dim + 2) * radius**2 / 4.0
    ) * rt


def student_dim_constant(dim: int) -> float:
    """Dimension constant (Gamma((3+d)/2) / (Gamma(3/2) Gamma(d/2+1)))^(1/d)."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return math.exp(
        (math.lgamma((3 + dim) / 2) - math.lgamma(1.5) - math.lgamma(dim / 2 + 1)) / dim
    )


def regret_bound_student(
    k: int,
    horizon: int,
    dim: int,
    radius: float,
    prior_scale: float,
    eta: float,
    max_clusters: int,
    center_norms: Sequence[float],
    adaptive: bool = False,
) -> float:
    """Remainder of the heavy-tailed-prior guarantee (temperature 1/sqrt(T),
    or 1/sqrt(t) when ``adaptive``, which doubles the variance term).

    ``center_norms`` are the norms |c_j| of the k oracle centers entering
    the log term.  Valid for T >= 12 d tau0^4 / (c_d^2 R^4).
    """
    _check_common(k, horizon, dim, radius, eta, max_clusters)
    if prior_scale <= 0:
        raise ValueError("prior_scale must be > 0")
    norms = np.asarray(center_norms, dtype=float)
    if norms.shape != (k,):
        raise ValueError(f"center_norms must have length k={k}")
    cd = student_dim_constant(dim)
    threshold = 12.0 * dim * prior_scale**4 / (cd**2 * radius**4)
    if horizon < threshold:
        raise ValueError(f"horizon={horizon} below validity threshold {threshold}")
    rt = math.sqrt(horizon)
    c1 = (2.0 * radius + radius) ** 2  # data norms bounded by the radius
    log_arg = 1.0 + 1.0 / (cd * horizon**0.25) + norms.sum() / (math.sqrt(6.0) * k * prior_scale)
    return (
        (3 + dim) * k * rt * math.log(log_arg)
        + k * dim / 4.0 * rt * math.log(horizon)
        + (math.sqrt(3.0 * k**2 * dim + 12.0 * prior_scale**2 / cd**2) + eta * k) * rt
        + (math.log(max_clusters) + (1.0 if adaptive else 0.5) * c1**2) * rt
    )


def student_kl_bound(
    k: int,
    dim: int,
    locations,
    tau: float,
    xi: Sequence[float],
    prior_scale: float,
    radius: float,
    eta: float,
    max_clusters: int,
) -> float:
    """Closed-form upper bound on the divergence between a truncated
    heavy-tailed block product centered at ``locations`` (scale tau,
    truncation radii xi) and the heavy-tailed prior (scale prior_scale,
    truncation 2R), mixture weight over k included.

    Requires 0 < tau^2 <= sqrt(3) R^2 / (6 sqrt(d)), xi_j in (0, R] and
    |locations_j| <= R.
    """
    loc = np.asarray(locations, dtype=float).reshape(k, dim)
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.shape != (k,):
        raise ValueError("xi must have one entry per block")
    if np.any(xi <= 0) or np.any(xi > radius):
        raise ValueError("xi entries must lie in (0, radius]")
    if not 0 < tau**2 <= math.sqrt(3.0) * radius**2 / (6.0 * math.sqrt(dim)):
        raise ValueError("tau^2 outside (0, sqrt(3) R^2 / (6 sqrt(d))]")
    loc_norms = np.linalg.norm(loc, axis=1)
    if np.any(loc_norms > radius * (1 + 1e-12)):
        raise ValueError("locations must lie inside the radius-R ball")
    if eta < 0 or max_clusters < 1 or k < 1 or k > max_clusters:
        raise ValueError("invalid k / eta / max_clusters")
    # constant from the lower bound on a block's in-ball mass
    log_cd = (
        math.lgamma((3 + dim) / 2)
        - math.lgamma(1.5)
        - math.lgamma(dim / 2 + 1)
        - (dim / 2) * math.log(6.0)
    )
    per_block = 0.5 * (3 + dim) * np.log1p(xi**2 / (6.0 * tau**2)) - 0.5 * dim * np.log(xi**2)
    log_arg = 1.0 + tau / prior_scale + loc_norms.sum() / (math.sqrt(6.0) * k * prior_scale)
    return float(
        per_block.sum()
        - k * log_cd
        + (3 + dim) * k * math.log(log_arg)
        + k * dim * math.log(prior_scale)
        + math.log(max_clusters)
        + eta * (k - 1)
    )


def _check_common(k, horizon, dim, radius, eta, max_clusters):
    if k < 1 or k > max_clusters:
        raise ValueError(f"k={k} outside {{1..{max_clusters}}}")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not (radius > 0 and math.isfinite(radius)):
        raise ValueError("radius must be positive and finite")
    if eta < 0:
        raise ValueError("eta must be >= 0")
    if max_clusters < 1:
        raise ValueError("max_clusters must be >= 1")


# --- cross-repetition regret report ----------------------------------------

@dataclass(frozen=True)
class RegretReport:
    """Per-step regret summary across repetitions.

    ``ocl`` is the k-means upper approximation of the oracle loss, so
    ``regret`` (= ecl - ocl) is a conservative lower estimate; ``bound``
    is the anytime-temperature remainder evaluated at the step's true
    cluster count.
    """

    t: np.ndarray
    ecl: np.ndarray
    ocl: np.ndarray
    regret: np.ndarray
    bound: np.ndarray
    k_true: np.ndarray
    k_mode: np.ndarray

    CSV_HEADER = ("t", "ecl", "ocl", "regret", "bound_adaptive", "k_true", "k_mode")

    def csv_rows(self) -> list:
        rows = []
        for i in range(self.t.shape[0]):
            rows.append(
                [
                    int(self.t[i]),
                    float(self.ecl[i]),
                    float(self.ocl[i]),
                    float(self.regret[i]),
                    float(self.bound[i]),
                    int(self.k_true[i]),
                    int(self.k_mode[i]),
                ]
            )
        return rows


def regret_report(
    results,
    radius: float,
    eta: float,
    max_clusters: int,
    dim: int = 2,
    ocl_restarts: int = 50,
    steps: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> RegretReport:
    """Build the regret summary from (stream, record) repetition pairs.

    Streams must carry true cluster counts.  ``steps`` restricts the rows
    (the per-step oracle fits dominate the cost); default is every step.
    """
    streams = [s for s, _ in results]
    records = [r for _, r in results]
    if any(s.k_true is None for s in streams):
        raise ValueError("regret report needs streams with true cluster counts")
    horizon = records[0].horizon
    ts = np.asarray(sorted(steps), dtype=int) if steps is not None else np.arange(1, horizon + 1)
    if ts.size == 0 or ts[0] < 1 or ts[-1] > horizon:
        raise ValueError("steps outside the record horizon")

    ecl_full = ecl_curve(records)
    k_mode_full = k_mode_curve(records)
    k_true_full = streams[0].k_true

    ecl = ecl_full[ts - 1]
    k_true = k_true_full[ts - 1]
    k_mode = k_mode_full[ts - 1]
    ocl_mean = np.empty(ts.shape[0])
    bound = np.empty(ts.shape[0])
    for i, t in enumerate(ts):
        ks = int(k_true_full[t - 1])
        vals = [
            ocl(
                s.xs[:t],
                ks,
                radius,
                restarts=ocl_restarts,
                rng=seeded_rng(seed, (_OCL_STREAM, r, int(t))),
            )
            for r, s in enumerate(streams)
        ]
        ocl_mean[i] = float(np.mean(vals))
        bound[i] = regret_bound_anytime(ks, int(t), dim, radius, eta, max_clusters)
    return RegretReport(
        t=ts,
        ecl=ecl,
        ocl=ocl_mean,
        regret=ecl - ocl_mean,
        bound=bound,
        k_true=k_true,
        k_mode=k_mode,
    )
