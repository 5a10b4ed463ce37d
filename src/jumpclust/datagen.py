"""Reproducible synthetic streams.

The main generator, ``sine_drift``, emits a two-dimensional stream whose
group center jumps every 20 steps along a sine curve, so the number of
distinct groups seen so far grows by one per segment up to ten.  The first
hundred points carry uniform unit-cube noise around the active center, the
rest isotropic Gaussian noise.  The true group count at every step is
emitted alongside the points for accuracy scoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "SyntheticSpec",
    "SyntheticStream",
    "sine_drift_center",
    "true_cluster_count",
    "sine_drift_observation",
    "generate",
    "stream_csv_rows",
]

_KINDS = ("sine_drift", "gaussian_mixture")


@dataclass(frozen=True)
class SyntheticSpec:
    """Description of a synthetic stream.

    kind="sine_drift"
        Needs only ``horizon`` (number of steps); dimension is 2.
    kind="gaussian_mixture"
        Static mixture of equally weighted components with identity
        covariance: ``centers`` (m, d) and ``horizon``.
    """

    kind: str
    horizon: int = 200
    centers: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.kind == "gaussian_mixture" and self.centers is None:
            raise ValueError("gaussian_mixture needs centers")


@dataclass(frozen=True)
class SyntheticStream:
    """Generated observations plus, when defined, the true group counts."""

    xs: np.ndarray  # (T, d)
    k_true: Optional[np.ndarray] = None  # (T,) ints

    @property
    def horizon(self) -> int:
        return self.xs.shape[0]

    @property
    def dim(self) -> int:
        return self.xs.shape[1]


def sine_drift_center(t: int) -> tuple:
    """Deterministic active center at step t (t >= 1)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    c1 = -2.5 * math.pi + (5.0 * math.pi / 9.0) * ((t - 1) // 20 - 1)
    return c1, 5.0 * math.sin(c1)


def true_cluster_count(t: int) -> int:
    """Number of distinct groups revealed by step t, capped at 10."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return min(math.ceil(t / 20), 10)


def sine_drift_observation(t: int, rng) -> np.ndarray:
    """One draw of the step-t observation: unit-cube noise for t <= 100,
    standard Gaussian noise afterwards, around the active center."""
    c = np.asarray(sine_drift_center(t))
    if t <= 100:
        return c + rng.random(2) - 0.5
    return c + rng.standard_normal(2)


def generate(spec: SyntheticSpec, rng) -> SyntheticStream:
    """Materialize the stream described by ``spec`` using ``rng``."""
    if spec.kind == "sine_drift":
        xs = np.empty((spec.horizon, 2))
        for t in range(1, spec.horizon + 1):
            xs[t - 1] = sine_drift_observation(t, rng)
        k_true = np.array([true_cluster_count(t) for t in range(1, spec.horizon + 1)], dtype=int)
        return SyntheticStream(xs=xs, k_true=k_true)
    # gaussian_mixture
    centers = np.asarray(spec.centers, dtype=float)
    m, d = centers.shape
    # an explicit uniform p: numpy draws other components without one
    comps = rng.choice(m, size=spec.horizon, p=np.full(m, 1.0 / m))
    return SyntheticStream(xs=centers[comps] + rng.standard_normal((spec.horizon, d)))


def stream_csv_rows(stream: SyntheticStream) -> list:
    """Rows (t, x_1..x_d[, k_true]) ready for csv.writer."""
    rows = []
    for i in range(stream.horizon):
        row = [i + 1, *stream.xs[i].tolist()]
        if stream.k_true is not None:
            row.append(int(stream.k_true[i]))
        rows.append(row)
    return rows
