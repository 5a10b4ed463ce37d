"""Shared domain types, configuration and deterministic randomness plumbing.

Everything downstream (scoring, priors, the sampler, the stream runner)
builds on the types defined here.  All of them are immutable after
construction and safe to share across threads; random streams are derived
per (repetition, time step, purpose) so that runs replay bit-identically.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, asdict
from typing import Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Centers",
    "KMeansConfig",
    "StreamConfig",
    "StreamHistory",
    "StepRecord",
    "RunRecord",
    "seeded_rng",
    "clip_to_ball",
    "validate_observation",
    "load_config",
    "dump_config",
]

StreamId = Union[int, Sequence[int]]


def seeded_rng(seed: int, stream_id: StreamId = 0) -> np.random.Generator:
    """Deterministic, platform-independent random generator.

    Built on the counter-based Philox bit generator so that every
    (seed, stream_id) pair yields an independent, reproducible stream.
    ``stream_id`` may be a single integer or a tuple of integers, which is
    how callers key streams by (purpose, repetition, time step).
    """
    key = (stream_id,) if isinstance(stream_id, (int, np.integer)) else tuple(stream_id)
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Centers:
    """An ordered vector of k cluster centers in R^d.

    The ordering is storage only: every consumer (loss, densities) is
    invariant under permutations of the rows.  Coordinates must be finite
    and k >= 1.
    """

    points: np.ndarray  # shape (k, d), read-only

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"centers must be a (k, d) array with k >= 1, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("centers must have finite coordinates")
        object.__setattr__(self, "points", _as_readonly(pts))

    @property
    def k(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Centers)
            and self.points.shape == other.points.shape
            and bool(np.array_equal(self.points, other.points))
        )

    __hash__ = None  # mutable-array semantics: identity comparisons only via ==

    def to_list(self) -> list:
        return self.points.tolist()

    @classmethod
    def from_list(cls, rows: Iterable[Iterable[float]]) -> "Centers":
        return cls(np.asarray(list(rows), dtype=float))


def clip_to_ball(points: np.ndarray, radius: float) -> np.ndarray:
    """Radially project the rows of a (k, d) array that lie outside the ball
    of the given radius onto its surface; an infinite radius returns the
    input unchanged."""
    if math.isinf(radius):
        return points
    pts = np.array(points, dtype=float)
    norms = np.linalg.norm(pts, axis=1)
    over = norms > radius
    if over.any():
        pts[over] *= (radius / norms[over])[:, None]
    return pts


def validate_observation(x, dim: int) -> np.ndarray:
    """Coerce one observation to a finite (dim,) float vector."""
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape[0] != dim:
        raise ValueError(f"observation has dimension {v.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("observation has non-finite coordinates")
    return v


@dataclass(frozen=True)
class KMeansConfig:
    """Lloyd/k-means++ settings for proposal-location fits."""

    restarts: int = 10
    max_iter: int = 100
    tol: float = 1e-8

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("kmeans restarts must be >= 1")
        if self.max_iter < 1:
            raise ValueError("kmeans max_iter must be >= 1")
        if self.tol < 0:
            raise ValueError("kmeans tol must be >= 0")


@dataclass(frozen=True)
class StreamConfig:
    """Full configuration of one online clustering run.

    dim
        Dimension d of the observations.
    max_clusters
        Hard upper bound p on the number of centers (k ranges over 1..p).
    radius
        Data radius R.  Centers live in the ball of radius 2R; observations
        with |x|_2 > R are allowed but warned about (the regret guarantees
        assume R bounds the data).  May be ``inf`` for the student prior.
    decay
        Exponential decay rate (eta >= 0) of the prior over the number of
        clusters; 0 gives a uniform prior on {1..p}.
    prior_kind
        "uniform" (product of uniform balls) or "student" (product of
        truncated heavy-tailed blocks with scale ``prior_scale``).
    schedule
        Inverse-temperature schedule, see :mod:`jumpclust.online`.
    chain_length
        Number of sampler iterations N per time step.
    seed
        64-bit master seed; all randomness in a run derives from it.
    label_correction
        Weight each k-slice of the sampling target by k! to compensate the
        center-ordering confinement of the anchored proposals (see
        :class:`jumpclust.posterior.TargetDensity`).  Off by default; the
        replication benchmark turns it on.
    """

    dim: int
    max_clusters: int
    radius: float
    decay: float = 0.0
    prior_kind: str = "uniform"
    prior_scale: float = 1.0
    schedule: object = None  # TemperatureSchedule; resolved in __post_init__
    chain_length: int = 500
    seed: int = 0
    kmeans: KMeansConfig = field(default_factory=KMeansConfig)
    label_correction: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.max_clusters < 1:
            raise ValueError("max_clusters must be >= 1")
        if not self.radius > 0:
            raise ValueError("radius must be > 0")
        if math.isinf(self.radius) and self.prior_kind != "student":
            raise ValueError("radius=inf is only supported with the student prior")
        if self.decay < 0:
            raise ValueError("decay must be >= 0")
        if self.prior_kind not in ("uniform", "student"):
            raise ValueError(f"unknown prior_kind {self.prior_kind!r}")
        if self.prior_scale <= 0:
            raise ValueError("prior_scale must be > 0")
        if self.chain_length < 1:
            raise ValueError("chain_length must be >= 1")
        if self.schedule is None:
            from .online import TemperatureSchedule

            object.__setattr__(self, "schedule", TemperatureSchedule.default(self.dim))
        else:
            object.__setattr__(self, "schedule", self.schedule.resolve(self.dim, self.radius))
        if self.schedule.kind == "default" and math.isinf(self.radius):
            raise ValueError(
                "the default schedule needs a finite radius (its score variance "
                "weights are radius-aware); choose another schedule for radius=inf"
            )


@dataclass
class StreamHistory:
    """Everything needed to evaluate the cumulative score at arbitrary centers.

    Holds the revealed observations x_{1:t}, the realized per-step losses of
    the outputs that were used at each step, and the inverse temperatures
    that weight each step's variance term.  The full center history is not
    needed for scoring (only its per-step losses are), but the outputs are
    retained for run records.
    """

    dim: int
    observations: list = field(default_factory=list)
    outputs: list = field(default_factory=list)  # Centers; one more than observations
    output_losses: list = field(default_factory=list)
    lambdas: list = field(default_factory=list)  # lambda_0 .. lambda_{t-1}

    @property
    def t(self) -> int:
        return len(self.observations)

    def append_step(self, x: np.ndarray, loss: float, lam_prev: float) -> None:
        self.observations.append(np.asarray(x, dtype=float))
        self.output_losses.append(float(loss))
        self.lambdas.append(float(lam_prev))

    def observation_matrix(self) -> np.ndarray:
        if not self.observations:
            return np.zeros((0, self.dim))
        return np.asarray(self.observations, dtype=float)


@dataclass(frozen=True)
class StepRecord:
    """One time step of a run: the prediction used at t and its loss.

    ``trace`` (optional) holds the sampler trace of the chain run after
    observation t, i.e. the chain that produced the step-(t+1) prediction.
    """

    t: int
    k: int
    centers: Centers
    loss: float
    cum_loss: float
    trace: Optional[object] = None  # ChainTrace

    def to_json_dict(self, include_trace: bool = True) -> dict:
        out = {
            "kind": "step",
            "t": self.t,
            "k": self.k,
            "centers": self.centers.to_list(),
            "loss": self.loss,
            "cum_loss": self.cum_loss,
        }
        if include_trace and self.trace is not None:
            out["trace"] = self.trace.to_json_dict()
        return out


@dataclass(frozen=True)
class RunRecord:
    """Complete, replayable record of one stream run."""

    seed: int
    rep: int
    dim: int
    steps: tuple  # of StepRecord
    final_centers: Centers

    def __post_init__(self):
        cum = 0.0
        for s in self.steps:
            cum += s.loss
            if not math.isclose(s.cum_loss, cum, rel_tol=1e-12, abs_tol=1e-12):
                raise ValueError(f"cumulative loss mismatch at t={s.t}")

    @property
    def horizon(self) -> int:
        return len(self.steps)

    def k_sequence(self) -> np.ndarray:
        return np.array([s.k for s in self.steps], dtype=int)

    def losses(self) -> np.ndarray:
        return np.array([s.loss for s in self.steps], dtype=float)

    def cumulative_losses(self) -> np.ndarray:
        return np.array([s.cum_loss for s in self.steps], dtype=float)

    def to_json_lines(self, include_trace: bool = True) -> list:
        lines = [
            json.dumps(
                {"kind": "header", "seed": self.seed, "rep": self.rep, "dim": self.dim},
                sort_keys=True,
            )
        ]
        for s in self.steps:
            lines.append(json.dumps(s.to_json_dict(include_trace), sort_keys=True))
        lines.append(
            json.dumps({"kind": "final", "centers": self.final_centers.to_list()}, sort_keys=True)
        )
        return lines

    @classmethod
    def from_json_lines(cls, lines: Iterable[str]) -> "RunRecord":
        header = None
        steps = []
        final = None
        for raw in lines:
            raw = raw.strip()
            if not raw:
                continue
            obj = json.loads(raw)
            kind = obj.get("kind")
            if kind == "header":
                header = obj
            elif kind == "step":
                trace = obj.get("trace")
                if trace is not None:
                    from .chain import ChainTrace

                    trace = ChainTrace.from_json_dict(trace)
                steps.append(
                    StepRecord(
                        t=obj["t"],
                        k=obj["k"],
                        centers=Centers.from_list(obj["centers"]),
                        loss=obj["loss"],
                        cum_loss=obj["cum_loss"],
                        trace=trace,
                    )
                )
            elif kind == "final":
                final = Centers.from_list(obj["centers"])
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        if header is None or final is None:
            raise ValueError("record stream is missing header or final line")
        return cls(
            seed=header["seed"],
            rep=header["rep"],
            dim=header["dim"],
            steps=tuple(steps),
            final_centers=final,
        )


# --- configuration files -------------------------------------------------

def _schedule_from_dict(d: dict):
    from .online import TemperatureSchedule

    kind = d.get("kind", "default")
    return TemperatureSchedule(
        kind=kind,
        value=d.get("value"),
        horizon=d.get("horizon"),
        values=tuple(d["values"]) if d.get("values") is not None else None,
        dim=d.get("dim"),
        radius=d.get("radius"),
    )


def load_config(source) -> StreamConfig:
    """Build a :class:`StreamConfig` from a JSON file path, file object or dict.

    Field names map 1:1 to :class:`StreamConfig`; ``schedule`` is a nested
    object with a ``kind`` plus its parameters, ``kmeans`` a nested object
    with ``restarts``/``max_iter``/``tol``.
    """
    if isinstance(source, dict):
        raw = dict(source)
    elif hasattr(source, "read"):
        raw = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    if "burn_in" in raw:  # accepted from older config files
        del raw["burn_in"]
        warnings.warn("config field 'burn_in' is no longer used and is ignored", stacklevel=2)

    known = {
        "dim",
        "max_clusters",
        "radius",
        "decay",
        "prior_kind",
        "prior_scale",
        "schedule",
        "chain_length",
        "seed",
        "kmeans",
        "label_correction",
    }
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    for req in ("dim", "max_clusters", "radius"):
        if req not in raw:
            raise ValueError(f"config is missing required field {req!r}")

    radius = raw["radius"]
    if isinstance(radius, str):
        if radius.lower() in ("inf", "infinity"):
            radius = math.inf
        else:
            raise ValueError(f"radius must be a number or 'inf', got {radius!r}")

    kwargs = {
        "dim": int(raw["dim"]),
        "max_clusters": int(raw["max_clusters"]),
        "radius": float(radius),
        "decay": float(raw.get("decay", 0.0)),
        "prior_kind": raw.get("prior_kind", "uniform"),
        "prior_scale": float(raw.get("prior_scale", 1.0)),
        "chain_length": int(raw.get("chain_length", 500)),
        "seed": int(raw.get("seed", 0)),
        "label_correction": bool(raw.get("label_correction", False)),
    }
    if "schedule" in raw and raw["schedule"] is not None:
        kwargs["schedule"] = _schedule_from_dict(raw["schedule"])
    if "kmeans" in raw and raw["kmeans"] is not None:
        kwargs["kmeans"] = KMeansConfig(**raw["kmeans"])
    return StreamConfig(**kwargs)


def dump_config(cfg: StreamConfig) -> dict:
    """Inverse of :func:`load_config` (modulo schedule resolution)."""
    sched = cfg.schedule
    out = {
        "dim": cfg.dim,
        "max_clusters": cfg.max_clusters,
        "radius": "inf" if math.isinf(cfg.radius) else cfg.radius,
        "decay": cfg.decay,
        "prior_kind": cfg.prior_kind,
        "prior_scale": cfg.prior_scale,
        "schedule": {
            "kind": sched.kind,
            "value": sched.value,
            "horizon": sched.horizon,
            "values": list(sched.values) if sched.values is not None else None,
            "dim": sched.dim,
            "radius": sched.radius,
        },
        "chain_length": cfg.chain_length,
        "seed": cfg.seed,
        "kmeans": asdict(cfg.kmeans),
        "label_correction": cfg.label_correction,
    }
    return out
