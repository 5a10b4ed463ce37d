"""Shared domain types, configuration and deterministic randomness plumbing.

Everything downstream (scoring, priors, the sampler, the stream runner)
builds on the types defined here.  All of them are immutable after
construction and safe to share across threads; random streams are derived
per (repetition, time step, purpose) so that runs replay bit-identically.
Run records store each fact once; step numbers, k, cumulative losses and
the dimension are derived from the stored predictions and losses.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

import numpy as np

if TYPE_CHECKING:
    from .online import TemperatureSchedule
    from .priors import PriorSpec

__all__ = [
    "Centers",
    "KMeansConfig",
    "StreamConfig",
    "StepRecord",
    "RunRecord",
    "seeded_rng",
    "clip_to_ball",
    "validate_observation",
    "load_config",
    "dump_config",
]

StreamId = Union[int, Sequence[int]]


def check_seed(seed: int) -> int:
    """The seed as an int; a non-integer seed, or one outside [0, 2**64), is
    refused, since it would alias an integer 64-bit one."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def seeded_rng(seed: int, stream_id: StreamId = 0) -> np.random.Generator:
    """Deterministic, platform-independent random generator.

    Built on the counter-based Philox bit generator so that every
    (seed, stream_id) pair yields an independent, reproducible stream.
    ``stream_id`` may be a single integer or a tuple of integers, which is
    how callers key streams by (purpose, repetition, time step).
    """
    key = (stream_id,) if isinstance(stream_id, (int, np.integer)) else tuple(stream_id)
    ss = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=key)
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
    """Restarts of cold k-means proposal fits; Lloyd's stop rules are
    constants of :mod:`jumpclust.proposals`."""

    restarts: int = 10

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("kmeans restarts must be >= 1")


def check_radius(radius: float, owner: str, power: int = 2) -> None:
    """Refuse a radius R unless R > 0 and R**power (2 or 4) is a positive
    finite float: the one check behind every formula that divides by or
    multiplies a power of R.  The power is formed as R * R (squared again
    for 4), so an overflow reads inf instead of raising."""
    square = radius * radius
    if not (radius > 0 and 0 < (square if power == 2 else square * square) < math.inf):
        name = "square" if power == 2 else "fourth power"
        raise ValueError(f"{owner} needs a finite radius > 0 whose {name} is positive "
                         f"and finite, got {radius!r}")


@dataclass(frozen=True)
class StreamConfig:
    """Full configuration of one online clustering run.  The k-means fits
    that place the proposals always use :class:`KMeansConfig` defaults, and
    ``prior``, the run's checked prior, is built once and is not a field.

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
        truncated heavy-tailed blocks with scale ``prior_scale``, whose mass
        inside the ball of radius 2R must be at least 1e-4).
    schedule
        Inverse-temperature schedule, see :mod:`jumpclust.online`.  Its
        ``dim`` and ``radius`` are the run's: missing ones are filled in,
        other values are refused.
    chain_length
        Number of sampler iterations N per time step.
    seed
        Master seed in [0, 2**64); all randomness in a run derives from it.
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
    schedule: Optional[TemperatureSchedule] = None  # resolved in __post_init__
    chain_length: int = 500
    seed: int = 0
    label_correction: bool = False

    def __post_init__(self):
        self.prior  # builds the prior, which checks its settings
        if self.chain_length < 1:
            raise ValueError("chain_length must be >= 1")
        check_seed(self.seed)
        from .online import TemperatureSchedule

        schedule = TemperatureSchedule() if self.schedule is None else self.schedule
        object.__setattr__(self, "schedule", schedule.resolve(self.dim, self.radius))
        if self.schedule.kind == "default":  # its score variance weights read R
            check_radius(self.radius, "the default schedule")

    @functools.cached_property
    def prior(self) -> PriorSpec:
        """The run's :class:`~jumpclust.priors.PriorSpec`, built (and so
        checked) on first read, which ``__post_init__`` makes."""
        from .priors import PriorSpec

        return PriorSpec.from_config(self)


@dataclass(frozen=True)
class StepRecord:
    """One time step of a run: the prediction in force when x_t arrived and its loss.

    ``trace`` (optional) holds the sampler trace of the chain run after
    observation t, i.e. the chain that produced the step-(t+1) prediction.
    """

    centers: Centers
    loss: float
    trace: Optional[object] = None  # ChainTrace

    @property
    def k(self) -> int:
        return self.centers.k


@dataclass(frozen=True)
class RunRecord:
    """Complete, replayable record of one stream run.

    Each fact is stored once: the step number, k, the cumulative loss and
    the dimension are derived from ``steps`` and ``final_centers``.
    ``records.jsonl`` writes them out and :meth:`from_json_lines` checks
    them against what they are derived from.
    """

    seed: int
    rep: int
    steps: tuple  # of StepRecord
    final_centers: Centers

    @property
    def dim(self) -> int:
        return self.final_centers.dim

    @property
    def horizon(self) -> int:
        return len(self.steps)

    def k_sequence(self) -> np.ndarray:
        return np.array([s.k for s in self.steps], dtype=int)

    def losses(self) -> np.ndarray:
        return np.array([s.loss for s in self.steps], dtype=float)

    def cumulative_losses(self) -> np.ndarray:
        return np.cumsum(self.losses())  # a sequential sum, step by step

    def to_json_lines(self) -> list:
        header = {"kind": "header", "seed": self.seed, "rep": self.rep, "dim": self.dim}
        lines = [json.dumps(header, sort_keys=True)]
        for t, (s, cum) in enumerate(zip(self.steps, self.cumulative_losses().tolist()), start=1):
            step = {"kind": "step", "t": t, "k": s.k, "centers": s.centers.to_list(),
                    "loss": s.loss, "cum_loss": cum}
            if s.trace is not None:
                step["trace"] = s.trace.to_json_dict()
            lines.append(json.dumps(step, sort_keys=True))
        final = {"kind": "final", "centers": self.final_centers.to_list()}
        return lines + [json.dumps(final, sort_keys=True)]

    @classmethod
    def from_json_lines(cls, lines: Iterable[str]) -> "RunRecord":
        """Parse ``records.jsonl``; a step's ``t``, ``k`` or ``cum_loss``, or the
        header's ``dim``, that disagrees with what it is derived from is refused."""
        header = final = None
        steps, cum = [], 0.0
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
                step = StepRecord(Centers(obj["centers"]), obj["loss"], trace)
                steps.append(step)
                cum += step.loss
                if obj["t"] != len(steps) or obj["k"] != step.k:
                    raise ValueError(f"step {len(steps)} stores t={obj['t']}, k={obj['k']}")
                if not math.isclose(obj["cum_loss"], cum, rel_tol=1e-12, abs_tol=1e-12):
                    raise ValueError(f"cumulative loss mismatch at t={len(steps)}")
            elif kind == "final":
                final = Centers(obj["centers"])
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        if header is None or final is None:
            raise ValueError("record stream is missing header or final line")
        if header["dim"] != final.dim:
            raise ValueError(f"header dim {header['dim']} != final centers' dim {final.dim}")
        return cls(seed=header["seed"], rep=header["rep"], steps=tuple(steps), final_centers=final)


# --- configuration files -------------------------------------------------

_RETIRED_FIELDS = ("burn_in", "kmeans")  # accepted from older config files, then dropped


def _field_value(path: str, annotation: str, value):
    """One JSON value checked and converted against its field's declared type
    (the annotation string, as postponed evaluation leaves it)."""
    kind = annotation.removeprefix("Optional[").removesuffix("]")
    if kind == "TemperatureSchedule":  # the one nested config
        from .online import TemperatureSchedule

        return _config_from_dict(TemperatureSchedule, value, f"{path}.")
    if kind == "float" and isinstance(value, str) and value.lower() in ("inf", "infinity"):
        return math.inf
    if kind in ("int", "float"):
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        ok = ok and (kind == "float" or float(value).is_integer())
    else:
        ok = kind != "bool" or isinstance(value, bool)
    if not ok:
        raise ValueError(f"config field {path!r} must be of type {kind}, got {value!r}")
    return int(value) if kind == "int" else float(value) if kind == "float" else value


def _config_from_dict(cls, raw, prefix: str = ""):
    """Build the config dataclass ``cls`` from a JSON object.

    Field names, defaults and required fields come from the dataclass; a
    null value means the field's default, and nested configs recurse.
    """
    where = f"config field {prefix[:-1]!r}" if prefix else "config"
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object, got {raw!r}")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.init}
    unknown = sorted(prefix + name for name in set(raw) - set(fields))
    if unknown:
        raise ValueError(f"unknown config fields: {unknown}")
    for name, f in fields.items():
        if f.default is dataclasses.MISSING and raw.get(name) is None:
            raise ValueError(f"config is missing required field {prefix + name!r}")
    kwargs = {
        name: _field_value(prefix + name, fields[name].type, value)
        for name, value in raw.items()
        if value is not None
    }
    try:
        return cls(**kwargs)
    except TypeError as exc:  # a JSON value of the wrong shape, e.g. a number for a list
        raise ValueError(f"invalid {where}: {exc}") from exc


def load_config(source) -> StreamConfig:
    """Build a :class:`StreamConfig` from a JSON file path, file object or dict.

    Field names map 1:1 to :class:`StreamConfig`; ``schedule`` is a nested
    :class:`~jumpclust.online.TemperatureSchedule` object (no ``kind``
    means ``default``).  Unknown keys are rejected at every level; float
    fields accept ``"inf"``.  The retired fields ``burn_in`` and ``kmeans``
    of older config files are ignored with a warning.
    """
    if isinstance(source, dict):
        raw = dict(source)
    elif hasattr(source, "read"):
        raw = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    for name in _RETIRED_FIELDS:
        if isinstance(raw, dict) and name in raw:
            del raw[name]
            warnings.warn(f"config field {name!r} is no longer used and is ignored", stacklevel=2)
    return _config_from_dict(StreamConfig, raw)


def _inf_as_text(d: dict) -> dict:
    return {
        k: _inf_as_text(v) if isinstance(v, dict) else "inf" if v == math.inf else v
        for k, v in d.items()
    }


def dump_config(cfg: StreamConfig) -> dict:
    """Inverse of :func:`load_config`: every field, nested configs as objects."""
    return _inf_as_text(dataclasses.asdict(cfg))
