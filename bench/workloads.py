"""The benchmark's workloads: set-up, one timed operation, output checks.

An operation is a fixed amount of work: ``reps`` streams of ``horizon``
steps (``ref_stream``, ``mixture_long``), one ``jumpclust replicate`` call
(``replicate_ref``) or one ``jumpclust oracle-check`` call
(``oracle_check``).  The runner repeats the identical operation until its
time is spent, so a faster program measures more of the same work.
Inputs come from the workload seed only.

Each operation reports its per-step latencies.  On the stream workloads a
step is one observation: the time from handing x_t to ``run_stream``
until it asks for x_{t+1}, taken by timing the pulls on the iterator the
benchmark passes in.  On ``oracle_check`` a step is one block of
``block`` sampler iterations of the check's chain.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from jumpclust import cli, datagen, online
from jumpclust.chain import ChainTrace
from jumpclust.core import StreamConfig, seeded_rng
from jumpclust.datagen import SyntheticSpec
from jumpclust.online import TemperatureSchedule
from jumpclust.priors import PriorSpec

from tracing import CLOCK, patched

DATA_STREAM = 4  # stream-id namespace run_synthetic draws each repetition's data from
MAX_CLUSTERS = 20
RADIUS = 15.0
# eight groups on a circle of radius 8, identity covariance
CIRCLE_8 = tuple(
    (8.0 * math.cos(2 * math.pi * j / 8), 8.0 * math.sin(2 * math.pi * j / 8)) for j in range(8)
)

SIZES = {
    "ref_stream": {"reps": 1, "horizon": 100, "chain_length": 500},
    "replicate_ref": {
        "reps": 20,
        "horizon": 5,
        "chain_length": 500,
        "regret_every": 50,
        "ocl_restarts": 50,
    },
    # two repetitions: mixture_long's k paths, and so its costs, vary most by seed
    "mixture_long": {"reps": 2, "horizon": 120, "chain_length": 100},
    "oracle_check": {"iters": 100_000, "burn_in": 2_000, "resolution": 150, "block": 1_000},
}


@dataclass
class OpResult:
    steps: int  # stream observations absorbed
    iters: int  # sampler iterations run
    latencies: list  # seconds per step
    problems: list = field(default_factory=list)  # failed output checks
    quality: dict = field(default_factory=dict)  # deterministic outputs for the record


def timed(xs, out: list):
    """Yield xs, appending how long the consumer held each item before asking again."""
    for x in xs:
        t0 = CLOCK()
        yield x
        out.append(CLOCK() - t0)


def record_sha1(records) -> str:
    """SHA-1 of the records.jsonl lines the CLI would write for these runs."""
    h = hashlib.sha1()
    for rec in records:
        h.update(("\n".join(rec.to_json_lines()) + "\n").encode("utf-8"))
    return h.hexdigest()


def check_record(record, max_clusters: int, radius: float) -> list:
    """Output checks on one run: finite losses, k in 1..p, centres inside the 2R ball."""
    problems = []
    if not np.all(np.isfinite(record.losses())):
        problems.append("non-finite loss")
    ks = np.append(record.k_sequence(), record.final_centers.k)
    if ks.min() < 1 or ks.max() > max_clusters:
        problems.append("k outside 1..p")
    pts = np.concatenate([s.centers.points for s in record.steps] + [record.final_centers.points])
    if np.einsum("kd,kd->k", pts, pts).max() > (2.0 * radius) ** 2:
        problems.append("centre outside the radius-2R ball")
    return problems


def stream_setup(name: str, seed: int, sizes: dict):
    """(config, spec) of a stream workload."""
    if name == "ref_stream":
        cfg = StreamConfig(
            dim=2,
            max_clusters=MAX_CLUSTERS,
            radius=RADIUS,
            schedule=TemperatureSchedule.default(2),
            chain_length=sizes["chain_length"],
            seed=seed,
            label_correction=True,
        )
        return cfg, SyntheticSpec(kind="sine_drift", horizon=sizes["horizon"])
    cfg = StreamConfig(
        dim=2,
        max_clusters=MAX_CLUSTERS,
        radius=RADIUS,
        prior_kind="student",
        prior_scale=5.0,
        schedule=TemperatureSchedule.default(2),
        chain_length=sizes["chain_length"],
        seed=seed,
        label_correction=True,
    )
    spec = SyntheticSpec(kind="gaussian_mixture", horizon=sizes["horizon"], centers=CIRCLE_8)
    return cfg, spec


class StreamWorkload:
    """``ref_stream`` and ``mixture_long``: run_stream over generated data."""

    def __init__(self, name: str, seed: int, sizes: dict, work_dir: Path):
        self.name, self.seed, self.sizes = name, seed, sizes

    @property
    def latencies_per_op(self) -> int:
        return self.sizes["reps"] * self.sizes["horizon"]

    def setup(self) -> None:
        self.cfg, self.spec = stream_setup(self.name, self.seed, self.sizes)
        PriorSpec.from_config(self.cfg)  # the student prior's truncation estimate
        self.streams = [
            datagen.generate(self.spec, seeded_rng(self.seed, (DATA_STREAM, rep)))
            for rep in range(self.sizes["reps"])
        ]

    def run(self) -> OpResult:
        lat, records, problems = [], [], []
        for rep, stream in enumerate(self.streams):
            record = online.run_stream(timed(stream.xs, lat), self.cfg, rep=rep)
            records.append(record)
            problems += check_record(record, self.cfg.max_clusters, self.cfg.radius)
        quality = {
            "record_sha1": record_sha1(records),
            "mean_loss": float(np.mean([r.cumulative_losses()[-1] / r.horizon for r in records])),
        }
        if self.spec.kind == "sine_drift":
            quality["correct_k"] = float(
                np.mean([(r.k_sequence() == s.k_true).sum() for r, s in zip(records, self.streams)])
            )
        else:
            quality["steps_at_k8"] = float(
                np.mean([(r.k_sequence() == len(CIRCLE_8)).sum() for r in records])
            )
        steps = sum(r.horizon for r in records)
        return OpResult(
            steps=steps,
            iters=steps * self.cfg.chain_length,
            latencies=lat,
            problems=problems,
            quality=quality,
        )


class ReplicateWorkload:
    """``replicate_ref``: ``jumpclust replicate`` through ``cli.main``."""

    def __init__(self, name: str, seed: int, sizes: dict, work_dir: Path):
        self.seed, self.sizes, self.work_dir = seed, sizes, work_dir

    @property
    def latencies_per_op(self) -> int:
        return self.sizes["reps"] * self.sizes["horizon"]

    def argv(self, out: Path) -> list:
        s = self.sizes
        return [
            "replicate",
            "--reps", str(s["reps"]),
            "--horizon", str(s["horizon"]),
            "--chain-length", str(s["chain_length"]),
            "--regret-every", str(s["regret_every"]),
            "--ocl-restarts", str(s["ocl_restarts"]),
            "--seed", str(self.seed),
            "--out", str(out),
        ]

    def setup(self) -> None:
        cli.build_parser().parse_args(self.argv(self.work_dir))
        cfg, spec = stream_setup("ref_stream", self.seed, self.sizes)
        PriorSpec.from_config(cfg)
        datagen.generate(spec, seeded_rng(self.seed, (DATA_STREAM, 0)))

    def run(self) -> OpResult:
        shutil.rmtree(self.work_dir, ignore_errors=True)  # the CLI refuses to overwrite
        lat, captured = [], []

        def timed_run_stream(run_stream):
            def wrapper(data, *args, **kwargs):
                return run_stream(timed(data, lat), *args, **kwargs)

            return wrapper

        def capture(run_reps):
            def wrapper(*args, **kwargs):
                out = run_reps(*args, **kwargs)
                captured.extend(out)
                return out

            return wrapper

        with contextlib.ExitStack() as stack:
            stack.enter_context(patched(online, "run_stream", timed_run_stream))
            stack.enter_context(patched(cli, "run_synthetic_repetitions", capture))
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            code = cli.main(self.argv(self.work_dir))

        problems = [] if code == 0 else [f"replicate exited {code}"]
        records = [rec for _, rec in captured]
        for rec in records:
            problems += check_record(rec, MAX_CLUSTERS, RADIUS)
        stats_path = self.work_dir / "replicate_stats.json"
        counts = json.loads(stats_path.read_text())["counts"] if stats_path.exists() else []
        if len(counts) != self.sizes["reps"]:
            problems.append("replicate_stats.json does not hold one count per repetition")
        shutil.rmtree(self.work_dir, ignore_errors=True)
        quality = {
            "record_sha1": record_sha1(records),
            "correct_k": float(np.mean(counts)) if counts else None,
            "mean_loss": float(np.mean([r.cumulative_losses()[-1] / r.horizon for r in records]))
            if records
            else None,
        }
        steps = sum(r.horizon for r in records)
        return OpResult(
            steps=steps,
            iters=steps * self.sizes["chain_length"],
            latencies=lat,
            problems=problems,
            quality=quality,
        )


_TV_LINE = re.compile(r"total variation = ([0-9.eE+-]+)")


class OracleWorkload:
    """``oracle_check``: ``jumpclust oracle-check --dim 1`` through ``cli.main``."""

    def __init__(self, name: str, seed: int, sizes: dict, work_dir: Path):
        self.seed, self.sizes = seed, sizes

    @property
    def latencies_per_op(self) -> int:
        return math.ceil(self.sizes["iters"] / self.sizes["block"])

    def argv(self) -> list:
        s = self.sizes
        return [
            "oracle-check",
            "--dim", "1",
            "--iters", str(s["iters"]),
            "--burn-in", str(s["burn_in"]),
            "--resolution", str(s["resolution"]),
            "--seed", str(self.seed),
        ]

    def setup(self) -> None:
        self.args = args = cli.build_parser().parse_args(self.argv())
        PriorSpec(
            kind="uniform",
            dim=args.dim,
            max_clusters=args.max_clusters,
            radius=args.radius,
            decay=args.eta,
        )

    def run(self) -> OpResult:
        lat, runs = [], []
        blocked = in_blocks(self.sizes["block"], lat, runs)
        stdout = io.StringIO()
        with patched(cli, "run_chain", blocked), contextlib.redirect_stdout(stdout):
            code = cli.main(self.argv())

        problems = [] if code == 0 else [f"oracle-check exited {code} (TV over its limit)"]
        for state, trace in runs:
            if trace.k_current.min() < 1 or trace.k_current.max() > self.args.max_clusters:
                problems.append("k outside 1..p")
            pts = state.centers.points
            if np.einsum("kd,kd->k", pts, pts).max() > (2.0 * self.args.radius) ** 2:
                problems.append("centre outside the radius-2R ball")
        match = _TV_LINE.search(stdout.getvalue())
        return OpResult(
            steps=0,
            iters=self.sizes["iters"],
            latencies=lat,
            problems=problems,
            quality={"oracle_tv": float(match.group(1)) if match else None},
        )


def in_blocks(block: int, lat: list, runs: list):
    """Wrapper factory for ``run_chain`` that runs the chain ``block`` iterations at a time.

    Successive blocks continue the same state and generator, so the result
    equals one uninterrupted run.  The wrapper appends each block's
    seconds to ``lat`` and each (final state, trace) to ``runs``.
    """

    def make(run_chain):
        def wrapper(init, n_steps, tgt, proposals, rng):
            state, parts = init, []
            for start in range(0, n_steps, block):
                t0 = CLOCK()
                state, part = run_chain(state, min(block, n_steps - start), tgt, proposals, rng)
                lat.append(CLOCK() - t0)
                parts.append(part)
            trace = ChainTrace(
                *(
                    np.concatenate([getattr(p, f.name) for p in parts])
                    for f in dataclasses.fields(ChainTrace)
                )
            )
            runs.append((state, trace))
            return state, trace

        return wrapper

    return make


WORKLOADS = {
    "ref_stream": StreamWorkload,
    "replicate_ref": ReplicateWorkload,
    "mixture_long": StreamWorkload,
    "oracle_check": OracleWorkload,
}


def make(name: str, seed: int, work_dir: Path, sizes: dict | None = None):
    return WORKLOADS[name](name, seed, sizes or SIZES[name], work_dir)
