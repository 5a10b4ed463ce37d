"""Command-line front end.

Subcommands
-----------
run            Run the online clusterer over a CSV stream or a generated one.
replicate      Repeat the drifting-groups benchmark and score cluster-count
               accuracy (plus a regret summary against the anytime bound).
bounds         Evaluate the closed-form regret-bound remainders.
generate       Emit the sine_drift stream as CSV.
oracle-check   Compare the sampler's k-marginal against the grid oracle on
               a toy instance (total-variation gate at 0.05).

Exit codes: 0 success, 1 usage error, 2 runtime failure (including a
failing oracle check).  All commands are deterministic given their
arguments and seeds, and refuse to overwrite outputs unless --overwrite is
passed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np

from .core import StreamConfig, check_radius, check_seed, load_config, seeded_rng
from .datagen import SyntheticSpec, generate, stream_csv_rows
from .metrics import (
    correct_k_count,
    regret_bound_anytime,
    regret_bound_fixed,
    regret_bound_horizon,
    regret_bound_student,
    regret_report,
    updated_k_sequence,
)
from .online import TemperatureSchedule, lambda_at, run_stream, run_synthetic_repetitions
from .online import _CHAIN_STREAM, _DATA_STREAM, _KMEANS_STREAM
from .posterior import GridTooLargeError, TargetDensity, grid_oracle
from .priors import PriorSpec
from .proposals import StepProposals, proposal_scale
from .scoring import ScoreContext
from .chain import initial_state, run_chain

_USAGE_EXIT = 1
_RUNTIME_EXIT = 2

_OCL_CAVEAT = (
    "note: ocl column is a k-means upper approximation of the oracle loss, "
    "so the regret column is a conservative lower estimate"
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_USAGE_EXIT)


class CliError(RuntimeError):
    pass


class UsageError(CliError):
    """Flags that parse one by one but do not fit together (exit 1)."""


def _in_range(kind, lo, hi=math.inf, lo_open=False):
    """argparse ``type=`` for an int or float flag in [lo, hi], or (lo, hi]
    when ``lo_open``; NaN and infinities fail the comparisons and are refused."""
    rule = f"{'>' if lo_open else '>='} {lo:g}" + (" and finite" if kind is float else "")
    rule = rule if math.isinf(hi) else f"in {'(' if lo_open else '['}{lo:g}, {hi:g}]"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not ((lo < value if lo_open else lo <= value) and value <= hi and value < math.inf):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    return parse


# The toy instance in units of the radius: its observations for each --dim,
# and the realized loss of each step's prediction (in units of R^2).
_TOY_POINTS = {1: ((-0.3,), (0.05,), (0.4,)), 2: ((-0.3, 0.1), (0.05, -0.15), (0.4, 0.2))}
_TOY_REF_LOSS = 0.1


def _radius(text: str) -> float:
    """argparse ``type=`` for a radius > 0 whose square is a positive finite
    float and at which the toy target's score is finite for either --dim:
    its largest variance term, ((2R + max|x|)^2 - ref)^2 * lambda_0 for a
    center on the 2R support sphere, must be a finite float."""
    value = _in_range(float, 0, lo_open=True)(text)
    try:
        check_radius(value, "oracle-check")
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    far = max(math.hypot(*x) for points in _TOY_POINTS.values() for x in points)
    reach = (2.0 + far) * value
    dev = reach * reach - _TOY_REF_LOSS * value * value
    if not dev * dev * lambda_at(TemperatureSchedule.anytime(1, value), 0) < math.inf:
        raise argparse.ArgumentTypeError(
            f"the toy score overflows at radius {text}: its largest variance term "
            "((2R + max|x|)^2 - ref)^2 * lambda_0 is not a finite float")
    return value


def _seed(text: str) -> int:
    """argparse ``type=`` for a seed, refused outside [0, 2**64) like a config's."""
    try:
        return check_seed(_in_range(int, 0)(text))
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _norm_list(text: str) -> list:
    """argparse ``type=`` for a comma-separated list of finite norms >= 0."""
    return [_in_range(float, 0)(v) for v in text.split(",")]


def _prepare_outputs(out_dir: str, names, overwrite: bool):
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    targets = [path / n for n in names]
    if not overwrite:
        existing = [str(t) for t in targets if t.exists()]
        if existing:
            raise CliError(f"refusing to overwrite {existing}; pass --overwrite")
    return targets


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _load_stream(args):
    """Stream observations (and truth, when present) from --data or --synthetic."""
    if args.data is not None:
        with open(args.data, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            cols = {name: i for i, name in enumerate(header)}
            xcols = sorted(
                (name for name in cols if name[:1] == "x" and name[1:].isdecimal()),
                key=lambda s: int(s[1:]),
            )
            if not xcols:
                raise CliError(f"no coordinate columns (x1, x2, ...) in {args.data}")
            cells = [(c, float) for c in xcols] + [("k_true", int)] * ("k_true" in cols)
            xs, ks = [], []
            for row in reader:
                if not row:
                    continue
                where = f"{args.data}: line {reader.line_num}"
                if len(row) < len(header):
                    raise CliError(f"{where} has {len(row)} fields, the header has {len(header)}")
                values = []
                for name, parse in cells:
                    text = row[cols[name]]
                    try:
                        values.append(parse(text))
                    except ValueError:
                        kind = "an integer" if parse is int else "a number"
                        raise CliError(f"{where}: {name} is {text!r}, not {kind}") from None
                    if not math.isfinite(values[-1]):
                        raise CliError(f"{where}: {name} is {text!r}, not a finite number")
                xs.append(values[: len(xcols)])
                ks += values[len(xcols) :]
            xs = np.asarray(xs).reshape(-1, len(xcols))  # (0, d) for a header-only file
            return xs, (np.asarray(ks, dtype=int) if ks else None)
    spec = SyntheticSpec(kind=args.synthetic, horizon=args.horizon)
    stream = generate(spec, seeded_rng(args.data_seed, (_DATA_STREAM, 0)))
    return stream.xs, stream.k_true


# --- run --------------------------------------------------------------------

def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    xs, k_true = _load_stream(args)
    if xs.shape[1] != cfg.dim:  # refused before any output, even with no rows to validate
        raise CliError(f"observation has dimension {xs.shape[1]}, expected {cfg.dim}")
    late = [t for t in args.trace_step or () if t > xs.shape[0]]
    if late:
        raise CliError(f"--trace-step {late[0]} outside the stream (length {xs.shape[0]})")
    if args.radius_auto:  # the schedule takes the new radius too
        if xs.shape[0] == 0:
            raise CliError("--radius-auto needs at least one observation; the stream is empty")
        schedule = dataclasses.replace(cfg.schedule, radius=None)
        cfg = dataclasses.replace(
            cfg, radius=float(np.linalg.norm(xs, axis=1).max()), schedule=schedule
        )
    lambda_at(cfg.schedule, xs.shape[0])  # the last step's temperature: a short schedule fails here
    rec_path, sum_path = _prepare_outputs(
        args.out, ["records.jsonl", "summary.csv"], args.overwrite
    )
    record = run_stream(xs, cfg, rep=args.rep, trace_steps=set(args.trace_step or ()))
    with open(rec_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(record.to_json_lines()) + "\n")
    header = ["t", "k", "loss", "cum_loss"] + (["k_true"] if k_true is not None else [])
    cum_losses = record.cumulative_losses().tolist()
    rows = []
    for i, s in enumerate(record.steps):
        row = [i + 1, s.k, repr(s.loss), repr(cum_losses[i])]
        if k_true is not None:
            row.append(int(k_true[i]))
        rows.append(row)
    _write_csv(sum_path, header, rows)
    print(f"wrote {rec_path} ({record.horizon} steps) and {sum_path}")
    return 0


# --- replicate ----------------------------------------------------------------

def _benchmark_config(seed: int, chain_length: int) -> StreamConfig:
    return StreamConfig(
        dim=2,
        max_clusters=20,
        radius=15.0,
        chain_length=chain_length,
        seed=seed,
        label_correction=True,
    )


def _cmd_replicate(args) -> int:
    cfg = _benchmark_config(args.seed, args.chain_length)
    spec = SyntheticSpec(kind="sine_drift", horizon=args.horizon)
    counts_path, stats_path, regret_path = _prepare_outputs(
        args.out, ["correct_k.csv", "replicate_stats.json", "regret.csv"], args.overwrite
    )

    results = run_synthetic_repetitions(cfg, spec, args.reps)
    counts = [correct_k_count(rec, stream.k_true) for stream, rec in results]
    post_counts = [
        int((updated_k_sequence(rec) == stream.k_true).sum()) for stream, rec in results
    ]
    _write_csv(
        counts_path,
        ["rep", "seed", "correct_k", "correct_k_updated"],
        [[r, cfg.seed, c, p] for r, (c, p) in enumerate(zip(counts, post_counts))],
    )
    mean = statistics.fmean(counts)
    std = statistics.stdev(counts) if args.reps > 1 else None
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "reps": args.reps,
                "mean": mean,
                "std": std,
                "counts": counts,
                "mean_updated": statistics.fmean(post_counts),
                "counts_updated": post_counts,
            },
            fh,
            sort_keys=True,
        )
        fh.write("\n")

    steps = sorted(set(range(args.regret_every, args.horizon + 1, args.regret_every)) | {args.horizon})
    report = regret_report(results, cfg, ocl_restarts=args.ocl_restarts, steps=steps)
    _write_csv(regret_path, report.CSV_HEADER, report.csv_rows())

    print(_OCL_CAVEAT)
    std_text = f"{std:.2f}" if std is not None else "n/a"
    print(f"correct-k over {args.reps} repetitions: mean={mean:.2f} std={std_text}")
    print(f"wrote {counts_path}, {stats_path}, {regret_path}")
    return 0


# --- bounds ---------------------------------------------------------------------

def _cmd_bounds(args) -> int:
    if args.k > args.max_clusters:
        raise UsageError(f"--k {args.k} exceeds --max-clusters {args.max_clusters}")
    norms = args.center_norms or [args.radius] * args.k
    if len(norms) != args.k:
        raise UsageError(f"--center-norms gives {len(norms)} norms, --k {args.k} centers")
    requests = {
        "fixed": lambda: regret_bound_fixed(
            args.k, args.horizon, args.dim, args.radius, args.lam, args.eta, args.max_clusters
        )
        if args.lam is not None
        else _missing("--lam"),
        "horizon": lambda: regret_bound_horizon(
            args.k, args.horizon, args.dim, args.radius, args.eta, args.max_clusters
        ),
        "anytime": lambda: regret_bound_anytime(
            args.k, args.horizon, args.dim, args.radius, args.eta, args.max_clusters
        ),
        "student": lambda: regret_bound_student(
            args.k, args.horizon, args.dim, args.radius, args.prior_scale,
            args.eta, args.max_clusters, norms, adaptive=False,
        ),
        "student_adaptive": lambda: regret_bound_student(
            args.k, args.horizon, args.dim, args.radius, args.prior_scale,
            args.eta, args.max_clusters, norms, adaptive=True,
        ),
    }
    results = {}
    for name, fn in requests.items():
        try:
            results[name] = {"value": fn()}
        except ValueError as exc:
            results[name] = {"error": str(exc)}
    if args.json:
        print(json.dumps(results, sort_keys=True))
    else:
        for name, res in results.items():
            if "value" in res:
                print(f"{name:17s} {res['value']:.6f}")
            else:
                print(f"{name:17s} error: {res['error']}")
    return 0


def _missing(flag: str):
    raise ValueError(f"{flag} is required for this bound")


# --- generate -------------------------------------------------------------------

def _cmd_generate(args) -> int:
    spec = SyntheticSpec(kind="sine_drift", horizon=args.horizon)
    stream = generate(spec, seeded_rng(args.seed, (_DATA_STREAM, 0)))
    header = ["t"] + [f"x{i+1}" for i in range(stream.dim)]
    if stream.k_true is not None:
        header.append("k_true")
    rows = stream_csv_rows(stream)
    if args.out:
        (out_path,) = _prepare_outputs(
            str(Path(args.out).parent), [Path(args.out).name], args.overwrite
        )
        _write_csv(out_path, header, rows)
        print(f"wrote {out_path} ({stream.horizon} rows)")
    else:
        w = csv.writer(sys.stdout)
        w.writerow(header)
        w.writerows(rows)
    return 0


# --- oracle-check ----------------------------------------------------------------

def _toy_target(args) -> TargetDensity:
    prior = PriorSpec(
        kind="uniform",
        dim=args.dim,
        max_clusters=args.max_clusters,
        radius=args.radius,
        decay=args.eta,
    )
    if args.prior_only:
        return TargetDensity.prior_only(prior)
    sched = TemperatureSchedule.anytime(args.dim, args.radius)
    ctx = ScoreContext(
        observations=np.array(_TOY_POINTS[args.dim]) * args.radius,
        ref_losses=np.full(3, _TOY_REF_LOSS) * args.radius**2,
        lam_prev=np.array([lambda_at(sched, 0), lambda_at(sched, 1), lambda_at(sched, 2)]),
    )
    lam = args.lam if args.lam is not None else lambda_at(sched, 3)
    return TargetDensity(lam, ctx, prior)


def _cmd_oracle_check(args) -> int:
    if args.burn_in >= args.iters:
        raise UsageError("oracle-check needs --burn-in < --iters")
    if args.prior_only and args.lam is not None:
        raise UsageError("--lam does not apply with --prior-only (the prior's temperature is 0)")
    tgt = _toy_target(args)
    oracle = grid_oracle(tgt, resolution=args.resolution)  # a grid too large is a usage error
    proposals = StepProposals(
        tgt.ctx.observations,
        tau=proposal_scale(args.max_clusters, tgt.ctx.t + 1),
        max_clusters=args.max_clusters,
        rng_for_k=lambda k: seeded_rng(args.seed, (_KMEANS_STREAM, 0, k)),
        jitter_scale=args.radius,
    )
    state0 = initial_state(1, tgt, proposals)
    chain_rng = seeded_rng(args.seed, (_CHAIN_STREAM, 0))
    trace = run_chain(state0, args.iters, tgt, proposals, chain_rng)[1]
    ks = trace.k_current[args.burn_in :]
    empirical = np.bincount(ks, minlength=args.max_clusters + 1)[1:] / ks.shape[0]
    tv = 0.5 * float(np.abs(empirical - oracle).sum())
    print(f"empirical k-marginal: {np.array2string(empirical, precision=4)}")
    print(f"oracle    k-marginal: {np.array2string(oracle, precision=4)}")
    verdict = "PASS" if tv <= args.tv_limit else "FAIL"
    print(f"total variation = {tv:.4f} (limit {args.tv_limit}): {verdict}")
    return 0 if verdict == "PASS" else _RUNTIME_EXIT


# --- parser ----------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="jumpclust", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the online clusterer over a stream")
    run.add_argument("--config", required=True, help="JSON config file")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="input stream CSV (columns x1..xd, optional k_true)")
    src.add_argument("--synthetic", choices=["sine_drift"], help="generate the stream instead")
    run.add_argument("--horizon", type=_in_range(int, 1), default=200, help="steps for --synthetic")
    run.add_argument("--data-seed", type=_seed, default=0, help="seed for --synthetic data")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    run.add_argument("--rep", type=_in_range(int, 0), default=0, help="repetition index (stream id)")
    run.add_argument("--radius-auto", action="store_true",
                     help="set the radius to the max observed |x|_2 before running")
    run.add_argument("--trace-step", type=_in_range(int, 1), action="append",
                     help="record the sampler trace at this step (repeatable)")
    run.add_argument("--overwrite", action="store_true")
    run.set_defaults(fn=_cmd_run)

    rep = sub.add_parser("replicate", help="drifting-groups accuracy benchmark")
    rep.add_argument("--reps", type=_in_range(int, 1), default=20)
    rep.add_argument("--horizon", type=_in_range(int, 1), default=200)
    rep.add_argument("--chain-length", type=_in_range(int, 1), default=500)
    rep.add_argument("--seed", type=_seed, default=0)
    rep.add_argument("--regret-every", type=_in_range(int, 1), default=10,
                     help="step spacing of the regret summary rows")
    rep.add_argument("--ocl-restarts", type=_in_range(int, 1), default=50)
    rep.add_argument("--out", required=True)
    rep.add_argument("--overwrite", action="store_true")
    rep.set_defaults(fn=_cmd_replicate)

    bo = sub.add_parser("bounds", help="evaluate regret-bound remainders")
    bo.add_argument("--k", type=_in_range(int, 1), required=True)
    bo.add_argument("--horizon", type=_in_range(int, 1), required=True)
    bo.add_argument("--dim", type=_in_range(int, 1), required=True)
    bo.add_argument("--radius", type=_in_range(float, 0, lo_open=True), required=True)
    bo.add_argument("--eta", type=_in_range(float, 0), default=0.0)
    bo.add_argument("--max-clusters", type=_in_range(int, 1), required=True)
    bo.add_argument("--lam", type=_in_range(float, 0, lo_open=True), default=None,
                    help="temperature for the fixed bound")
    bo.add_argument("--prior-scale", type=_in_range(float, 0, lo_open=True), default=1.0)
    bo.add_argument("--center-norms", type=_norm_list, default=None,
                    help="comma-separated |c_j| norms for the heavy-tailed bound "
                         "(default: radius for every center)")
    bo.add_argument("--json", action="store_true")
    bo.set_defaults(fn=_cmd_bounds)

    ge = sub.add_parser("generate", help="emit the sine_drift stream as CSV")
    ge.add_argument("--horizon", type=_in_range(int, 1), default=200)
    ge.add_argument("--seed", type=_seed, default=0)
    ge.add_argument("--out", default=None, help="output CSV (default: stdout)")
    ge.add_argument("--overwrite", action="store_true")
    ge.set_defaults(fn=_cmd_generate)

    oc = sub.add_parser("oracle-check", help="sampler vs grid oracle on a toy instance")
    oc.add_argument("--dim", type=int, choices=[1, 2], default=1)
    oc.add_argument("--max-clusters", type=int, choices=[1, 2, 3], default=3)
    oc.add_argument("--radius", type=_radius, default=1.0)
    oc.add_argument("--eta", type=_in_range(float, 0), default=0.3)
    oc.add_argument("--lam", type=_in_range(float, 0), default=None,
                    help="target temperature (default: anytime value at t=3)")
    oc.add_argument("--prior-only", action="store_true",
                    help="check against the prior itself (temperature 0)")
    oc.add_argument("--iters", type=_in_range(int, 1), default=100_000)
    oc.add_argument("--burn-in", type=_in_range(int, 0), default=2_000)
    oc.add_argument("--resolution", type=_in_range(int, 2), default=200)
    oc.add_argument("--tv-limit", type=_in_range(float, 0, 1, lo_open=True), default=0.05)
    oc.add_argument("--seed", type=_seed, default=0)
    oc.set_defaults(fn=_cmd_oracle_check)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, GridTooLargeError) as exc:
        print(f"jumpclust: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (CliError, OSError, ValueError) as exc:
        print(f"jumpclust: {exc}", file=sys.stderr)
        return _RUNTIME_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
