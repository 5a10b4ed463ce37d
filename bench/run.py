"""jumpclust benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run times set-up in fresh processes, then repeats
the workload's operation until ``--seconds`` of wall time are spent (at
least once), checks every output and reports the end-to-end metrics.  Times are CPU times of the measuring
process (see ``tracing.CLOCK``).  With ``--trace 1`` it runs one operation with
every layer wrapped (see tracing.py) and one without, and reports the
per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the details (samples, percentiles, quality outputs, record hashes and
provenance).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from paths import BENCH, BLAS_THREAD_VARS, ROOT, WORK, import_package
from tracing import CLOCK, PER_LAYER, Tracer

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0)

# (name, unit): measured with tracing off, reported on every workload
END_TO_END = (
    ("setup_s", "s"),
    ("op_s", "s"),
    ("step_p50_ms", "ms"),
    ("step_tail_ms", "ms"),
    ("iters_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def tail_pct(n: int):
    """Highest candidate percentile with at least ten of n samples beyond it."""
    for q in TAIL_CANDIDATES:
        if n * (100.0 - q) >= 10 * 100.0:
            return q
    return None


def percentile(samples, q: float) -> float:
    import numpy as np  # only after import_package() has pinned the BLAS threads

    return float(np.percentile(samples, q))


def summary(samples, q=None) -> dict:
    """Median, the tail percentile fixed for this metric and the sample count."""
    q = tail_pct(len(samples)) if q is None else q
    return {
        "median": statistics.median(samples),
        "tail_pct": q,
        "tail": percentile(samples, q) if q is not None else None,
        "n": len(samples),
    }


def probe_setup(name: str, seed: int):
    """(CPU, wall) seconds a fresh process takes from its start through the workload's set-up."""
    cmd = [sys.executable, str(BENCH / "probe.py"), name, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            word, _, cpu = proc.stdout.readline().partition(" ")
            wall = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if word != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return float(cpu), wall


def git_commit():
    if not (ROOT / ".git").exists():
        return None  # the checkout is not a git repository
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: the machine's speed, apart from the program."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        sum(i * i for i in range(1_000_000))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def provenance(args, loadavg, calibration) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "loadavg_start": list(loadavg),
        "calibration_s": calibration,
        "git_commit": git_commit(),
    }


def run_op(wl, i: int, failures: list):
    """(CPU s, wall s, OpResult or None) of operation i; a raised error counts as a failure."""
    c0, w0 = CLOCK(), time.perf_counter()
    try:
        res = wl.run()
    except Exception:  # any failure of the program counts against it
        failures.append(f"op {i}: {traceback.format_exc(limit=3)}")
        res = None
    cpu, wall = CLOCK() - c0, time.perf_counter() - w0
    if res is not None:
        failures.extend(f"op {i}: {p}" for p in res.problems)
    return cpu, wall, res


def untraced(args, wl):
    setup_cpu, setup_wall = zip(*(probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)))
    wl.setup()
    times, walls, results, lat, attempted, failed, failures = [], [], [], [], 0, 0, []
    start = time.perf_counter()
    while True:
        before = len(failures)
        cpu, wall, res = run_op(wl, attempted, failures)
        attempted += 1
        failed += len(failures) > before
        times.append(cpu)
        walls.append(wall)
        if res is not None:
            results.append(res)
            lat.extend(res.latencies)
        spent = time.perf_counter() - start
        if spent + statistics.median(walls) > args.seconds:
            break
    if not results:
        raise SystemExit("bench: every operation failed:\n" + "\n".join(failures))
    if len({json.dumps(r.quality, sort_keys=True) for r in results}) > 1:
        failures.append("repeated identical operations gave different outputs")
        failed += 1

    q = tail_pct(wl.latencies_per_op)  # fixed per workload, not per run
    lat_ms = [x * 1e3 for x in lat]
    samples = {
        "setup_s": summary(setup_cpu),
        "op_s": summary(times),
        "step_ms": summary(lat_ms, q),
        "setup_wall_s": summary(setup_wall),
        "op_wall_s": summary(walls),
    }
    metrics = {
        "setup_s": samples["setup_s"]["median"],
        "op_s": samples["op_s"]["median"],
        "step_p50_ms": samples["step_ms"]["median"],
        "step_tail_ms": samples["step_ms"]["tail"],
        "iters_per_s": sum(r.iters for r in results) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    steps = sum(r.steps for r in results)
    details = {
        "samples": samples,
        "obs_per_s": steps / sum(times) if steps else None,
        "quality": results[0].quality,
        "failures": failures,
    }
    return attempted, failed, metrics, details


def traced(wl):
    failures = []
    tracer = Tracer()
    with tracer.installed():
        t0 = CLOCK()
        wl.setup()
        dt_traced, _, res = run_op(wl, 0, failures)
        traced_total = CLOCK() - t0
    dt_plain, _, plain = run_op(wl, 0, failures)
    if res is None or plain is None:
        raise SystemExit("bench: traced operation failed:\n" + "\n".join(failures))
    if res.quality != plain.quality:
        failures.append("tracing changed the outputs")
    metrics = tracer.metrics(steps=res.steps, overhead_frac=dt_traced / dt_plain - 1.0)
    details = {
        "traced_total_s": traced_total,
        "traced_op_s": dt_traced,
        "untraced_op_s": dt_plain,
        "self_time_sum_s": tracer.self_time_sum(),
        "quality": res.quality,
        "failures": failures,
    }
    return 2, int(bool(failures)), metrics, details


def print_report(metrics: dict, units: dict, details: dict) -> None:
    for name, value in metrics.items():
        print(f"{name:44s} {value:>16.6g} {units[name]}")
    print(json.dumps({"details": details}, sort_keys=True, default=str))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    loadavg, calibration = os.getloadavg(), calibration_s()
    import_package()
    from workloads import WORKLOADS, make

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        wl = make(args.workload, args.seed, work_dir)
        if args.trace:
            attempted, failed, metrics, details = traced(wl)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            attempted, failed, metrics, details = untraced(args, wl)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only once no other run uses it
    details["provenance"] = provenance(args, loadavg, calibration)
    print_report(metrics, units, details)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
