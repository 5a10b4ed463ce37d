"""Tests of the benchmark harness: wrap sites, metric names, record hashes,
self-time accounting and the blocked chain.

    python3 -m pytest -q bench/tests
"""

import inspect
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from paths import ROOT, import_package  # noqa: E402

import_package()

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from jumpclust.chain import initial_state, run_chain  # noqa: E402
from jumpclust.core import KMeansConfig, seeded_rng  # noqa: E402
from jumpclust.online import run_synthetic  # noqa: E402
from jumpclust.posterior import TargetDensity  # noqa: E402
from jumpclust.priors import PriorSpec  # noqa: E402
from jumpclust.proposals import StepProposals  # noqa: E402

SMALL = {
    "ref_stream": {"reps": 1, "horizon": 6, "chain_length": 30},
    "replicate_ref": {
        "reps": 2,
        "horizon": 4,
        "chain_length": 20,
        "regret_every": 2,
        "ocl_restarts": 2,
    },
    "mixture_long": {"reps": 2, "horizon": 12, "chain_length": 20},
    "oracle_check": {"iters": 1_200, "burn_in": 100, "resolution": 20, "block": 500},
}
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small(name, tmp_path, seed=3):
    return workloads.make(name, seed, tmp_path / "work", SMALL[name])


@pytest.mark.parametrize("span", sorted(tracing.SPAN_SITES))
def test_every_wrapped_name_resolves_where_it_is_called(span):
    module, name = tracing.defining(span)
    fn = getattr(module, name)  # a rename fails here instead of reporting zero
    assert callable(fn)
    for site, attr in tracing.sites(span):
        assert getattr(site, attr) is fn, f"{site.__name__}.{attr} is not {span}"
        calls = re.findall(rf"(?<![\w.]){attr}\(", inspect.getsource(site))
        assert calls, f"{site.__name__} never calls {attr}"


def test_centers_validation_hook_exists():
    from jumpclust.core import Centers

    assert callable(Centers.__post_init__)


def test_metric_names_match_the_pattern_and_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert end_to_end == [name for name, _ in run.END_TO_END]
    assert per_layer == [name for name, _, _ in tracing.PER_LAYER]
    for name in end_to_end + per_layer:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_ref_stream_hash_equals_run_synthetic_and_repeats(tmp_path):
    wl = small("ref_stream", tmp_path)
    wl.setup()
    first = wl.run()
    second = wl.run()
    _, record = run_synthetic(wl.cfg, wl.spec, rep=0)
    assert first.problems == []
    assert first.quality["record_sha1"] == workloads.record_sha1([record])
    assert second.quality == first.quality
    assert len(first.latencies) == SMALL["ref_stream"]["horizon"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_self_times_sum_to_at_most_the_traced_time(name, tmp_path):
    wl = small(name, tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        t0 = tracing.CLOCK()
        wl.setup()
        res = wl.run()
        elapsed = tracing.CLOCK() - t0
    assert res.problems == []
    assert 0 < tracer.self_time_sum() <= elapsed
    for span in tracer.spans.values():
        assert span.self_s <= span.total_s + 1e-12
    metrics = tracer.metrics(steps=res.steps, overhead_frac=0.0)
    assert list(metrics) == [n for n, _, _ in tracing.PER_LAYER]
    assert metrics["chain.step.calls"] > 0


def test_tracer_restores_every_site(tmp_path):
    before = {
        (site.__name__, attr): getattr(site, attr)
        for span in tracing.SPAN_SITES
        for site, attr in tracing.sites(span)
    }
    with tracing.Tracer().installed():
        pass
    for (mod, attr), fn in before.items():
        assert getattr(sys.modules[mod], attr) is fn


def test_blocked_chain_equals_one_run():
    prior = PriorSpec(kind="uniform", dim=1, max_clusters=3, radius=1.0, decay=0.3)
    tgt = TargetDensity.prior_only(prior)
    props = StepProposals(
        np.zeros((0, 1)), tau=1.0, max_clusters=3, kmeans_cfg=KMeansConfig(),
        rng_for_k=lambda k: seeded_rng(5, (3, k)),
    )
    state0 = initial_state(1, tgt, props)
    whole_state, whole = run_chain(state0, 23, tgt, props, seeded_rng(9, 0))
    lat, runs = [], []
    blocked = workloads.in_blocks(5, lat, runs)(run_chain)
    part_state, parts = blocked(state0, 23, tgt, props, seeded_rng(9, 0))
    assert len(lat) == 5
    assert part_state == whole_state
    for field in ("k_proposed", "alpha", "accepted", "k_current"):
        np.testing.assert_array_equal(getattr(parts, field), getattr(whole, field))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_pct(100) == 90.0
    assert run.tail_pct(1000) == 99.0
    assert run.tail_pct(10) is None


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "ref_stream",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
