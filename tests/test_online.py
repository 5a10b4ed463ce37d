import math
import warnings

import numpy as np
import pytest

from jumpclust.core import StreamConfig, seeded_rng
from jumpclust.datagen import SyntheticSpec, generate
from jumpclust.online import (
    TemperatureSchedule,
    lambda_at,
    run_stream,
    run_synthetic,
    run_synthetic_repetitions,
    variance_weight_schedule,
)


class TestTemperatureSchedule:
    def test_default_reference_value(self):
        sched = TemperatureSchedule.default(2)
        assert lambda_at(sched, 1) == 1.2

    def test_default_at_zero(self):
        assert lambda_at(TemperatureSchedule.default(2), 0) == 1.0

    def test_anytime_reference_values(self):
        sched = TemperatureSchedule.anytime(2, 1.0)
        assert lambda_at(sched, 4) == pytest.approx(1.0, rel=0, abs=0)
        assert lambda_at(sched, 0) == 1.0

    def test_horizon_constant_and_bounded(self):
        sched = TemperatureSchedule.with_horizon(2, 1.0, 100)
        val = (2 + 2) / (2 * math.sqrt(100) * 1.0)
        assert lambda_at(sched, 0) == lambda_at(sched, 100) == pytest.approx(val)
        with pytest.raises(ValueError, match="exceeds the declared horizon"):
            lambda_at(sched, 101)

    def test_inverse_sqrt(self):
        sched = TemperatureSchedule.inverse_sqrt()
        assert lambda_at(sched, 0) == 1.0
        assert lambda_at(sched, 9) == pytest.approx(1 / 3)

    def test_custom_indexing_and_exhaustion(self):
        sched = TemperatureSchedule.custom([1.0, 0.5, 0.25])
        assert lambda_at(sched, 2) == 0.25
        with pytest.raises(ValueError):
            lambda_at(sched, 3)

    def test_adaptive_kinds_non_increasing_from_t1(self):
        for sched in (
            TemperatureSchedule.anytime(2, 15.0),
            TemperatureSchedule.default(2),
            TemperatureSchedule.inverse_sqrt(),
        ):
            vals = [lambda_at(sched, t) for t in range(1, 50)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            assert all(v > 0 for v in vals)

    def test_validation(self):
        with pytest.raises(ValueError):
            TemperatureSchedule.fixed(0.0)
        with pytest.raises(ValueError):
            TemperatureSchedule.custom([1.0, -1.0])
        with pytest.raises(ValueError):
            TemperatureSchedule("nope")
        with pytest.raises(ValueError):
            TemperatureSchedule.anytime(2, math.inf).resolve(2, math.inf)

    def test_variance_weights_follow_schedule_except_default(self):
        cfg = StreamConfig(dim=2, max_clusters=3, radius=2.0,
                           schedule=TemperatureSchedule.fixed(0.7), chain_length=5)
        assert variance_weight_schedule(cfg) is cfg.schedule
        cfg2 = StreamConfig(dim=2, max_clusters=3, radius=2.0, chain_length=5)  # default kind
        ws = variance_weight_schedule(cfg2)
        assert ws.kind == "anytime" and ws.radius == 2.0


def small_config(**over):
    kw = dict(
        dim=2,
        max_clusters=4,
        radius=12.0,
        chain_length=40,
        seed=11,
    )
    kw.update(over)
    return StreamConfig(**kw)


class TestRunStream:
    def test_empty_stream_returns_prior_draw_only(self):
        cfg = small_config()
        rec = run_stream([], cfg)
        assert rec.steps == ()
        assert 1 <= rec.final_centers.k <= cfg.max_clusters

    def test_bit_identical_replay(self):
        cfg = small_config()
        xs = generate(SyntheticSpec(kind="sine_drift", horizon=10), seeded_rng(3, 0)).xs
        a = run_stream(xs, cfg)
        b = run_stream(xs, cfg)
        assert a.to_json_lines() == b.to_json_lines()

    def test_prefix_consistency_no_lookahead(self):
        # outputs at steps 1..6 depend only on x_{1:6}
        cfg = small_config()
        xs = generate(SyntheticSpec(kind="sine_drift", horizon=12), seeded_rng(4, 0)).xs
        full = run_stream(xs, cfg)
        prefix = run_stream(xs[:6], cfg)
        for a, b in zip(prefix.steps, full.steps[:6]):
            assert a.centers == b.centers and a.loss == b.loss

    def test_cluster_count_stays_in_range(self):
        cfg = small_config()
        xs = generate(SyntheticSpec(kind="sine_drift", horizon=15), seeded_rng(5, 0)).xs
        rec = run_stream(xs, cfg)
        ks = rec.k_sequence()
        assert np.all((ks >= 1) & (ks <= cfg.max_clusters))

    def test_dimension_mismatch_rejected(self):
        cfg = small_config()
        with pytest.raises(ValueError, match="dimension"):
            run_stream([[1.0, 2.0, 3.0]], cfg)

    def test_nonfinite_observation_rejected(self):
        cfg = small_config()
        with pytest.raises(ValueError, match="non-finite"):
            run_stream([[np.nan, 0.0]], cfg)

    def test_warns_once_when_radius_exceeded(self):
        cfg = small_config(radius=0.5)
        xs = np.array([[3.0, 0.0], [4.0, 0.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_stream(xs, cfg)
        radius_warnings = [w for w in caught if "radius" in str(w.message)]
        assert len(radius_warnings) == 1

    def test_fixed_schedule_weights_equal_temperature(self):
        # a fixed schedule and a custom schedule holding the same constant
        # must produce identical draws: the recursion degenerates identically
        xs = generate(SyntheticSpec(kind="sine_drift", horizon=8), seeded_rng(6, 0)).xs
        a = run_stream(xs, small_config(schedule=TemperatureSchedule.fixed(0.05)))
        b = run_stream(xs, small_config(schedule=TemperatureSchedule.custom([0.05] * 9)))
        assert a.to_json_lines() == b.to_json_lines()

    def test_trace_recorded_only_where_requested(self):
        cfg = small_config()
        xs = generate(SyntheticSpec(kind="sine_drift", horizon=6), seeded_rng(7, 0)).xs
        rec = run_stream(xs, cfg, trace_steps={3})
        assert rec.steps[2].trace is not None
        assert len(rec.steps[2].trace) == cfg.chain_length
        assert all(rec.steps[i].trace is None for i in (0, 1, 3, 4, 5))

    def test_trace_choice_does_not_change_outputs(self):
        cfg = small_config()
        xs = generate(SyntheticSpec(kind="sine_drift", horizon=6), seeded_rng(8, 0)).xs
        plain = run_stream(xs, cfg)
        traced = run_stream(xs, cfg, trace_steps="all")
        assert [s.centers for s in plain.steps] == [s.centers for s in traced.steps]

    def test_label_correction_changes_dynamics_not_contract(self):
        xs = generate(SyntheticSpec(kind="sine_drift", horizon=8), seeded_rng(9, 0)).xs
        rec = run_stream(xs, small_config(label_correction=True))
        ks = rec.k_sequence()
        assert np.all((ks >= 1) & (ks <= 4))


class TestRepetitions:
    def test_results_ordered_and_deterministic(self):
        cfg = small_config(chain_length=25)
        spec = SyntheticSpec(kind="sine_drift", horizon=6)
        first = run_synthetic_repetitions(cfg, spec, reps=3)
        second = run_synthetic_repetitions(cfg, spec, reps=3)
        assert [r.rep for _, r in first] == [0, 1, 2]
        for (s1, r1), (s2, r2) in zip(first, second):
            np.testing.assert_array_equal(s1.xs, s2.xs)
            assert r1.to_json_lines() == r2.to_json_lines()

    def test_repetitions_use_distinct_streams(self):
        cfg = small_config(chain_length=25)
        spec = SyntheticSpec(kind="sine_drift", horizon=6)
        (s0, r0), (s1, r1) = run_synthetic_repetitions(cfg, spec, reps=2)
        assert not np.array_equal(s0.xs, s1.xs)
        assert r0.rep == 0 and r1.rep == 1

    def test_single_run_matches_repetition_zero(self):
        cfg = small_config(chain_length=25)
        spec = SyntheticSpec(kind="sine_drift", horizon=6)
        stream, rec = run_synthetic(cfg, spec, rep=0)
        (s0, r0) = run_synthetic_repetitions(cfg, spec, reps=1)[0]
        np.testing.assert_array_equal(stream.xs, s0.xs)
        assert rec.to_json_lines() == r0.to_json_lines()
