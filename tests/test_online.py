import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpclust.core import StreamConfig, load_config, seeded_rng
from jumpclust.datagen import SyntheticSpec, generate
from jumpclust.online import (
    TemperatureSchedule,
    lambda_at,
    run_stream,
    run_synthetic,
    run_synthetic_repetitions,
    variance_weight,
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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_fixed_value_must_be_finite(self, value):
        with pytest.raises(ValueError, match="fixed schedule needs a value > 0 and finite"):
            TemperatureSchedule.fixed(value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, True, "0.5", None])
    def test_custom_values_must_be_finite(self, value):
        with pytest.raises(ValueError, match="custom schedule values must be > 0 and finite"):
            TemperatureSchedule.custom([1.0, value])
        # a JSON boolean or string is refused with the same error, not converted or wrapped
        raw = {"dim": 2, "max_clusters": 3, "radius": 1.0,
               "schedule": {"kind": "custom", "values": [value, 0.5]}}
        with pytest.raises(ValueError, match="^custom schedule values must be > 0 and finite$"):
            load_config(raw)

    def test_missing_fields_are_named(self):
        with pytest.raises(ValueError, match="anytime schedule is unresolved"):
            lambda_at(TemperatureSchedule("anytime", dim=2), 1)
        with pytest.raises(ValueError, match="horizon schedule needs horizon"):
            TemperatureSchedule("horizon").resolve(2, 1.0)
        with pytest.raises(ValueError, match="anytime schedule needs a finite radius"):
            TemperatureSchedule("anytime").resolve(2, math.inf)
        assert TemperatureSchedule("default").resolve(3, 1.0) == TemperatureSchedule.default(3)

    @pytest.mark.parametrize(
        "kind, fields, stray",
        [("anytime", {"value": 3.0}, "value"),
         ("fixed", {"value": 1.0, "values": (9.0,)}, "values"),
         ("default", {"radius": 2.0}, "radius"),
         ("inverse_sqrt", {"dim": 2}, "dim"),
         ("custom", {"values": (1.0,), "horizon": 5}, "horizon"),
         ("horizon", {"horizon": 5, "value": 0.5}, "value")],
    )
    def test_fields_the_kind_never_reads_are_rejected(self, kind, fields, stray):
        with pytest.raises(ValueError, match=f"{kind} schedule does not read field '{stray}'"):
            TemperatureSchedule(kind, **fields)

    def test_resolve_refuses_dim_and_radius_other_than_the_runs(self):
        sched = TemperatureSchedule.anytime(2, 5.0)
        assert sched.resolve(2, 5.0) == sched
        with pytest.raises(ValueError, match="horizon schedule has radius=1.0, the run has"):
            TemperatureSchedule.with_horizon(2, 1.0, 10).resolve(2, 5.0)
        with pytest.raises(ValueError, match="default schedule has dim=7, the run has dim=2"):
            TemperatureSchedule.default(7).resolve(2, 5.0)
        assert TemperatureSchedule.inverse_sqrt().resolve(2, math.inf).kind == "inverse_sqrt"

    @given(
        kind=st.sampled_from(["horizon", "anytime", "default"]),
        dim=st.integers(-2, 50),
        radius=st.one_of(st.sampled_from([math.nan, math.inf, -1.0, 0.0]), st.floats(1e-50, 1e50)),
    )
    @settings(max_examples=200, deadline=None)
    def test_lambda_is_never_nan(self, kind, dim, radius):
        fields = {"dim": dim} if kind == "default" else {"dim": dim, "radius": radius}
        try:
            sched = TemperatureSchedule(kind, horizon=20 if kind == "horizon" else None, **fields)
        except ValueError:
            assert not (dim >= 1 and (kind == "default" or 0 < radius < math.inf))
            return
        assert all(lambda_at(sched, t) > 0 for t in range(21))  # NaN > 0 is false

    def test_variance_weights_follow_schedule_except_default(self):
        ts = range(6)
        cfg = StreamConfig(dim=2, max_clusters=3, radius=2.0, chain_length=5,
                           schedule=TemperatureSchedule.custom([2.0 / (t + 1) for t in ts]))
        assert [variance_weight(cfg, t) for t in ts] == [lambda_at(cfg.schedule, t) for t in ts]
        cfg2 = StreamConfig(dim=2, max_clusters=3, radius=2.0, chain_length=5)  # default kind
        anytime = TemperatureSchedule.anytime(2, 2.0)
        assert [variance_weight(cfg2, t) for t in ts] == [lambda_at(anytime, max(t, 1)) for t in ts]


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
        # outputs at steps 1..20, and step 20's sampler trace, depend only on
        # x_{1:20}; by step 20 the k-means fits at k >= 2 start from earlier
        # steps' fits
        cfg = small_config()
        xs = generate(SyntheticSpec(kind="sine_drift", horizon=30), seeded_rng(4, 0)).xs
        full = run_stream(xs, cfg, trace_steps={20})
        prefix = run_stream(xs[:20], cfg, trace_steps={20})
        assert len(prefix.steps) == 20
        for a, b in zip(prefix.steps, full.steps[:20]):
            assert a.centers == b.centers and a.loss == b.loss
        assert prefix.final_centers == full.steps[20].centers
        a, b = prefix.steps[19].trace, full.steps[19].trace
        for field in ("k_proposed", "alpha", "accepted", "k_current"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

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
        traced = run_stream(xs, cfg, trace_steps=range(1, 7))
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


SINE_DRIFT_SHA1 = "29d4130df09d2c52cf498d8ba4a76e64011f1a00"
MIXTURE_SHA1 = "c92b06d85d0225bbb59c5bb5ca21dbdc52b29a11"


class TestGoldenRecords:
    """The records.jsonl bytes of two short streams, traces included.

    The hashes were recorded when the chain drew its candidates ahead, in
    per-k pools of i.i.d. draws evaluated 32 rows at a time, with one chain
    draw per iteration for the dimension offset and the uniform, and when
    each step's k-means fit of a k fitted at an earlier step started Lloyd
    from that earlier fit and the split start, without k-means++ seedings.
    The warm starts move the proposal locations, so they changed both
    hashes.  The mixture hash was re-recorded when the student prior's
    truncation mass became exact (it was a Monte Carlo estimate): that moved
    the traced acceptance probabilities by at most 5.3e-5, while the
    accept flags, the k paths and the record without traces stayed the same.
    Both hashes were re-recorded when the chain's pools kept one log
    importance weight per row and alpha became exp of the difference of two
    weights: 1,232 (sine drift) and 969 (mixture) of the 1,500 traced
    alphas moved by at most 1.0e-14 and 5.2e-15, while the proposed k, the
    accept flags, the k paths and the record without traces stayed the same.
    Any change to a draw, to the pool chunk size, to a k-means start, to a
    density or its normalising constant, or to a sum order in d=2 changes them.
    """

    @staticmethod
    def sha1(record) -> str:
        return hashlib.sha1(("\n".join(record.to_json_lines()) + "\n").encode()).hexdigest()

    def test_sine_drift_uniform_prior(self):
        cfg = StreamConfig(
            dim=2, max_clusters=8, radius=15.0, chain_length=100, seed=7, label_correction=True
        )
        xs = generate(SyntheticSpec(kind="sine_drift", horizon=15), seeded_rng(7, 0)).xs
        rec = run_stream(xs, cfg, trace_steps=range(1, 16))
        assert self.sha1(rec) == SINE_DRIFT_SHA1

    def test_gaussian_mixture_student_prior(self):
        cfg = StreamConfig(
            dim=2, max_clusters=8, radius=15.0, prior_kind="student", prior_scale=5.0,
            chain_length=100, seed=7, label_correction=True,
        )
        spec = SyntheticSpec(
            kind="gaussian_mixture", horizon=15, centers=((6.0, 0.0), (-6.0, 0.0), (0.0, 6.0))
        )
        rec = run_stream(generate(spec, seeded_rng(7, 1)).xs, cfg, trace_steps=range(1, 16))
        assert self.sha1(rec) == MIXTURE_SHA1
