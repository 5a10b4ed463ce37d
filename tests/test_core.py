import dataclasses
import io
import json
import math

import numpy as np
import pytest

from jumpclust.core import (
    Centers,
    KMeansConfig,
    RunRecord,
    StepRecord,
    StreamConfig,
    dump_config,
    load_config,
    seeded_rng,
)
from jumpclust import priors
from jumpclust.online import TemperatureSchedule
from jumpclust.priors import PriorSpec


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = seeded_rng(42, 0).random(100)
        b = seeded_rng(42, 0).random(100)
        np.testing.assert_array_equal(a, b)

    def test_stream_separation(self):
        a = seeded_rng(42, 0).random(100)
        b = seeded_rng(42, 1).random(100)
        assert not np.array_equal(a, b)

    def test_uniform_range(self):
        u = seeded_rng(42, 0).random(10_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_tuple_stream_ids(self):
        a = seeded_rng(7, (1, 2, 3)).random(10)
        b = seeded_rng(7, (1, 2, 3)).random(10)
        c = seeded_rng(7, (1, 2, 4)).random(10)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestCenters:
    def test_shape_and_accessors(self):
        c = Centers([[1.0, 2.0], [3.0, 4.0]])
        assert c.k == 2 and c.dim == 2
        assert c.points.flags.writeable is False

    def test_one_dimensional_input_is_column(self):
        c = Centers([1.0, -2.0, 3.0])
        assert c.k == 3 and c.dim == 1

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            Centers(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            Centers([[np.nan, 0.0]])
        with pytest.raises(ValueError):
            Centers([[np.inf, 0.0]])

    def test_roundtrip_is_bit_exact(self):
        rng = seeded_rng(3, 0)
        pts = rng.standard_normal((5, 3)) * 1e-3 + 0.1
        c = Centers(pts)
        again = Centers(json.loads(json.dumps(c.to_list())))
        assert again == c


class TestStreamConfig:
    def _base(self, **over):
        kw = dict(dim=2, max_clusters=5, radius=1.0)
        kw.update(over)
        return StreamConfig(**kw)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            self._base(max_clusters=0)
        with pytest.raises(ValueError):
            self._base(radius=0.0)
        with pytest.raises(ValueError):
            self._base(radius=-2.0)
        with pytest.raises(ValueError):
            self._base(decay=-0.1)
        with pytest.raises(ValueError):
            self._base(chain_length=0)

    def test_radius_inf_only_for_student(self):
        with pytest.raises(ValueError):
            self._base(radius=math.inf)
        cfg = self._base(
            radius=math.inf, prior_kind="student", schedule=TemperatureSchedule.inverse_sqrt()
        )
        assert math.isinf(cfg.radius)

    def test_default_schedule_resolves(self):
        cfg = self._base()
        assert cfg.schedule.kind == "default"
        assert cfg.schedule.dim == 2

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_decay_must_be_finite(self, value):
        with pytest.raises(ValueError, match="decay must be >= 0 and finite"):
            self._base(decay=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_prior_scale_must_be_finite(self, value):
        with pytest.raises(ValueError, match="prior_scale must be > 0 and finite"):
            self._base(prior_scale=value)

    @pytest.mark.parametrize(
        "name, value, match",
        [("prior_kind", "cauchy", "unknown prior_kind 'cauchy'"),
         ("dim", 0, "dim must be >= 1"),
         ("max_clusters", 0, "max_clusters must be >= 1"),
         ("radius", math.nan, "radius must be > 0"),
         ("radius", math.inf, "radius=inf needs the student prior"),
         ("radius", 1e200, "the prior needs a finite radius > 0 whose square is positive"),
         ("decay", -0.1, "decay must be >= 0 and finite"),
         ("prior_scale", 0.0, "prior_scale must be > 0 and finite")],
    )
    def test_prior_settings_refused_as_by_the_prior(self, name, value, match):
        with pytest.raises(ValueError, match=match):
            self._base(**{name: value})
        spec = dict(kind="uniform", dim=2, max_clusters=5, radius=1.0)
        spec[{"prior_kind": "kind", "prior_scale": "scale"}.get(name, name)] = value
        with pytest.raises(ValueError, match=match):
            PriorSpec(**spec)

    def test_student_config_starts_no_truncation_estimate(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("truncation estimate started")

        monkeypatch.setattr(priors, "estimate_truncation_prob", refuse)
        cfg = self._base(prior_kind="student", radius=7.25, prior_scale=3.5)
        assert dataclasses.replace(cfg, seed=3).seed == 3
        with pytest.raises(AssertionError, match="truncation estimate started"):
            PriorSpec.from_config(cfg)

    def test_kmeans_validation(self):
        with pytest.raises(ValueError):
            KMeansConfig(restarts=0)

    def test_kmeans_tol_nan_refused(self):
        with pytest.raises(ValueError, match="kmeans tol must be >= 0"):
            KMeansConfig(tol=math.nan)


class TestConfigFile:
    def test_load_and_dump_roundtrip(self, tmp_path):
        raw = {
            "dim": 2,
            "max_clusters": 7,
            "radius": 4.5,
            "decay": 0.25,
            "prior_kind": "uniform",
            "schedule": {"kind": "anytime"},
            "chain_length": 123,
            "burn_in": 10,
            "seed": 99,
            "kmeans": {"restarts": 3, "max_iter": 50, "tol": 1e-6},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with pytest.warns(UserWarning) as caught:
            cfg = load_config(path)
        assert sorted(str(w.message) for w in caught) == [
            f"config field {name!r} is no longer used and is ignored"
            for name in ("burn_in", "kmeans")
        ]
        assert cfg.max_clusters == 7
        assert cfg.schedule.kind == "anytime"
        assert cfg.schedule.radius == 4.5  # resolved from the config
        dumped = dump_config(cfg)
        assert "kmeans" not in dumped and "burn_in" not in dumped
        again = load_config(dumped)
        assert again == cfg

    @pytest.mark.parametrize(
        "schedule, match",
        [({"kind": "anytime", "radius": math.nan}, "anytime schedule needs a finite radius > 0"),
         ({"kind": "horizon", "horizon": 10, "radius": -1.0},
          "horizon schedule needs a finite radius > 0"),
         ({"kind": "anytime", "dim": 0}, "anytime schedule needs dim >= 1"),
         ({"kind": "default", "dim": 7}, "default schedule has dim=7, the run has dim=2"),
         ({"kind": "anytime", "radius": 1.0},
          "anytime schedule has radius=1.0, the run has radius=5.0"),
         ({"kind": "anytime", "radius": 1e-200},
          "anytime schedule needs a finite radius > 0 whose square is positive"),
         ({"kind": "horizon", "horizon": 10, "radius": 1e200},
          "horizon schedule needs a finite radius > 0 whose square is positive")],
        ids=["radius-nan", "radius-negative", "dim-0", "dim-not-the-runs", "radius-not-the-runs",
             "radius-square-underflows", "radius-square-overflows"],
    )
    def test_schedule_dim_and_radius_are_the_runs(self, schedule, match):
        raw = {"dim": 2, "max_clusters": 3, "radius": 5.0, "schedule": schedule}
        with pytest.raises(ValueError, match=match):
            load_config(io.StringIO(json.dumps(raw)))  # NaN as JSON readers accept it

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            load_config({"dim": 2, "max_clusters": 3, "radius": 1.0, "bogus": 1})

    def test_missing_required_field(self):
        with pytest.raises(ValueError, match="missing required"):
            load_config({"dim": 2, "max_clusters": 3})

    @pytest.mark.parametrize(
        "cfg",
        [
            StreamConfig(dim=2, max_clusters=3, radius=2.0,
                         schedule=TemperatureSchedule.fixed(0.7)),
            StreamConfig(dim=2, max_clusters=3, radius=2.0,
                         schedule=TemperatureSchedule.with_horizon(2, 2.0, 50)),
            StreamConfig(dim=1, max_clusters=5, radius=3.0, decay=0.4,
                         schedule=TemperatureSchedule.anytime(1, 3.0)),
            StreamConfig(dim=3, max_clusters=4, radius=15.0, label_correction=True),
            StreamConfig(dim=2, max_clusters=3, radius=2.0, seed=5,
                         schedule=TemperatureSchedule.inverse_sqrt()),
            StreamConfig(dim=2, max_clusters=3, radius=2.0, chain_length=9,
                         schedule=TemperatureSchedule.custom([1.0, 0.5, 0.25])),
            StreamConfig(dim=2, max_clusters=6, radius=math.inf, prior_kind="student",
                         prior_scale=5.0, schedule=TemperatureSchedule.inverse_sqrt()),
        ],
        ids=["fixed", "horizon", "anytime", "default", "inverse_sqrt", "custom", "student_inf"],
    )
    def test_dump_load_round_trip(self, cfg):
        assert "kmeans" not in dump_config(cfg)
        assert load_config(dump_config(cfg)) == cfg
        text = json.dumps(dump_config(cfg))
        assert load_config(io.StringIO(text)) == cfg
        assert json.dumps(dump_config(load_config(json.loads(text)))) == text

    def test_defaults_nulls_and_numbers(self):
        cfg = load_config(
            {"dim": 2, "max_clusters": 3, "radius": 15, "schedule": {}, "seed": None,
             "decay": None}
        )
        assert cfg == StreamConfig(dim=2, max_clusters=3, radius=15.0)
        assert type(cfg.radius) is float and cfg.schedule.kind == "default"
        assert load_config({"dim": 2, "max_clusters": 3, "radius": 2, "schedule": None}) == (
            StreamConfig(dim=2, max_clusters=3, radius=2.0)
        )

    def test_nan_decay_in_a_config_file_is_refused(self):
        # JSON readers accept NaN; the config must not
        text = '{"dim": 2, "max_clusters": 3, "radius": 1.0, "decay": NaN}'
        with pytest.raises(ValueError, match="decay"):
            load_config(io.StringIO(text))

    @pytest.mark.parametrize(
        "nested, match",
        [
            ({"schedule": {"kind": "anytime", "bogus": 1}}, "unknown config fields.*schedule.bogus"),
            ({"schedule": {"valu": 3}}, "unknown config fields.*schedule.valu"),
            ({"schedule": "anytime"}, "'schedule' must be a JSON object"),
            ({"schedule": [1.0, 0.5]}, "'schedule' must be a JSON object"),
            ({"schedule": {"kind": "custom", "values": 0.5}}, "invalid config field 'schedule'"),
            ({"schedule": {"kind": "fixed", "value": "hot"}}, "'schedule.value' must be of"),
            ({"schedule": {"kind": "horizon", "horizon": 2.5}},
             "'schedule.horizon' must be of type int"),
            ({"dim": "2"}, "'dim' must be of type int"),
            ({"label_correction": "false"}, "'label_correction' must be of type bool"),
            ({"schedule": {"kind": "anytime", "value": 3.0, "values": [9.0]}},
             "anytime schedule does not read field 'value'"),
            ({"radius": 1e-200}, "the prior needs a finite radius > 0 whose square"),
            ({"radius": 1e200}, "the prior needs a finite radius > 0 whose square"),
            ({"radius": 1e-200, "schedule": {"kind": "anytime"}},
             "the prior needs a finite radius > 0 whose square"),
            ({"radius": 1e200, "schedule": {"kind": "fixed", "value": 1.0}},
             "the prior needs a finite radius > 0 whose square"),
            ({"radius": 1e-200, "schedule": {"kind": "inverse_sqrt"}},
             "the prior needs a finite radius > 0 whose square"),
        ],
        ids=["schedule-unknown-key", "schedule-kindless-unknown-key", "schedule-not-object",
             "schedule-a-list", "values-not-a-list", "value-not-a-number",
             "horizon-not-an-int", "dim-a-string", "bool-a-string", "schedule-stray-field",
             "radius-square-underflows", "radius-square-overflows", "anytime-radius-underflows",
             "fixed-radius-square-overflows", "inverse-sqrt-radius-square-underflows"],
    )
    def test_malformed_values_raise_value_error(self, nested, match):
        raw = {"dim": 2, "max_clusters": 3, "radius": 1.0, **nested}
        with pytest.raises(ValueError, match=match):
            load_config(raw)


class TestRunRecord:
    def _record(self):
        c1 = Centers([[0.0, 0.0]])
        c2 = Centers([[0.5, 0.5], [1.0, -1.0]])
        steps = (StepRecord(c1, 2.0), StepRecord(c2, 0.1), StepRecord(c2, 0.2))
        return RunRecord(seed=5, rep=0, steps=steps, final_centers=c2)

    def test_derived_facts(self):
        rec = self._record()
        assert rec.dim == 2 and rec.horizon == 3
        assert rec.k_sequence().tolist() == [1, 2, 2]
        # the running sum, added step by step in order
        assert rec.cumulative_losses().tolist() == [2.0, 2.0 + 0.1, 2.0 + 0.1 + 0.2]
        steps = [json.loads(line) for line in rec.to_json_lines()[1:-1]]
        assert [(s["t"], s["k"], s["cum_loss"]) for s in steps] == [
            (1, 1, 2.0), (2, 2, 2.1), (3, 2, 2.0 + 0.1 + 0.2)
        ]

    @pytest.mark.parametrize(
        "field, value, match",
        [("t", 3, "stores t=3"), ("k", 1, "k=1"), ("cum_loss", 2.2, "cumulative loss mismatch")],
        ids=["t", "k", "cum_loss"],
    )
    def test_from_json_lines_rejects_tampered_derived_fields(self, field, value, match):
        lines = self._record().to_json_lines()
        step = json.loads(lines[2])
        step[field] = value
        lines[2] = json.dumps(step, sort_keys=True)
        with pytest.raises(ValueError, match=match):
            RunRecord.from_json_lines(lines)

    def test_from_json_lines_tolerates_cum_loss_rounding(self):
        lines = self._record().to_json_lines()
        step = json.loads(lines[3])
        step["cum_loss"] *= 1 + 1e-14
        lines[3] = json.dumps(step, sort_keys=True)
        assert RunRecord.from_json_lines(lines).horizon == 3

    def test_from_json_lines_rejects_header_dim_mismatch(self):
        lines = self._record().to_json_lines()
        lines[0] = lines[0].replace('"dim": 2', '"dim": 3')
        with pytest.raises(ValueError, match="header dim 3"):
            RunRecord.from_json_lines(lines)

    def test_json_lines_roundtrip_bit_exact(self):
        rec = self._record()
        lines = rec.to_json_lines()
        back = RunRecord.from_json_lines(lines)
        assert back.seed == rec.seed and back.dim == rec.dim
        assert [s.loss for s in back.steps] == [s.loss for s in rec.steps]
        assert all(a.centers == b.centers for a, b in zip(back.steps, rec.steps))
        assert back.final_centers == rec.final_centers
        # serializing again reproduces the exact same bytes
        assert back.to_json_lines() == lines
