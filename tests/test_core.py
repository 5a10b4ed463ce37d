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
from jumpclust.online import TemperatureSchedule


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
        again = Centers.from_list(json.loads(json.dumps(c.to_list())))
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

    def test_kmeans_validation(self):
        with pytest.raises(ValueError):
            KMeansConfig(restarts=0)


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
        with pytest.warns(UserWarning, match="burn_in"):
            cfg = load_config(path)
        assert cfg.max_clusters == 7
        assert cfg.schedule.kind == "anytime"
        assert cfg.schedule.radius == 4.5  # resolved from the config
        again = load_config(dump_config(cfg))
        assert again == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            load_config({"dim": 2, "max_clusters": 3, "radius": 1.0, "bogus": 1})

    def test_missing_required_field(self):
        with pytest.raises(ValueError, match="missing required"):
            load_config({"dim": 2, "max_clusters": 3})


class TestRunRecord:
    def _record(self):
        c1 = Centers([[0.0, 0.0]])
        c2 = Centers([[0.5, 0.5], [1.0, -1.0]])
        steps = (
            StepRecord(t=1, k=1, centers=c1, loss=2.0, cum_loss=2.0),
            StepRecord(t=2, k=2, centers=c2, loss=0.25, cum_loss=2.25),
        )
        return RunRecord(seed=5, rep=0, dim=2, steps=steps, final_centers=c2)

    def test_cumulative_consistency_enforced(self):
        c = Centers([[0.0]])
        with pytest.raises(ValueError, match="cumulative"):
            RunRecord(
                seed=0,
                rep=0,
                dim=1,
                steps=(StepRecord(t=1, k=1, centers=c, loss=1.0, cum_loss=5.0),),
                final_centers=c,
            )

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
