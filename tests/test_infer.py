import json
from fractions import Fraction as F

import pytest

from permod import infer
from permod.exactnum import INF
from permod.filtration import DensitySpec, FiltrationError, PointCloud, cech_bifiltration
from permod.homology import grid_module_of
from permod.infer import (cech_cluster_module, offset_cluster_module,
                          run_experiment)

from conftest import seeded


class TestClusterModules:
    def test_matches_generic_homology(self, f2):
        # the cluster shortcut equals H_0 of the honest Cech bifiltration
        rng = seeded(149)
        for _ in range(5):
            coords = sorted(rng.sample(range(0, 12), 4))
            weights = [F(rng.randint(-3, 0)) for _ in coords]
            pts = PointCloud([(F(c),) for c in coords])
            vals = [(w,) for w in weights]
            cx = cech_bifiltration(pts, "inf", vals, 1, F(100))
            a_axis = sorted(set(weights))
            b_axis = [F(k, 2) for k in range(0, 13)]
            generic = grid_module_of(cx, [a_axis, b_axis], degree=0, field=f2)
            quick = cech_cluster_module(f2, list(zip(map(F, coords), weights)),
                                        a_axis, b_axis)
            assert generic.dims == quick.dims
            for idx in generic.indices():
                for idx2 in generic.indices():
                    if all(a <= b for a, b in zip(idx, idx2)):
                        assert generic.rank_between(idx, idx2) == \
                            quick.rank_between(idx, idx2)

    def test_offset_runs(self, f2):
        # grid 0..4, sources at 0 and 4 (weight 0), others inactive
        grid = [F(k) for k in range(5)]
        weights = [F(0), F(1), F(1), F(1), F(0)]
        gm = offset_cluster_module(f2, grid, weights, [F(0)], [F(0), F(1), F(2)])
        assert gm.dims[(0, 0)] == 2           # two isolated sources
        assert gm.dims[(0, 1)] == 2           # radius 1: {0,1}, {3,4}
        assert gm.dims[(0, 2)] == 1           # radius 2 covers everything

    def test_offset_refuses_unmatched_weights(self, f2):
        """One weight for three grid points used to build a one-point module."""
        with pytest.raises(FiltrationError, match="grid points and weights"):
            offset_cluster_module(f2, [F(0), F(1), F(2)], [F(-1)], [F(0)], [F(0)])

    def test_refinement_that_is_not_nested_refused(self, f2, monkeypatch):
        """Containment asked the wrong way round: at a = 0 point 0 joins
        point 1's cluster, so the cluster (0, 1) has no home at a = -1,
        where only (1, 1) exists, though both end at point 1."""
        build = infer.build_grid_module
        monkeypatch.setattr(infer, "build_grid_module", lambda f, axes, point, dim, trans: build(
            f, axes, point, dim, lambda small, big: trans(big, small)))
        with pytest.raises(FiltrationError, match="cluster refinement is not nested"):
            cech_cluster_module(f2, [(F(0), F(0)), (F(1), F(-1))], [F(-1), F(0)], [F(1)])

    def test_negative_offset_refused(self, f2):
        """An offset below 0 used to fail as an internal "not nested"
        refinement (offset) or to give a module where no two points merge
        (Cech)."""
        with pytest.raises(FiltrationError, match="offsets must be >= 0, got -1$"):
            offset_cluster_module(f2, [0, 1], [0, 1], [0, 1], [-1, 1])
        with pytest.raises(FiltrationError, match="offsets must be >= 0, got -1/2$"):
            cech_cluster_module(f2, [(F(0), F(0)), (F(1, 2), F(0))], [F(0)],
                                [F(1), F(-1, 2), F(0)])
        assert cech_cluster_module(f2, [(F(0), F(0)), (F(1, 2), F(0))], [F(0)],
                                   [F(0), F(1, 4)]).dims == {(0, 0): 2, (0, 1): 1}


class TestExperiment:
    def test_determinism(self):
        spec = DensitySpec.parse("1/2,-1,1/4;1/2,1,1/4")
        a = run_experiment(spec, [15], 2, seed=3, bandwidth=F(1, 5),
                           grid_points=17, thresholds=7, offsets=7)
        b = run_experiment(spec, [15], 2, seed=3, bandwidth=F(1, 5),
                           grid_points=17, thresholds=7, offsets=7)
        assert a.to_json() == b.to_json()

    def test_degenerate_empty_sample(self):
        spec = DensitySpec.parse("1,0,1")
        rec = run_experiment(spec, [0], 1, seed=1, bandwidth=F(1, 5),
                             grid_points=9, thresholds=5, offsets=5)
        assert rec.per_trial[0] == [INF]
        assert rec.medians[0] == INF

    def test_record_shape(self):
        spec = DensitySpec.parse("1,0,1/2")
        rec = run_experiment(spec, [10], 1, seed=2, bandwidth=F(1, 4),
                             grid_points=9, thresholds=5, offsets=5)
        doc = json.loads(rec.to_json())
        assert doc["seed"] == 2
        assert doc["density"] == "1,0,1/2"
        assert doc["samples"] == [10]
        assert doc["bandwidth"] == "1/4"
        assert set(doc["per_trial"]) == {"10"}
        assert len(doc["per_trial"]["10"]) == 1
        assert "10" in doc["medians"]

    def test_seed_changes_output(self):
        spec = DensitySpec.parse("1,0,1/2")
        a = run_experiment(spec, [12], 1, seed=5, bandwidth=F(1, 4),
                           grid_points=9, thresholds=5, offsets=5)
        b = run_experiment(spec, [12], 1, seed=6, bandwidth=F(1, 4),
                           grid_points=9, thresholds=5, offsets=5)
        assert a.to_json() != b.to_json()
