"""`run_experiment` refuses its bad arguments up front: sample sizes that do
not strictly increase (a repeated size would put two trials' values under
one key), fewer than one trial (which ended in `_median`), fewer than one
threshold or offset (an empty grid axis, on which every trial read 0), and a
seed whose derived seeds leave the Philox key range (numpy's own error, after
drawing the earlier samples).  `sample_density` refuses such a seed itself."""

from fractions import Fraction as F

import pytest

from permod import infer
from permod.filtration import DensitySpec, FiltrationError, sample_density
from permod.infer import run_experiment

DENSITY = "1,0,1/2"


@pytest.mark.parametrize("samples, bad", [([5, 5], "5 after 5"),
                                          ([5, 10, 8], "8 after 10")])
def test_sizes_must_strictly_increase(samples, bad):
    with pytest.raises(FiltrationError, match="strictly increasing") as exc:
        run_experiment(DensitySpec.parse("1,0,1/2"), samples, 1, seed=2,
                       bandwidth=F(1, 4), grid_points=9)
    assert bad in str(exc.value)


@pytest.mark.parametrize("trials", [0, -1])
def test_at_least_one_trial(trials):
    with pytest.raises(FiltrationError, match=f"trials must be at least 1, got {trials}"):
        run_experiment(DensitySpec.parse("1,0,1/2"), [5], trials, seed=2,
                       bandwidth=F(1, 4), grid_points=9)


@pytest.mark.parametrize("axis", ["thresholds", "offsets"])
@pytest.mark.parametrize("count", [0, -1])
def test_at_least_one_threshold_and_offset(axis, count):
    with pytest.raises(FiltrationError, match=f"{axis} must be at least 1, got {count}"):
        run_experiment(DensitySpec.parse(DENSITY), [10], 1, seed=3,
                       bandwidth=F(1, 4), grid_points=9, **{axis: count})


def test_one_threshold_and_one_offset_run():
    rec = run_experiment(DensitySpec.parse(DENSITY), [10], 1, seed=3,
                         bandwidth=F(1, 4), grid_points=9, thresholds=1, offsets=1)
    assert len(rec.grid_spec["a_axis"]) == len(rec.grid_spec["b_axis"]) == 1


@pytest.mark.parametrize("seed", [-1, -(2 ** 200), 2 ** 128, 2 ** 130],
                         ids=["-1", "-2**200", "2**128", "2**130"])
def test_sample_density_refuses_a_seed_outside_the_key_range(seed):
    with pytest.raises(FiltrationError, match=f"seed {seed} is outside"):
        sample_density(DensitySpec.parse(DENSITY), 3, seed)


@pytest.mark.parametrize("seed", [0, 2 ** 128 - 1], ids=["0", "2**128-1"])
def test_sample_density_takes_the_ends_of_the_key_range(seed):
    assert len(sample_density(DensitySpec.parse(DENSITY), 3, seed)) == 3


@pytest.mark.parametrize("seed", [-1, 2 ** 108, 2 ** 127], ids=["-1", "2**108", "2**127"])
def test_seed_refused_before_any_draw(seed, monkeypatch):
    """Derived seeds are (seed << 20) + stream for streams 1, 2, ...: a
    negative seed and any seed from 2**108 on give keys outside [0, 2**128),
    and none of the samples is drawn."""
    drawn = []
    monkeypatch.setattr(infer, "sample_density",
                        lambda *args: drawn.append(args) or sample_density(*args))
    with pytest.raises(FiltrationError, match=f"seed {seed} derives seeds outside"):
        run_experiment(DensitySpec.parse(DENSITY), [5, 10], 2, seed=seed,
                       bandwidth=F(1, 4), grid_points=9)
    assert drawn == []


def test_largest_seed_runs():
    """2**108 - 1 derives 2**128 - 2**20 + stream, inside the key range."""
    rec = run_experiment(DensitySpec.parse(DENSITY), [5, 10], 2, seed=2 ** 108 - 1,
                         bandwidth=F(1, 4), grid_points=9)
    assert sorted(rec.per_trial) == [5, 10]
