"""`run_experiment` refuses its bad arguments up front: sample sizes that do
not strictly increase (a repeated size would put two trials' values under
one key), and fewer than one trial (which ended in `_median`)."""

from fractions import Fraction as F

import pytest

from permod.filtration import DensitySpec, FiltrationError
from permod.infer import run_experiment


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
