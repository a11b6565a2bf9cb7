"""sample_density (one bisect on the cumulative float weights, the last set
to +inf, and rng.standard_normal(dim)) against the sampler it replaced,
kept as `reference_kde.sample_density` (a scan for the first cumulative
weight above u, and rng.normal(size=dim)): the same points, coordinate for
coordinate, on the inference harness's density, on a 2-D mixture, and on
three-component mixtures whose cumulative weights round as floats."""

import pytest

from permod.filtration import DensitySpec, sample_density

import reference_kde as ref

CRITERION_12 = DensitySpec.parse("1/2,-1,1/4;1/2,1,1/4")
SEEDS = (0, 1, 2024, (2024 << 20) + 7, 2 ** 128 - 1)


def assert_same_points(spec, count, seed):
    got = sample_density(spec, count, seed)
    want = ref.sample_density(spec, count, seed)
    assert (got.dim, got.points) == (want.dim, want.points)
    assert got.to_csv() == want.to_csv()
    return got


@pytest.mark.parametrize("count", (0, 1, 50, 400))
@pytest.mark.parametrize("seed", SEEDS)
def test_criterion_12_density(count, seed):
    cloud = assert_same_points(CRITERION_12, count, seed)
    assert len(cloud) == count
    if count == 400:        # both components drawn
        assert {pt[0] > 0 for pt in cloud} == {False, True}


@pytest.mark.parametrize("seed", SEEDS)
def test_two_dimensional_density(seed):
    spec = DensitySpec.parse("1/3,0,1,1/2;2/3,2,-1,3/2")
    cloud = assert_same_points(spec, 300, seed)
    assert cloud.dim == 2


@pytest.mark.parametrize("weights", [("1/3", "1/3", "1/3"), ("1/10", "7/10", "1/5")])
@pytest.mark.parametrize("seed", SEEDS[:3])
def test_three_components_with_rounded_cumulative_weights(weights, seed):
    """Cumulative weights 1/3, 2/3 (or 1/10, 4/5) are not doubles; each
    component's center is far from the others, so the draws show which
    component every point took."""
    spec = DensitySpec.parse(";".join(f"{w},{c},1/100" for w, c in zip(weights, (-10, 0, 10))))
    cloud = assert_same_points(spec, 600, seed)
    assert {round(pt[0] / 10) for pt in cloud} == {-1, 0, 1}
