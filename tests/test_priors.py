import numpy as np
import pytest

from taplab.exceptions import DomainError
from taplab.experiments import inclusion_probabilities
from taplab.free_energy import VariationalState
from taplab.priors import (
    Prior,
    bernoulli_gaussian,
    gaussian_prior,
    parse_prior,
    point_mass_prior,
    three_point,
)


def test_three_point_moments():
    tp = three_point()
    assert tp.mean == 0.0
    assert tp.second_moment == pytest.approx(2.0 / 3.0)
    assert tp.zero_spike_weight == pytest.approx(1.0 / 3.0)
    untilted = VariationalState.from_duals(tp, np.zeros(1), np.zeros(1))
    assert inclusion_probabilities(tp, untilted) == pytest.approx(1.0 - tp.zero_spike_weight)


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        Prior(locations=np.array([-1.0, 0.0, 1.0]),
              weights=np.array([0.3, 0.3, 0.3]))


def test_needs_three_distinct_atoms():
    with pytest.raises(ValueError):
        point_mass_prior([(-1.0, 0.5), (1.0, 0.25), (1.0, 0.25)])


def test_duplicates_merged_and_sorted():
    pr = point_mass_prior([(1.0, 0.25), (-1.0, 0.25), (0.0, 0.25), (1.0, 0.25)])
    assert np.array_equal(pr.locations, [-1.0, 0.0, 1.0])
    assert np.allclose(pr.weights, [0.25, 0.25, 0.5])


def test_bernoulli_gaussian_structure():
    bg = bernoulli_gaussian(0.5, 1.0)
    assert bg.zero_spike_weight == pytest.approx(0.5)
    assert bg.second_moment == pytest.approx(0.5, abs=1e-10)
    # the atom at 0 carries the spike plus one quadrature node, and the PIP
    # counts the node as nonzero
    assert bg.weights[bg.locations == 0.0][0] > bg.zero_spike_weight
    untilted = VariationalState.from_duals(bg, np.zeros(1), np.zeros(1))
    assert inclusion_probabilities(bg, untilted) == pytest.approx(1.0 - bg.zero_spike_weight)
    assert bg.sampler[0] == "bernoulli-gaussian"


def test_gaussian_prior_matches_moments():
    g = gaussian_prior(2.0)
    assert g.mean == pytest.approx(0.0, abs=1e-12)
    assert g.second_moment == pytest.approx(2.0, abs=1e-8)


def test_bg_sampling_is_exact_not_quadrature():
    bg = bernoulli_gaussian(0.5, 1.0)
    rng = np.random.default_rng(0)
    x = bg.sample(200_000, rng)
    assert np.mean(x == 0.0) == pytest.approx(0.5, abs=0.01)
    nz = x[x != 0.0]
    # continuous part: no repeated values, unit variance
    assert len(np.unique(nz)) == len(nz)
    assert np.var(nz) == pytest.approx(1.0, abs=0.02)


def test_parse_prior_descriptors():
    tp = parse_prior("three-point")
    assert np.array_equal(tp.locations, three_point().locations)
    assert np.array_equal(tp.weights, three_point().weights)
    pm = parse_prior("point-mass:-2,0.25;0,0.5;2,0.25")
    assert np.array_equal(pm.locations, [-2.0, 0.0, 2.0])
    bg = parse_prior("bernoulli-gaussian:0.5,1.0")
    assert bg.zero_spike_weight == pytest.approx(0.5)
    with pytest.raises(DomainError):
        parse_prior("cauchy")


@pytest.mark.parametrize("descriptor, cause", [
    ("cauchy", "unrecognized prior kind"),
    ("point-mass:-1,0.5;1,0.5", "3 distinct support points"),
    ("point-mass:1", "not enough values"),
    ("bernoulli-gaussian:x,1", "could not convert"),
    ("bernoulli-gaussian:0.5", "not enough values"),
    ("point-mass:-1,nan;0,0.5;1,0.5", "weights must be strictly positive"),
    ("bernoulli-gaussian:0.5,nan", "variance must be positive"),
])
def test_parse_prior_rejects_bad_descriptors(descriptor, cause):
    with pytest.raises(DomainError, match=cause) as info:
        parse_prior(descriptor)
    assert repr(descriptor) in str(info.value)
    assert isinstance(info.value.__cause__, ValueError)
